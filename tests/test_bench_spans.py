"""The traced benchmark wraps library names by string; keep them resolvable.

bench/spans.py patches functions and methods of the library by name, so a
renamed or deleted name would only show up as a crash of
`bench/run.py --trace 1`.  Installing the tracer, running every query verb
and a verify through the wrapped CLI, and removing the tracer again turns
that into a test failure, including for a wrapper that breaks only when
called.
"""
import importlib.util
from pathlib import Path

import markovtraj.cli

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"

# every query verb of the CLI, on models/weather.json
QUERIES = [
    ("marginal", "--point", "S", "--at", "3"),
    ("content", "--point", "S", "--cylinder", "1=S,2=S"),
    ("witness", "--point", "S", "--cylinder", "1=S", "--cylinder", "1=S,2=S", "--eps", "9/16"),
    ("condexp", "--at", "1", "--cylinder", "2=S"),
    ("cylinder", "--cylinder", "1=S,2=S|R"),
    ("sample", "--point", "S", "--samples", "20", "--seed", "5"),
]


def test_tracer_installs_and_uninstalls(capsys):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    main = markovtraj.cli.main
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert markovtraj.cli.main is not main
        weather = str(ROOT / "models" / "weather.json")
        coin = str(ROOT / "models" / "coin.json")
        for args in QUERIES:
            assert markovtraj.cli.main([args[0], "--model", weather, *args[1:]]) == 0, args
        assert markovtraj.cli.main(["verify", "--model", coin]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert markovtraj.cli.main is main
    assert tracer.calls["cli.main"] == len(QUERIES) + 1
    # each query wrapper ran, including the sampler's draws
    for name in [*(f"trajectory.{q}" for q in spans.QUERIES), "measure.sample"]:
        assert tracer.calls[name] > 0, name
