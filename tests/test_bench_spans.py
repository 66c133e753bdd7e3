"""The traced benchmark wraps library names by string; keep them resolvable.

bench/spans.py patches functions and methods of the library by name, so a
renamed or deleted name would only show up as a crash of
`bench/run.py --trace 1`.  Installing the tracer, running a query and a
verify through the wrapped CLI, and removing the tracer again turns that
into a test failure, including for a wrapper that breaks only when called.
"""
import importlib.util
from pathlib import Path

import markovtraj.cli

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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
        assert markovtraj.cli.main(
            ["marginal", "--model", weather, "--point", "S", "--at", "3"]
        ) == 0
        assert markovtraj.cli.main(["verify", "--model", coin]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert markovtraj.cli.main is main
    assert tracer.calls["cli.main"] == 2
