"""The traced benchmark wraps library names by string; keep them resolvable.

bench/spans.py patches functions and methods of the library by name, so a
renamed or deleted name would only show up as a crash of
`bench/run.py --trace 1`.  Installing and removing the tracer here turns
that into a test failure.
"""
import importlib.util
from pathlib import Path

import markovtraj.cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    main = markovtraj.cli.main
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert markovtraj.cli.main is not main
    finally:
        tracer.uninstall()
    assert markovtraj.cli.main is main
