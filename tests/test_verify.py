import random
import time
from pathlib import Path

import markovtraj.verify as verify
from markovtraj import (
    ChainModel,
    FiniteSpace,
    Kernel,
    LoadedModel,
    TupleSpace,
    load_model,
)
from markovtraj.cli import main
from markovtraj.report import Report
from markovtraj.verify import run_verify

from conftest import random_dist

WEATHER = str(Path(__file__).resolve().parent.parent / "models" / "weather.json")


def test_verify_passes_on_a_729_trajectory_chain():
    # 3 states at every depth up to 5: the split checks compare rows on a
    # pair space of 729 * 729 points.  Budget 60 s; about 1 s on a 2-vCPU VM.
    start = time.perf_counter()
    rng = random.Random(729)
    spaces = [FiniteSpace(f"X{i}", ["s0", "s1", "s2"]) for i in range(6)]
    steps = [
        Kernel(
            TupleSpace(spaces[: n + 1]),
            spaces[n + 1],
            [random_dist(rng, spaces[n + 1]) for _ in range(3 ** (n + 1))],
        )
        for n in range(5)
    ]
    report = run_verify(LoadedModel(ChainModel(spaces, steps)))
    assert report.ok
    assert len(report.lines) == 3 * 56 + 3 + 2 * 21
    assert time.perf_counter() - start < 60


def test_a_passing_check_renders_one_side_once():
    rendered = []

    def render(value):
        rendered.append(value)
        return f"<{value}>"

    report = Report("HEADER")
    report.add_compared("same", (1, 2), (1, 2), render)
    assert rendered == [(1, 2)]
    assert report.render().splitlines() == [
        "HEADER",
        "CHECK same PASS <(1, 2)> <(1, 2)>",
        "RESULT PASS checks=1",
    ]
    assert report.exit_code == 0


def test_a_failing_check_renders_both_sides_and_fails_the_report():
    report = Report("HEADER")
    report.add_compared("first", 1, 1, str)
    report.add_compared("second", 1, 2, str)
    report.add_compared("third", 3, 3, str)
    assert report.render().splitlines() == [
        "HEADER",
        "CHECK first PASS 1 1",
        "CHECK second FAIL 1 2",
        "CHECK third PASS 3 3",
        "RESULT FAIL failed=1 checks=3",
    ]
    assert not report.ok
    assert report.exit_code == 1


def test_a_wrong_composition_fails_exactly_the_kernel_comp_checks(monkeypatch, capsys):
    compose = verify.comp_kernel

    def rotated(first, second):
        kern = compose(first, second)
        return Kernel(kern.source, kern.target, kern.rows[1:] + kern.rows[:1])

    monkeypatch.setattr(verify, "comp_kernel", rotated)
    code = main(["verify", "--model", WEATHER])
    lines = capsys.readouterr().out.splitlines()
    checks = [line.split() for line in lines[1:-1]]
    failed = [c for c in checks if c[1].startswith("kernel-comp:")]
    assert code == 1
    assert len(failed) == 20  # triples a <= b <= c in 0..3
    assert all(c[2] == "FAIL" and c[3] != c[4] for c in failed)
    assert all(c[2] == "PASS" and c[3] == c[4] for c in checks if c not in failed)
    assert lines[-1] == f"RESULT FAIL failed=20 checks={len(checks)}"


def test_tower_builds_one_table_per_depth_pair(monkeypatch):
    # depth 3: 10 pairs b <= c plus one staged table per each of the 20
    # triples a <= b <= c, where building three per triple would take 60
    integrate = verify.expectation_table
    calls = []

    def counted(chain, a, b, f):
        calls.append((a, b))
        return integrate(chain, a, b, f)

    monkeypatch.setattr(verify, "expectation_table", counted)
    assert run_verify(load_model(WEATHER)).ok
    assert len(calls) == 30
