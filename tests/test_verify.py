import hashlib
import random
import time
from collections import Counter
from pathlib import Path

import pytest

import markovtraj.trajectory
import markovtraj.verify as verify
from markovtraj import (
    ChainModel,
    Dist,
    FiniteSpace,
    Kernel,
    LoadedModel,
    load_model,
    model_from_dict,
)
from markovtraj.cli import main
from markovtraj.report import Report, canonical_kernel, canonical_table, fingerprint
from markovtraj.verify import run_verify

from conftest import random_chain, random_dist, weather_chain, weather_doc

MODELS = Path(__file__).resolve().parent.parent / "models"
WEATHER = str(MODELS / "weather.json")
COIN = str(MODELS / "coin.json")


def test_verify_passes_on_a_729_trajectory_chain():
    # 3 states at every depth up to 5: the split checks compare rows on a
    # pair space of 729 * 729 points.  Budget 60 s; about 1 s on a 2-vCPU VM.
    start = time.perf_counter()
    rng = random.Random(729)
    spaces = [FiniteSpace(f"X{i}", ["s0", "s1", "s2"]) for i in range(6)]
    steps = [[random_dist(rng, spaces[n + 1]) for _ in range(3 ** (n + 1))] for n in range(5)]
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
    verify._add(report, "same", (1, 2), (1, 2), render)
    assert rendered == [(1, 2)]
    assert report.render().splitlines() == [
        "HEADER",
        "CHECK same PASS <(1, 2)> <(1, 2)>",
        "RESULT PASS checks=1",
    ]
    assert report.exit_code == 0


def test_a_failing_check_renders_both_sides_and_fails_the_report():
    report = Report("HEADER")
    verify._add(report, "first", 1, 1, str)
    verify._add(report, "second", 1, 2, str)
    verify._add(report, "third", 3, 3, str)
    assert report.render().splitlines() == [
        "HEADER",
        "CHECK first PASS 1 1",
        "CHECK second FAIL 1 2",
        "CHECK third PASS 3 3",
        "RESULT FAIL failed=1 checks=3",
    ]
    assert not report.ok
    assert report.exit_code == 1


def test_a_given_reference_text_is_shown_and_only_a_fail_renders():
    # With the reference side's text given, a PASS renders nothing and a
    # FAIL renders the fresh side once, into the first column.
    rendered = []

    def render(value):
        rendered.append(value)
        return f"<{value}>"

    report = Report("HEADER")
    verify._add(report, "same", 1, 1, render, "memo")
    assert rendered == []
    verify._add(report, "differ", 2, 1, render, "memo")
    assert rendered == [2]
    assert report.render().splitlines() == [
        "HEADER",
        "CHECK same PASS memo memo",
        "CHECK differ FAIL <2> memo",
        "RESULT FAIL failed=1 checks=2",
    ]


def _rotated(kern):
    return Kernel(kern.source, kern.target, kern.rows[1:] + kern.rows[:1])


def _perturbed(table):
    first = next(iter(table))
    return {**table, first: table[first] + 1}


def test_a_wrong_composition_fails_exactly_the_kernel_comp_checks(monkeypatch, capsys):
    # Four broken copies of verify's building blocks, one family each: only
    # that family's checks fail, each FAIL line shows the fingerprint of the
    # freshly built side first and of the reference (memoized) side second.
    compose, restrict = verify.comp_kernel, verify._restrict
    integrate, split = verify.expectation_table, verify.traj_split_sides
    chain = load_model(WEATHER).chain
    kern = chain.partial_traj

    def by_kernel(k):
        return fingerprint(canonical_kernel(k))

    def by_table(a, table):
        return fingerprint(canonical_table(chain.prefix_space(a), table))

    def table(b, c):
        return integrate(chain, b, c, verify._index_fraction(chain.prefix_space(c)))

    def staged(ch, a, b, f):
        # only the tower's inner stages integrate a table
        return _perturbed(integrate(ch, a, b, f)) if isinstance(f, dict) else integrate(ch, a, b, f)

    def split_rotated(ch, a, b):
        two_stage, direct = split(ch, a, b)
        return _rotated(two_stage), direct

    def mirrored(d, target):
        # the restriction read back to front: point i moves to |target| - 1 - i
        return Dist.from_support(
            target, [(target.size - 1 - i, w) for i, w in restrict(d, target).support()]
        )

    def restricted(a, b, c):
        target = chain.prefix_space(b)
        return Kernel(kern(a, c).source, target, [mirrored(row, target) for row in kern(a, c).rows])

    def split_columns(a, b):
        two_stage, direct = split(chain, a, b)
        return by_kernel(_rotated(two_stage)), by_kernel(direct)

    cases = [  # family, name replaced, broken copy, expected (column 1, column 2)
        ("kernel-comp", "comp_kernel", lambda first, second: _rotated(compose(first, second)),
         lambda a, b, c: (by_kernel(_rotated(compose(kern(a, b), kern(b, c)))),
                          by_kernel(kern(a, c)))),
        ("restrict", "_restrict", mirrored,
         lambda a, b, c: (by_kernel(restricted(a, b, c)), by_kernel(kern(a, b)))),
        ("tower", "expectation_table", staged,
         lambda a, b, c: (by_table(a, _perturbed(integrate(chain, a, b, table(b, c)))),
                          by_table(a, table(a, c)))),
        ("split", "traj_split_sides", split_rotated, split_columns),
    ]
    for family, name, broken, columns in cases:
        monkeypatch.setattr(verify, name, broken)
        code = main(["verify", "--model", WEATHER])
        monkeypatch.undo()
        lines = capsys.readouterr().out.splitlines()
        checks = [line.split() for line in lines[1:-1]]
        failed = [c for c in checks if c[1].startswith(f"{family}:")]
        expected = 10 if family == "split" else 20  # pairs a <= b, triples a <= b <= c
        assert code == 1
        assert len(failed) == expected
        for c in failed:
            depths = map(int, c[1].split(":")[1].split(","))
            assert c[2] == "FAIL" and c[3] != c[4]
            assert (c[3], c[4]) == columns(*depths)
        assert all(c[2] == "PASS" and c[3] == c[4] for c in checks if c not in failed)
        assert lines[-1] == f"RESULT FAIL failed={expected} checks={len(checks)}"


def test_a_wrong_product_form_shows_the_literal_side_first(monkeypatch, capsys):
    # A rotated literal kernel fails every product-form check; each FAIL line
    # shows the rotated literal's fingerprint first and the memoized
    # kernel's second, as in every other family.
    sides = verify.partial_traj_const_sides

    def rotated(chain, marginals, a, b):
        kern, literal = sides(chain, marginals, a, b)
        return kern, _rotated(literal)

    def by_kernel(k):
        return fingerprint(canonical_kernel(k))

    loaded = load_model(COIN)
    monkeypatch.setattr(verify, "partial_traj_const_sides", rotated)
    code = main(["verify", "--model", COIN])
    lines = capsys.readouterr().out.splitlines()
    checks = [line.split() for line in lines[1:-1]]
    failed = [c for c in checks if c[1].startswith("product-form:")]
    assert code == 1
    assert len(failed) == 15  # pairs a <= b of depth 4
    for c in failed:
        a, b = map(int, c[1].split(":")[1].split(","))
        kern, literal = sides(loaded.chain, loaded.marginals, a, b)
        assert c[2] == "FAIL"
        assert (c[3], c[4]) == (by_kernel(_rotated(literal)), by_kernel(kern))
    assert all(c[2] == "PASS" and c[3] == c[4] for c in checks if c not in failed)
    assert lines[-1] == f"RESULT FAIL failed=15 checks={len(checks)}"


def test_kernel_checks_render_each_memoized_kernel_once(monkeypatch):
    # depth 4: each family has 35 triples a <= b <= c but compares against
    # only the 15 memoized kernels and tables of the pairs a <= c
    chain = weather_chain(4)
    render_kernel, render_table = verify.canonical_kernel, verify.canonical_table
    kernels, tables = [], []

    def counted_kernel(k):
        kernels.append((k.source, k.target))
        return render_kernel(k)

    def counted_table(space, table):
        tables.append(space)
        return render_table(space, table)

    monkeypatch.setattr(verify, "canonical_kernel", counted_kernel)
    monkeypatch.setattr(verify, "canonical_table", counted_table)
    report = Report("HEADER")
    verify._kernel_checks(report, chain, verify._kernel_texts(chain))
    assert report.ok and len(report.lines) == 3 * 35
    spaces = [chain.prefix_space(n) for n in range(5)]
    pairs = [(spaces[a], spaces[c]) for a in range(5) for c in range(a, 5)]
    assert Counter(kernels) == Counter(pairs)
    assert Counter(tables) == Counter(source for source, _ in pairs)


def test_tower_builds_one_table_per_depth_pair(monkeypatch):
    # depth 3: 10 pairs b <= c plus one staged table per each of the 20
    # triples a <= b <= c, where building three per triple would take 60.
    # The condexp checks read the tower's (b, 3) tables, so no `cond_exp`
    # call (which integrates through the name bound in `trajectory`) adds
    # one of the 4 tables it would rebuild.
    integrate = verify.expectation_table
    calls = []

    def counted(chain, a, b, f):
        calls.append((a, b))
        return integrate(chain, a, b, f)

    monkeypatch.setattr(verify, "expectation_table", counted)
    monkeypatch.setattr(markovtraj.trajectory, "expectation_table", counted)
    assert run_verify(load_model(WEATHER)).ok
    assert len(calls) == 30


COINS6 = {"kind": "product", "factors": [{"H": "1/2", "T": "1/2"}] * 6}

# sha256 of what `verify` prints (the report, then a newline) on models
# beyond the shipped goldens: deeper chains, whose restrictions span blocks
# of up to 2^10 prefixes, unequal space sizes with zero step weights, and a
# larger product.
PINNED_VERIFY = [
    ("weather8", lambda: model_from_dict(weather_doc(8)),
     "36a7111022585c32e9e26bcce95da7ef181b3a1625777dcfc004e16c8fbd1793"),
    ("weather10", lambda: model_from_dict(weather_doc(10)),
     "ad63e720a1bffa0dcf36518398a957244ac3ab3accf959c6b4fc65c6718f5e97"),
    ("random5", lambda: LoadedModel(random_chain(random.Random(4), depth=5)),
     "801b16d3b17ba82fada7a11b60855b7bfec066fd953a2c2007537fd05cd2c9b3"),
    ("coin6", lambda: model_from_dict(COINS6),
     "daf947b739fd55e16ec95c3486aff3a6aac8cbcc2e71efb553af0be4a396af09"),
]


@pytest.mark.parametrize("make,digest", [case[1:] for case in PINNED_VERIFY],
                         ids=[case[0] for case in PINNED_VERIFY])
def test_verify_output_is_pinned(make, digest):
    text = run_verify(make()).render() + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
