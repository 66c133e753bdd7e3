import hashlib
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import markovtraj.cli
import markovtraj.measure
import markovtraj.trajectory
import markovtraj.verify as verify
from markovtraj import (
    ChainModel,
    Dist,
    FiniteSpace,
    Kernel,
    LoadedModel,
    Rat,
    TupleSpace,
    expectation_table,
    load_model,
    model_from_dict,
    uniform,
)
from markovtraj.cli import main
from markovtraj.kernel import comp_kernel
from markovtraj.measure import _restrict
from markovtraj.report import (
    Report,
    canonical_dist,
    canonical_kernel,
    canonical_table,
    fingerprint,
    table_lines,
)
from markovtraj.trajectory import cond_exp_sides, traj_split_sides
from markovtraj.verify import run_verify

from conftest import (
    doc_chain,
    random_chain,
    random_dist,
    random_model_doc,
    weather_chain,
    weather_doc,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
WEATHER = str(MODELS / "weather.json")
COIN = str(MODELS / "coin.json")
DRIFT = str(MODELS / "drift.json")
TRI = str(Path(__file__).resolve().parent / "golden" / "tri.json")


def point_keyed_table_lines(space, table, sep):
    """The point-keyed rule that `report.table_lines` replaced, kept as its
    reference: each entry of a {point: rational} table as `label<sep>value`,
    in enumeration order, found by walking `space.points()`."""
    return (
        f"{space.label_at(i)}{sep}{table[p]}"
        for i, p in enumerate(space.points())
        if p in table
    )


def _table_spaces() -> list:
    # weather's depth-3 prefix space; drift's unequal spaces repeated to
    # depth 12, where both the head and the tail of a point (see
    # TupleSpace._cut) hold several coordinates; and a split's pair space
    # of two prefix spaces, whose texts are the components' own.
    drift = load_model(DRIFT).chain
    return [
        ("weather", load_model(WEATHER).chain.prefix_space(3)),
        ("drift12", TupleSpace([drift.spaces[k % 4] for k in range(13)])),
        ("pair", TupleSpace([drift.prefix_space(1), drift.prefix_space(3)])),
    ]


@pytest.mark.parametrize("name,space", _table_spaces(), ids=[n for n, _ in _table_spaces()])
def test_table_lines_match_the_point_keyed_rule(name, space):
    # On random full and partial tables, the renderer by prefix number and
    # the canonical form that joins it write what the point-keyed rule
    # writes for the same table keyed by point.
    rng = random.Random(f"table-lines-{name}")
    for trial in range(8):
        if trial < 2:
            numbers = range(space.size)
        else:
            numbers = sorted(rng.sample(range(space.size), min(space.size, rng.choice([0, 1, 5, 40]))))
        table = {i: Rat(rng.randint(-9, 9), rng.randint(1, 9)) for i in numbers}
        by_point = {space.point_at(i): value for i, value in table.items()}
        for sep in (" ", "="):
            assert (list(table_lines(space, table.items(), sep))
                    == list(point_keyed_table_lines(space, by_point, sep)))
        text = " ".join(point_keyed_table_lines(space, by_point, "="))
        assert canonical_table(space, table) == text
        if trial < 2:
            assert canonical_table(space, list(table.values())) == text


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
    """The table with 1 added to its first value; a list by prefix number
    or a dict."""
    if isinstance(table, list):
        return [table[0] + 1, *table[1:]]
    first = next(iter(table))
    return {**table, first: table[first] + 1}


def _mirrored(d):
    """d read back to front: point i moves to |space| - 1 - i."""
    return Dist.from_support(d.space, [(d.space.size - 1 - i, w) for i, w in d.support()])


def _head_doubled(values: list) -> list:
    """A copy of a flat list with entry 0 doubled: row 0 of the kernel it
    stands for then weighs more than 1, so no kernel has that list."""
    return [2 * values[0], *values[1:]]


def _first_weight_doubled(text: str) -> str:
    """A canonical_kernel text with row 0's first weight doubled, by
    Fraction arithmetic on the text."""
    return re.sub(r"=([^ ;]+)", lambda m: f"={2 * Fraction(m.group(1))}", text, count=1)


def test_a_wrong_composition_fails_exactly_the_kernel_comp_checks(monkeypatch, capsys):
    # Seven broken copies of verify's building blocks: only the checks of
    # the families that read the copy fail, each FAIL line shows the
    # fingerprint of the freshly built side first and of the reference
    # (memoized) side second.  The expected columns are built by the
    # point-keyed public routes (`expectation_table`, `cond_exp_sides`) and
    # rendered by the point-keyed rule (`point_keyed_table_lines`), not by
    # verify's index route.
    #
    # kernel-comp and restrict decide on flat lists, and their broken
    # copies double entry 0 of every fresh list, so that no fresh side is a
    # kernel any more and every line of the family fails, those whose
    # blocks hold one entry too; split:a,b is the kernel-comp:a,b,3
    # comparison, so it fails with it.  The expected first columns are the
    # canonical texts of the Kernel routes (`comp_kernel`, `_restrict` row
    # by row, the two-stage side of `traj_split_sides`) with row 0's first
    # weight doubled on the text.
    composed, block_sums = verify._composed, verify._block_sums
    integrate, split = verify._row_integrals, traj_split_sides
    blocks, const_sides = verify._cond_exp_blocks, verify.partial_traj_const_sides
    split_product, project = verify.product_split_sides, verify.product_projection_sides
    chain = load_model(WEATHER).chain
    tri = load_model(TRI)
    kern = chain.partial_traj

    def by_kernel(k):
        return fingerprint(canonical_kernel(k))

    def by_dist(d):
        return fingerprint(canonical_dist(d))

    def by_table(a, table):
        # a {point: rational} table of every depth-a prefix, or of some
        return fingerprint(" ".join(point_keyed_table_lines(chain.prefix_space(a), table, "=")))

    def test_function(c):
        # the test function i / |P_c| at the depth-c prefix numbered i
        space = chain.prefix_space(c)
        return {p: Rat(i, space.size) for i, p in enumerate(space.points())}

    def table(b, c):
        return expectation_table(chain, b, c, test_function(c))

    integrated = []

    def staged(ch, a, b, f, scale=1):
        # verify integrates the 10 tables of the pairs b <= c first; only the
        # tower's inner stages, every call after those, are perturbed
        integrated.append((a, b))
        values = integrate(ch, a, b, f, scale)
        return _perturbed(values) if len(integrated) > 10 else values

    def blocks_perturbed(*args):
        (i, lhs, rhs), *rest = blocks(*args)
        return [(i, lhs + 1, rhs), *rest]

    def condexp_columns(a, b):
        f = test_function(3)
        start = chain.prefix_space(a).point_at(0)
        lhs, rhs = cond_exp_sides(chain, a, start, b, f, table(b, 3))
        return by_table(b, _perturbed(lhs)), by_table(b, rhs)

    def restricted(a, b, c):
        target = chain.prefix_space(b)
        return Kernel(kern(a, c).source, target, [_restrict(row, target) for row in kern(a, c).rows])

    def doubled(kern):
        return fingerprint(_first_weight_doubled(canonical_kernel(kern)))

    def composed_doubled(first, second):
        values, denom = composed(first, second)
        return _head_doubled(values), denom

    def split_columns(a, b):
        two_stage, direct = split(chain, a, b)
        return doubled(two_stage), by_kernel(direct)

    def const_rotated(ch, marginals, a, b):
        kernel, literal = const_sides(ch, marginals, a, b)
        return kernel, _rotated(literal)

    def const_columns(a, b):
        kernel, literal = const_sides(tri.chain, tri.marginals, a, b)
        return by_kernel(_rotated(literal)), by_kernel(kernel)

    def fresh_mirrored(sides):
        def broken(marginals, a, b):
            fresh, reference = sides(marginals, a, b)
            return _mirrored(fresh), reference
        return broken

    def product_columns(sides):
        def columns(a, b):
            fresh, reference = sides(tri.marginals, a, b)
            return by_dist(_mirrored(fresh)), by_dist(reference)
        return columns

    cases = [  # model, name replaced, broken copy, {family: expected (column 1, column 2)}
        (WEATHER, "_composed", composed_doubled,
         {"kernel-comp": lambda a, b, c: (doubled(comp_kernel(kern(a, b), kern(b, c))),
                                          by_kernel(kern(a, c))),
          "split": split_columns}),
        (WEATHER, "_block_sums", lambda values, run: _head_doubled(block_sums(values, run)),
         {"restrict": lambda a, b, c: (doubled(restricted(a, b, c)), by_kernel(kern(a, b)))}),
        (WEATHER, "_row_integrals", staged,
         {"tower": lambda a, b, c: (by_table(a, _perturbed(expectation_table(chain, a, b, table(b, c)))),
                                    by_table(a, table(a, c)))}),
        (WEATHER, "_cond_exp_blocks", blocks_perturbed, {"condexp": condexp_columns}),
        (TRI, "partial_traj_const_sides", const_rotated, {"product-form": const_columns}),
        (TRI, "product_split_sides", fresh_mirrored(split_product),
         {"product-split": product_columns(split_product)}),
        (TRI, "product_projection_sides", fresh_mirrored(project),
         {"product-proj": product_columns(project)}),
    ]
    # depth 3: triples a <= b <= c, pairs a <= b, pairs a < b
    lines_of = {"kernel-comp": 20, "restrict": 20, "tower": 20, "condexp": 10, "split": 10,
                "product-form": 10, "product-split": 6, "product-proj": 6}
    for model, name, broken, columns in cases:
        monkeypatch.setattr(verify, name, broken)
        code = main(["verify", "--model", model])
        monkeypatch.undo()
        lines = capsys.readouterr().out.splitlines()
        checks = [line.split() for line in lines[1:-1]]
        failed = [c for c in checks if c[1].split(":")[0] in columns]
        assert len(failed) == sum(lines_of[family] for family in columns)
        for c in failed:
            family, depths = c[1].split(":")[0], [int(d) for d in c[1].split(":")[1].split(",")]
            assert c[2] == "FAIL" and c[3] != c[4]
            assert (c[3], c[4]) == columns[family](*depths)
        assert code == 1
        assert all(c[2] == "PASS" and c[3] == c[4] for c in checks if c not in failed)
        assert lines[-1] == f"RESULT FAIL failed={len(failed)} checks={len(checks)}"


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


def _unused_renderer(*args):
    raise AssertionError("a passing kernel line rendered a Kernel")


def test_kernel_checks_render_each_memoized_kernel_once(monkeypatch):
    # depth 4: each family has 35 triples a <= b <= c but compares against
    # only the 15 memoized kernels and tables of the pairs a <= c.  Every
    # kernel text is written from the pair's flat list by `_flat_texts`,
    # once per pair, and no Kernel is rendered by `canonical_kernel`.
    chain = weather_chain(4)
    flat_texts, render_table = verify._flat_texts, verify.canonical_table
    kernels, tables = [], []

    def counted_texts(ch, a, c, flat, heads=()):
        kernels.append((a, c))
        return flat_texts(ch, a, c, flat, heads)

    def counted_table(space, table):
        assert isinstance(table, list)  # the tower's tables are by prefix number
        tables.append(space)
        return render_table(space, table)

    monkeypatch.setattr(verify, "_flat_texts", counted_texts)
    monkeypatch.setattr(verify, "canonical_kernel", _unused_renderer)
    monkeypatch.setattr(verify, "canonical_table", counted_table)
    report = Report("HEADER")
    verify._kernel_checks(report, chain)
    assert report.ok and len(report.lines) == 3 * 35
    pairs = [(a, c) for a in range(5) for c in range(a, 5)]
    assert Counter(kernels) == Counter(pairs)
    assert Counter(tables) == Counter(chain.prefix_space(a) for a, _ in pairs)


def test_verify_builds_one_flat_list_per_memoized_kernel(monkeypatch):
    # depth 4: the kernel-comp and restrict checks read the 15 memoized
    # kernels a <= c each as one flat list, built once per run, and render
    # each list once.  The split checks, which take kernel-comp:a,b,4's
    # verdict, render nothing of their own: their texts are written in the
    # one render of each (a, 4) list, one split text per b = a..4.
    flat_kernel, flat_texts = verify._flat_kernel, verify._flat_texts
    built, rendered = [], []

    def counted_flat(chain, a, c):
        built.append((a, c))
        return flat_kernel(chain, a, c)

    def counted_texts(chain, a, c, flat, heads=()):
        rendered.append((a, c, len(heads)))
        return flat_texts(chain, a, c, flat, heads)

    monkeypatch.setattr(verify, "_flat_kernel", counted_flat)
    monkeypatch.setattr(verify, "_flat_texts", counted_texts)
    report = run_verify(LoadedModel(weather_chain(4)))
    assert report.ok
    pairs = [(a, c) for a in range(5) for c in range(a, 5)]
    assert sorted(built) == pairs
    assert sorted(rendered) == [(a, c, 5 - a if c == 4 else 0) for a, c in pairs]


def test_split_reference_text_is_the_direct_sides_canonical_text():
    # On 100 random chains, with 2 or 3 states per coordinate, zero step
    # weights and rows for every prefix, the first text that `_flat_texts`
    # writes from the flat list of every memoized kernel (a, c), a <= c, is
    # that kernel's `canonical_kernel` text; and for c = D, with the head
    # labels of every depth b = a..D, the split texts that follow are the
    # `canonical_kernel` texts of split:a,b's direct side.
    rng = random.Random(20260815)
    one = FiniteSpace("O", ["o"])
    # One-state spaces too, where the pair space of two one-point prefix
    # spaces writes both coordinates as one head.
    singles = [
        ChainModel([one, *spaces], [[uniform(spaces[0])], [uniform(spaces[1])] * spaces[0].size])
        for spaces in ([one, one], [FiniteSpace("W", ["S", "R"]), one])
    ]
    for chain in [random_chain(rng) for _ in range(100)] + singles:
        depth = chain.max_depth
        heads = verify._split_heads(chain)
        for a in range(depth + 1):
            for c in range(a, depth + 1):
                flat = verify._flat_kernel(chain, a, c)
                texts = list(verify._flat_texts(chain, a, c, flat, heads[a:] if c == depth else ()))
                assert texts[0] == canonical_kernel(chain.partial_traj(a, c))
            assert len(texts) == depth + 2 - a
            for b, text in zip(range(a, depth + 1), texts[1:]):
                _, direct = traj_split_sides(chain, a, b)
                assert text == canonical_kernel(direct)


def test_tower_builds_one_table_per_depth_pair(monkeypatch):
    # depth 3: 10 pairs b <= c plus one staged table per each of the 20
    # triples a <= b <= c, where building three per triple would take 60.
    # The condexp checks read the tower's (b, 3) tables, so no `cond_exp`
    # call (which integrates through the name bound in `trajectory`) adds
    # one of the 4 tables it would rebuild.
    integrate = verify._row_integrals
    calls = []

    def counted(chain, a, b, f, scale=1):
        calls.append((a, b))
        return integrate(chain, a, b, f, scale)

    monkeypatch.setattr(verify, "_row_integrals", counted)
    monkeypatch.setattr(markovtraj.trajectory, "_row_integrals", counted)
    assert run_verify(load_model(WEATHER)).ok
    assert len(calls) == 30


def test_product_checks_render_each_product_once(monkeypatch):
    # depth 3: the product-law, product-split and product-proj checks
    # compare against the products over coordinates 0..d, and each of the
    # 4 depths d is rendered once, where rendering per check would take 13.
    # The product-form checks compare against the memoized kernels, whose
    # texts the kernel checks wrote, one per pair a <= c, so a passing run
    # renders no Kernel.
    loaded = load_model(TRI)
    render, flat_texts = verify.canonical_dist, verify._flat_texts
    spaces, kernels = [], []

    def counted(d):
        spaces.append(d.space)
        return render(d)

    def counted_texts(chain, a, c, flat, heads=()):
        kernels.append((a, c))
        return flat_texts(chain, a, c, flat, heads)

    monkeypatch.setattr(verify, "canonical_dist", counted)
    monkeypatch.setattr(verify, "_flat_texts", counted_texts)
    monkeypatch.setattr(verify, "canonical_kernel", _unused_renderer)
    report = run_verify(loaded)
    assert report.ok
    assert sum(line.split()[1].startswith("product-") for line in report.lines) == 10 + 1 + 2 * 6
    assert Counter(spaces) == Counter(loaded.chain.prefix_space(d) for d in range(4))
    assert Counter(kernels) == Counter((a, c) for a in range(4) for c in range(a, 4))


def _verify_pool() -> list:
    """Random chains of depth 2-5 with 2 or 3 states per coordinate: 20 of
    `conftest.random_chain`, rows for every prefix, and 20 built from
    `conftest.random_model_doc`, whose steps mix the row kinds."""
    rng = random.Random(20260815)
    return [random_chain(rng) for _ in range(20)] + [
        doc_chain(random_model_doc(rng)) for _ in range(20)
    ]


def test_index_tables_and_condexp_blocks_equal_the_point_keyed_routes():
    # verify's tower tables (`_row_integrals` of the integer vector of
    # prefix numbers over |P_c|) are `expectation_table` of i / |P_c| read
    # in point order, and `_cond_exp_blocks` on them is `cond_exp_sides`
    # keyed by prefix number, from the first, the last and a random
    # depth-a prefix.
    rng = random.Random(31)
    for chain in _verify_pool():
        depth = chain.max_depth
        spaces = [chain.prefix_space(c) for c in range(depth + 1)]
        tables = {}
        for c in range(depth + 1):
            size = spaces[c].size
            f = lambda p, c=c: Rat(spaces[c].index_of(p), spaces[c].size)
            for b in range(c + 1):
                tables[b, c] = verify._row_integrals(chain, b, c, list(range(size)), size)
                expected = expectation_table(chain, b, c, f)
                assert tables[b, c] == [expected[p] for p in spaces[b].points()]
        size = spaces[depth].size
        f = lambda p: Rat(spaces[depth].index_of(p), size)
        for b in range(depth + 1):
            reference = expectation_table(chain, b, depth, f)
            for a in range(b + 1):
                for index in {0, spaces[a].size - 1, rng.randrange(spaces[a].size)}:
                    blocks = verify._cond_exp_blocks(
                        chain, a, index, b, list(range(size)), size, tables[b, depth].__getitem__
                    )
                    start = spaces[a].point_at(index)
                    lhs, rhs = cond_exp_sides(chain, a, start, b, f, reference)
                    assert blocks == [(spaces[b].index_of(p), lhs[p], rhs[p]) for p in lhs]


def _memoize_all(chain) -> None:
    """Build every kernel (a, c), a <= c, so none is built later from a
    row that a test replaces."""
    for a in range(chain.max_depth + 1):
        for c in range(a, chain.max_depth + 1):
            chain.partial_traj(a, c)


def _replace_row(chain, a, c, i, row) -> None:
    """Replace row i of the memoized (a, c) kernel, in the kernel and in the
    row memo, after memoizing every kernel."""
    _memoize_all(chain)
    kern = chain.partial_traj(a, c)
    rows = list(kern.rows)
    rows[i] = row
    chain._partial[a, c] = Kernel(kern.source, kern.target, rows)
    chain._rows[a, c, i] = row


def _moved(row, j1, j2):
    """row with weight 1 / (2 * denominator) moved from its entry j1 to j2."""
    entries = {j: 2 * n for j, n in row._numerators}
    entries[j1] -= 1
    entries[j2] = entries.get(j2, 0) + 1
    return Dist._from_numerators(row.space, 2 * row._denom, sorted(entries.items()))


def _kernel_routes(chain) -> dict:
    """{check id: (fresh, reference)} of every kernel-comp, restrict and
    split check, built by the Kernel routes: `comp_kernel`, `_restrict`
    row by row, and `traj_split_sides`, the pair-space coupling of
    `kernel._couple`."""
    depth = chain.max_depth
    kern = chain.partial_traj
    sides = {}
    for a in range(depth + 1):
        for b in range(a, depth + 1):
            for c in range(b, depth + 1):
                target = chain.prefix_space(b)
                sides[f"kernel-comp:{a},{b},{c}"] = comp_kernel(kern(a, b), kern(b, c)), kern(a, c)
                restricted = [_restrict(row, target) for row in kern(a, c).rows]
                sides[f"restrict:{a},{b},{c}"] = Kernel(kern(a, c).source, target, restricted), kern(a, b)
            sides[f"split:{a},{b}"] = traj_split_sides(chain, a, b)
    return sides


def test_flat_verdicts_equal_the_kernel_verdicts():
    # On the conftest pool, whose zero weights leave supports smaller than
    # their blocks, with weight moved inside one row of a random memoized
    # kernel (a, c), 0 < a < c: every kernel-comp, restrict and split line
    # decided on flat lists has the verdict of `==` on the Kernels of the
    # Kernel routes, and shows their fingerprints, the fresh side first.
    # (The content and witness checks read the rows from depth 0, which
    # stay as built.)
    rng = random.Random(35)
    failed = 0
    for chain in _verify_pool():
        depth = chain.max_depth
        a = rng.randint(1, depth - 1)
        c = rng.randint(a + 1, depth)
        i = rng.randrange(chain.prefix_space(a).size)
        row = chain.partial_traj(a, c).rows[i]
        run = chain.prefix_space(c).size // chain.prefix_space(a).size
        j1 = rng.choice([j for j, _ in row._numerators])
        j2 = rng.choice([j for j in range(i * run, (i + 1) * run) if j != j1])
        _replace_row(chain, a, c, i, _moved(row, j1, j2))
        sides = _kernel_routes(chain)
        checked = 0
        for line in run_verify(LoadedModel(chain)).lines:
            _, check_id, verdict, lhs, rhs = line.split()
            if check_id in sides:
                fresh, reference = sides[check_id]
                assert (verdict == "PASS") == (fresh == reference), check_id
                text = fingerprint(canonical_kernel(reference))
                assert (lhs, rhs) == ((text if fresh == reference else
                                       fingerprint(canonical_kernel(fresh))), text)
                failed += verdict == "FAIL"
                checked += 1
        assert checked == len(sides)
    assert failed > 100


def test_a_moved_weight_fails_the_lines_that_read_its_kernel_on_one_side():
    # Weight moves inside row 1 of the memoized (1, 3) kernel of the depth-5
    # weather chain, between two points that differ at x_2, so every
    # restriction of the row to a depth b in 2..3 changes too.  Exactly the
    # lines that read that kernel on one side fail; those that read it on
    # both (kernel-comp:1,1,3 and 1,3,3, restrict:1,1,3 and 1,3,3,
    # tower:1,1,3 and 1,3,3) pass.  No condexp, content or witness line
    # reads it.
    chain = weather_chain(5)
    row = chain.partial_traj(1, 3).rows[1]
    _replace_row(chain, 1, 3, 1, _moved(row, 4, 6))
    assert _failed_ids(run_verify(LoadedModel(chain))) == [
        "kernel-comp:0,1,3", "kernel-comp:1,2,3", "kernel-comp:1,3,4", "kernel-comp:1,3,5",
        "restrict:1,2,3", "restrict:1,3,4", "restrict:1,3,5",
        "tower:0,1,3", "tower:1,2,3", "tower:1,3,4", "tower:1,3,5",
        "split:1,3",
    ]


def test_a_row_outside_its_block_exits_4(monkeypatch, capsys):
    # Row 0 of the memoized (0, 2) kernel replaced by row 1, whose mass
    # lies on the prefixes that extend prefix 1: reading the kernel as a
    # flat list finds it outside its block, a fault in the library.
    chain = weather_chain(3)
    _replace_row(chain, 0, 2, 0, chain.partial_traj(0, 2).rows[1])
    monkeypatch.setattr(markovtraj.cli, "load_model", lambda path: LoadedModel(chain))
    code = main(["verify", "--model", WEATHER])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err == "error: row 0 of the (0, 2) kernel leaves its prefix block [0, 4)\n"


def test_a_witness_whose_candidates_all_score_0_fails_its_line(monkeypatch, capsys):
    # Weight moved inside row 0 of the memoized (0, 1) kernel of a depth-2
    # chain, from its one entry j = 1 to j = 0: the box route then gives the
    # outer cylinder {x_1 = s} content 1/2 while each of its parts
    # {x_1 = s, x_2 = t} scores 0.  The witness's ε is 0, which is no bound
    # `extract_witness` takes, so the witness-member line fails and verify
    # exits 1, not 3.
    chain = _verify_pool()[13]
    _replace_row(chain, 0, 1, 0, _moved(chain.partial_traj(0, 1).rows[0], 1, 0))
    monkeypatch.setattr(markovtraj.cli, "load_model", lambda path: LoadedModel(chain))
    code = main(["verify", "--model", WEATHER])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert "CHECK witness-member FAIL 0 1" in out.splitlines()


@pytest.mark.parametrize("model", [WEATHER, COIN, TRI], ids=["weather", "coin", "tri"])
def test_verify_lists_no_prefix_space_outside_the_membership_route(monkeypatch, model):
    # Every family reads prefixes by number and labels by `label_at`; only
    # the content checks' membership reference (`content_at_depth`) builds
    # prefix tuples, which lists its space's heads and tails.
    def listed(space):
        raise AssertionError(f"{space!r} was listed")

    monkeypatch.setattr(verify, "_content_checks", lambda *args: None)
    monkeypatch.setattr(markovtraj.measure.TupleSpace, "_listing", listed)
    report = run_verify(load_model(model))
    assert report.ok and not any(line.split()[1].startswith("content-") for line in report.lines)


@pytest.mark.parametrize("name,calls", [("weather", 5), ("drift", 6), ("coin", 5)])
def test_verify_scores_each_content_cylinder_once(monkeypatch, name, calls):
    # The parts {x_c1 = s}, c1 = min(1, D), are scored once, and their union
    # once; the witness candidates outer ∩ {x_c2 = t}, c2 = min(2, D), once
    # each: |X_c1| + 1 + |X_c2| calls of `cylinder_content` per run.
    content, seen = verify.cylinder_content, []

    def counted(*args):
        seen.append(args)
        return content(*args)

    monkeypatch.setattr(verify, "cylinder_content", counted)
    assert run_verify(load_model(str(MODELS / f"{name}.json"))).ok
    assert len(seen) == calls


def _failed_ids(report) -> list:
    return [line.split()[1] for line in report.lines if line.split()[2] == "FAIL"]


def _doubled(numerators: list, denom: int) -> tuple:
    return [2 * n for n in numerators], denom


@pytest.mark.parametrize("name", ["weather", "drift", "coin"])
def test_verify_catches_a_content_fault_on_every_shipped_model(monkeypatch, name):
    # `cylinder_content`, `cond_exp` of a cylinder and the witness's scores
    # read cylinders by the box route (`_box_masses`); `content_at_depth`
    # and the witness's final check read them by membership.  So a box
    # route that doubles every content fails exactly the content-depth
    # line, and the witness still ends.
    box_masses = markovtraj.trajectory._box_masses
    monkeypatch.setattr(markovtraj.trajectory, "_box_masses",
                        lambda *args: _doubled(*box_masses(*args)))
    assert _failed_ids(run_verify(load_model(str(MODELS / f"{name}.json")))) == ["content-depth"]


def test_verify_catches_a_content_fault_on_row_reads(monkeypatch):
    # On drift.json (markov_from = 2) the content-depth cylinder {x_1 = s}
    # is read off the depth-1 row from the start, which only the membership
    # side checks: doubling the box route where it reads a row fails there.
    box_masses = markovtraj.trajectory._box_masses

    def doubled_on_rows(model, boxes, n, indices, tails, lo):
        masses = box_masses(model, boxes, n, indices, tails, lo)
        return _doubled(*masses) if lo > n else masses

    monkeypatch.setattr(markovtraj.trajectory, "_box_masses", doubled_on_rows)
    assert _failed_ids(run_verify(load_model(str(MODELS / "drift.json")))) == ["content-depth"]


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
