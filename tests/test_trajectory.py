import bisect
import itertools
import random
import time
from pathlib import Path

import pytest

from markovtraj import (
    ChainModel,
    Cylinder,
    Dist,
    DomainError,
    FiniteSpace,
    LoadedModel,
    PreconditionError,
    Rat,
    SubsetOf,
    TupleSpace,
    check_cond_exp,
    check_traj_split,
    comp_kernel,
    cond_exp,
    const_chain,
    content_at_depth,
    cylinder,
    cylinder_content,
    cylinder_from_constraints,
    dirac,
    disjoint_union_cylinders,
    expectation_table,
    extract_witness,
    intersect_cylinders,
    lift_cylinder,
    load_model,
    model_from_dict,
    product_prefix_dist,
    run_verify,
    sample_trajectory,
    traj_marginal,
    uniform,
)

from conftest import (
    brute_force_content,
    brute_force_prefix_law,
    doc_chain,
    random_chain,
    random_dist,
    random_model_doc,
    random_nested_family,
    random_prefix,
    step_row,
    weather_chain,
    weather_doc,
)
from markovtraj.product import (
    partial_traj_const_sides,
    product_projection_sides,
    product_split_sides,
)
from markovtraj.trajectory import cond_exp_sides, traj_split_sides

MODELS = Path(__file__).resolve().parent.parent / "models"


# ---- model construction ----


def test_chain_validates_steps():
    w = FiniteSpace("W", ["S", "R"])
    with pytest.raises(DomainError):
        ChainModel([w, w], [])  # one step missing
    with pytest.raises(DomainError):
        ChainModel([w, w], [[uniform(w)] * 3])  # two depth-0 prefixes, three rows
    with pytest.raises(DomainError):
        ChainModel([w, w], [[]])  # no rows
    other = FiniteSpace("X", ["a", "b"])
    with pytest.raises(DomainError):
        ChainModel([w, w], [[uniform(w), uniform(other)]])  # a row off X_1
    with pytest.raises(DomainError):
        ChainModel([w, w], [weather_chain(1).partial_traj(0, 1)])  # a Kernel, not rows
    # State spaces must be FiniteSpaces: a product of them, or a string,
    # would fail only later, in the queries that read its labels.
    pair = TupleSpace([w, w])
    with pytest.raises(DomainError):
        ChainModel([pair, pair], [[uniform(pair)] * 4])
    with pytest.raises(DomainError):
        ChainModel(["ab"], [])


def test_a_malformed_step_is_named_by_its_number():
    # Three rows divide no count of depth-1 prefixes (four): the message
    # names the step and the row count, not the prefix space's repr, which
    # at step n lists n + 1 state spaces.
    w = FiniteSpace("W", ["S", "R"])
    with pytest.raises(DomainError) as excinfo:
        ChainModel([w] * 30, [[uniform(w)] * 2] + [[uniform(w)] * 3] * 28)
    assert str(excinfo.value) == "step 1: the row count must divide the 4 depth-1 prefixes, got 3"
    other = FiniteSpace("X", ["a", "b"])
    with pytest.raises(DomainError) as excinfo:
        ChainModel([w, w, w], [[uniform(w)] * 2, [uniform(w)] * 3 + [uniform(other)]])
    assert str(excinfo.value) == "step 1: kernel row lives on a different space"


def test_a_last_state_chain_holds_one_row_per_state():
    # 3^30 depth-29 prefixes, and each step held as its three rows.
    x = FiniteSpace("X", ["a", "b", "c"])
    by_last = [Dist(x, ["1/2", "1/2", "0"]), Dist(x, ["0", "1/3", "2/3"]), Dist(x, ["1", "0", "0"])]
    chain = ChainModel([x] * 31, [by_last] * 30)
    assert chain.markov_from == 0
    assert all(step == tuple(by_last) for step in chain.steps)
    # The law of x_30 from ("a",), by thirty plain products with the rows.
    law = [Rat(1), Rat(0), Rat(0)]
    for _ in range(30):
        law = [sum(w * row.weight_at(u) for w, row in zip(law, by_last)) for u in x.labels]
    for u, weight in zip(x.labels, law):
        cyl = cylinder_from_constraints(chain, {30: [u]})
        assert cylinder_content(chain, 0, ("a",), cyl) == weight
    assert len(sample_trajectory(chain, ("a",), random.Random(30))) == 31


def test_full_rows_and_rows_by_period_give_the_same_chain():
    # Each model is built twice: from the rows by period that the loader
    # gives (one for "const", |X_n| for "last-state", |P_n| for "table")
    # and from those rows repeated to one per prefix.  The chain keeps full
    # rows that repeat with period |X_n| as their first |X_n|, so both hold
    # the same steps, except that a const step built from full rows keeps
    # |X_n| copies of its row.  One document has a "table" step that reads
    # only the last state.
    rng = random.Random(2703)
    reads_last = weather_doc(3)
    by_state = reads_last["steps"][1]["rows"]
    reads_last["steps"][1] = {"n": 1, "kind": "table", "rows": {
        f"{x}|{y}": dict(by_state[y]) for x in "SR" for y in "SR"}}
    models = [load_model(MODELS / f"{name}.json") for name in ("weather", "drift", "coin")]
    models.append(model_from_dict(reads_last))
    models += [model_from_dict(random_model_doc(rng, rng.randint(2, 4))) for _ in range(16)]
    assert [len(step) for step in models[3].chain.steps] == [2, 2, 2]
    for model in models:
        by_period = model.chain
        full = ChainModel(by_period.spaces, [
            rows * (by_period.prefix_space(n).size // len(rows))
            for n, rows in enumerate(by_period.steps)
        ])
        assert full.markov_from == by_period.markov_from
        for n, (long, short) in enumerate(zip(full.steps, by_period.steps)):
            assert long == short or len(short) == 1 and long == short * full.spaces[n].size
        depth = full.max_depth
        for a, b in itertools.product(range(depth + 1), repeat=2):
            for i in range(full.prefix_space(a).size):
                assert full.partial_row(a, b, i) == by_period.partial_row(a, b, i)
        for a in range(depth + 1):
            prefix, seed = random_prefix(rng, full, a), rng.randrange(1 << 30)
            streams = [random.Random(seed), random.Random(seed)]
            draws = [[sample_trajectory(chain, prefix, r) for _ in range(20)]
                     for chain, r in zip((full, by_period), streams)]
            assert draws[0] == draws[1]
        assert (run_verify(LoadedModel(full, model.marginals)).render()
                == run_verify(model).render())


def test_prefix_helpers(weather):
    assert weather.prefix_space(0).size == 2
    assert weather.prefix_space(3).size == 16
    with pytest.raises(DomainError):
        weather.prefix_space(4)
    # an unknown label and a prefix shorter than its depth
    everything = cylinder_from_constraints(weather, {0: ["S", "R"]})
    for bad in (("S", "Q"), ("S",)):
        with pytest.raises(DomainError):
            extract_witness(weather, 1, bad, [everything], Rat(1, 2))
        with pytest.raises(DomainError):
            traj_marginal(weather, 1, bad, 2)


def test_prefix_spaces_are_heads_of_one_product():
    # Every prefix space shares the factors of the chain's full product and
    # equals a tuple space built afresh from the same state spaces, which
    # the product-form checks (partial_traj_const_sides) rely on.
    rng = random.Random(26)
    for _ in range(20):
        chain = random_chain(rng)
        factors = chain.prefix_space(chain.max_depth).factors
        for n in range(chain.max_depth + 1):
            space, fresh = chain.prefix_space(n), TupleSpace(chain.spaces[: n + 1])
            assert space == fresh and fresh == space and hash(space) == hash(fresh)
            assert space.factors is factors and space.components == chain.spaces[: n + 1]
            assert (space.length, space.size) == (n + 1, fresh.size)
            assert space.points() == fresh.points()
            for i, point in enumerate(fresh.points()):
                assert space.index_of(point) == i and space.point_at(i) == point
                assert space.label_at(i) == fresh.label_at(i) == fresh.format_point(point)
        assert chain.prefix_space(0) != chain.prefix_space(1)


# ---- partial trajectory kernels ----


def test_partial_traj_frozen_values(weather):
    row = weather.partial_traj(0, 2).row(("S",))
    # 3/4 * 3/4
    assert row.weight_at(("S", "S", "S")) == Rat(9, 16)
    # 3/4 * 3/4 + 1/4 * 1/2 in total on x_2 = S
    mass_s = sum(
        w for i, w in row.support() if row.space.point_at(i)[2] == "S"
    )
    assert mass_s == Rat(11, 16)


def test_advance_kernel_appends_the_step_state():
    # the prefix with index i followed by state s has index i * |X_{n+1}| + s
    chain = load_model(MODELS / "drift.json").chain
    for n in range(chain.max_depth):
        width = chain.spaces[n + 1].size
        kern = chain.advance_kernel(n)
        assert kern.target == chain.prefix_space(n + 1)
        for i, prefix in enumerate(chain.prefix_space(n).points()):
            assert set(kern.rows[i].support()) == {
                (i * width + s, w) for s, w in step_row(chain, n, prefix).support()
            }


def test_advance_kernel_is_the_one_step_partial_traj(weather):
    for n in range(weather.max_depth):
        kern = weather.advance_kernel(n)
        assert kern is weather.partial_traj(n, n + 1)
        for i in range(kern.source.size):
            assert kern.rows[i] is weather.partial_row(n, n + 1, i)
    for depth in (-1, weather.max_depth):
        with pytest.raises(DomainError):
            weather.advance_kernel(depth)


def test_marginal_builds_one_row_per_depth(monkeypatch):
    # From one prefix, each depth extends the row before it through the step
    # kernel: one Dist per depth, and no rows for prefixes the query never
    # reaches.  Every constructor of Dist (the dense one, from_support and
    # the internal integer one) stores through Dist._set, so this counts
    # every Dist built, whichever way.
    depth = 8
    chain = weather_chain(depth)
    store = Dist._set
    built = []

    def counted(self, space, *args):
        built.append(space)
        return store(self, space, *args)

    monkeypatch.setattr(Dist, "_set", counted)
    law = traj_marginal(chain, 0, ("S",), depth)
    assert 1 <= len(built) <= depth + 1
    assert law.space == chain.prefix_space(depth)


def test_partial_traj_restricts_when_not_deeper(weather):
    kern = weather.partial_traj(2, 1)
    assert kern.row(("S", "R", "S")) == dirac(weather.prefix_space(1), ("S", "R"))
    same = weather.partial_traj(2, 2)
    assert same.row(("S", "R", "S")) == dirac(
        weather.prefix_space(2), ("S", "R", "S")
    )


def test_partial_traj_is_memoized(weather):
    assert weather.partial_traj(0, 3) is weather.partial_traj(0, 3)


def test_partial_traj_depth_range(weather):
    with pytest.raises(DomainError):
        weather.partial_traj(0, 4)
    with pytest.raises(DomainError):
        weather.partial_traj(-1, 2)
    for a, b, index in ((0, 4, 0), (0, 1, 2), (1, 0, -1)):
        with pytest.raises(DomainError):
            weather.partial_row(a, b, index)


def test_partial_traj_matches_path_enumeration(weather):
    for a in range(4):
        for b in range(4):
            kern = weather.partial_traj(a, b)
            for i, prefix in enumerate(weather.prefix_space(a).points()):
                law = {
                    kern.target.point_at(j): w for j, w in kern.rows[i].support()
                }
                assert law == brute_force_prefix_law(weather, prefix, b)


def test_fast_paths_match_path_enumeration_on_deeper_chains():
    # Random chains of depth 6 and 7 (up to 3^8 = 6561 trajectories), one or
    # two depths past the acceptance pool.  Budget 60 s; about 0.5 s on a
    # 2-vCPU VM.
    start = time.perf_counter()
    rng = random.Random(2026)
    for depth in (6, 6, 6, 7, 7, 7):
        chain = random_chain(rng, depth=depth)
        for _ in range(8):
            a = rng.randint(0, 2)
            u = random_prefix(rng, chain, a)
            b = rng.randint(0, depth)
            law = traj_marginal(chain, a, u, b)
            assert {law.space.point_at(j): w for j, w in law.support()} == (
                brute_force_prefix_law(chain, u, b)
            )
            coords = rng.sample(range(depth + 1), rng.randint(1, 3))
            constraints = {
                i: rng.sample(chain.spaces[i].labels, rng.randint(1, chain.spaces[i].size))
                for i in coords
            }
            cyl = cylinder_from_constraints(chain, constraints)
            assert cylinder_content(chain, a, u, cyl) == brute_force_content(
                chain, u, constraints
            )
        for _ in range(3):
            a, b = rng.randint(0, depth), rng.randint(0, depth)
            kern = chain.partial_traj(a, b)
            assert all(
                kern.rows[i] is chain.partial_row(a, b, i)
                for i in range(kern.source.size)
            )
        u = random_prefix(rng, chain, 1)
        family = random_nested_family(rng, chain, u)
        law = brute_force_prefix_law(chain, u, depth)
        eps = min(sum(w for t, w in law.items() if t in c) for c in family)
        witness = extract_witness(chain, 1, u, family, eps)
        assert witness[:2] == u
        assert all(witness in c for c in family)
    assert time.perf_counter() - start < 60


def three_state_chain(rng: random.Random, depth: int) -> ChainModel:
    """Random chain with three states at every depth."""
    spaces = [FiniteSpace(f"X{i}", ["a", "b", "c"]) for i in range(depth + 1)]
    steps = [[random_dist(rng, spaces[n + 1]) for _ in range(3 ** (n + 1))] for n in range(depth)]
    return ChainModel(spaces, steps)


def test_queries_match_path_enumeration_at_depth_8():
    # Four random chains of depth 8 (up to 3^9 = 19683 trajectories) and a
    # three-state chain of depth 6 (2187), against the path-enumeration
    # oracles.  Budget 60 s; about 1 s on a 2-vCPU VM.
    start = time.perf_counter()
    rng = random.Random(8080)
    chains = [random_chain(rng, depth=8) for _ in range(4)]
    chains.append(three_state_chain(rng, 6))
    for chain in chains:
        depth = chain.max_depth
        for _ in range(4):
            a = rng.randint(0, 2)
            u = random_prefix(rng, chain, a)
            b = rng.randint(0, depth)
            law = traj_marginal(chain, a, u, b)
            assert {law.space.point_at(j): w for j, w in law.support()} == (
                brute_force_prefix_law(chain, u, b)
            )
            coords = rng.sample(range(depth + 1), rng.randint(1, 3))
            constraints = {
                i: rng.sample(chain.spaces[i].labels, rng.randint(1, chain.spaces[i].size))
                for i in coords
            }
            cyl = cylinder_from_constraints(chain, constraints)
            assert cylinder_content(chain, a, u, cyl) == brute_force_content(
                chain, u, constraints
            )

        # expectation_table: a nonnegative table on depth-b prefixes.
        a = rng.randint(0, 2)
        b = rng.randint(a, depth)
        f = {p: Rat(rng.randint(0, 9), rng.randint(1, 6)) for p in chain.prefix_space(b).points()}
        table = expectation_table(chain, a, b, f)
        for p in chain.prefix_space(a).points():
            law = brute_force_prefix_law(chain, p, b)
            assert table[p] == sum((w * f[t] for t, w in law.items()), Rat(0))

        # cond_exp: a signed integrand in [-9, 9] on full trajectories.
        b = rng.randint(0, depth)
        g = {
            t: Rat(rng.randint(-9, 9), rng.randint(1, 6))
            for t in chain.prefix_space(depth).points()
        }
        table = cond_exp(chain, b, g)
        for p in chain.prefix_space(b).points():
            law = brute_force_prefix_law(chain, p, depth)
            assert table[p] == sum((w * g[t] for t, w in law.items()), Rat(0))

        # comp_kernel of two partial-trajectory kernels.
        a, b, c = sorted(rng.randint(0, depth) for _ in range(3))
        composed = comp_kernel(chain.partial_traj(a, b), chain.partial_traj(b, c))
        for i, p in enumerate(chain.prefix_space(a).points()):
            row = composed.rows[i]
            assert {row.space.point_at(j): w for j, w in row.support()} == (
                brute_force_prefix_law(chain, p, c)
            )
    assert time.perf_counter() - start < 60


def test_deep_chains_stay_within_the_recursion_limit():
    one = FiniteSpace("X", ["a"])
    chain = const_chain([dirac(one, "a")] * 1500)
    assert traj_marginal(chain, 0, ("a",), 1499).support() == ((0, Rat(1)),)


def test_partial_traj_matches_path_enumeration_random():
    rng = random.Random(314)
    for _ in range(10):
        chain = random_chain(rng)
        a = rng.randint(0, chain.max_depth)
        b = rng.randint(0, chain.max_depth)
        kern = chain.partial_traj(a, b)
        for i, prefix in enumerate(chain.prefix_space(a).points()):
            law = {kern.target.point_at(j): w for j, w in kern.rows[i].support()}
            assert law == brute_force_prefix_law(chain, prefix, b)


# ---- integration and sampling ----


def test_expectation_table_frozen(weather):
    table = expectation_table(weather, 0, 1, lambda p: 1 if p[1] == "S" else 0)
    assert table[("S",)] == Rat(3, 4)
    assert table[("R",)] == Rat(1, 2)


def test_expectation_table_is_keyed_by_the_listed_points(weather):
    # The keys are the very tuples of the cached `points()`, so the tables
    # that `verify` keeps per depth hold no copy of the prefixes.
    for a in range(weather.max_depth + 1):
        points = weather.prefix_space(a).points()
        table = expectation_table(weather, a, weather.max_depth, lambda p: 1)
        assert len(table) == len(points)
        assert all(key is point for key, point in zip(table, points))


def test_expectation_table_accepts_tables_and_signed_integrands(weather):
    space = weather.prefix_space(1)
    by_point = {p: Rat(space.index_of(p), 4) for p in space.points()}
    assert expectation_table(weather, 0, 1, by_point) == expectation_table(
        weather, 0, 1, lambda p: by_point[p]
    )
    # from S: 3/4 * (-1) + 1/4 * 2; from R: 1/2 * (-1) + 1/2 * 2
    signed = lambda p: -1 if p[1] == "S" else 2
    assert expectation_table(weather, 0, 1, signed) == {
        ("S",): Rat(-1, 4), ("R",): Rat(1, 2),
    }
    assert cond_exp(weather, 0, signed) == expectation_table(weather, 0, 3, signed)
    with pytest.raises(DomainError):
        expectation_table(weather, 1, 0, lambda p: 0)


def test_expectation_table_semigroup(weather):
    for a in range(4):
        for b in range(a, 4):
            for c in range(b, 4):
                fc = lambda p: Rat(
                    weather.prefix_space(c).index_of(p), weather.prefix_space(c).size
                )
                staged = expectation_table(weather, a, b, expectation_table(weather, b, c, fc))
                assert staged == expectation_table(weather, a, c, fc)


def test_traj_marginal_is_partial_row(weather):
    assert traj_marginal(weather, 0, ("S",), 3) == weather.partial_traj(0, 3).row(("S",))
    with pytest.raises(DomainError):
        traj_marginal(weather, 0, ("S", "R"), 3)


def test_sample_trajectory_extends_prefix(weather):
    rng = random.Random(0)
    traj = sample_trajectory(weather, ("S", "R"), rng)
    assert len(traj) == 4
    assert traj[:2] == ("S", "R")


def test_sample_trajectory_deterministic(weather):
    runs = [
        [sample_trajectory(weather, ("S",), random.Random(9)) for _ in range(5)]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def _reference_walk(chain: ChainModel, prefix: tuple, rng) -> tuple:
    """One draw the plain way: the step row of the whole prefix, then
    randrange below its denominator, looked up among the cumulative
    numerators of its support."""
    p = tuple(prefix)
    for n in range(len(p) - 1, chain.max_depth):
        row = step_row(chain, n, p)
        support = row.support()
        cumulative = list(itertools.accumulate(w * row._denom for _, w in support))
        k = bisect.bisect_right(cumulative, rng.randrange(row._denom))
        p = p + (row.space.point_at(support[k][0]),)
    return p


class _BitsOnly:
    """A generator with nothing but `getrandbits`, the one method a draw calls."""

    __slots__ = ("getrandbits",)

    def __init__(self, seed: int):
        self.getrandbits = random.Random(seed).getrandbits


def test_sample_trajectory_matches_a_reference_walk():
    # The shipped chains and a deep random chain (500 trajectories per
    # start), and 100 random model documents with markov_from anywhere in
    # 0..D (50 per start), each started from a prefix at every depth: the
    # trajectories are the reference walk's, the rng ends in the
    # reference's state, a depth-D start draws nothing, and a bare
    # getrandbits gives the same stream.
    rng = random.Random(88)
    chains = [
        (load_model(MODELS / "weather.json").chain, 500),
        (random_chain(rng, depth=8), 500),
        (load_model(MODELS / "coin.json").chain, 500),  # a product
        (load_model(MODELS / "drift.json").chain, 500),  # table steps
    ]
    chains += [(model_from_dict(random_model_doc(rng)).chain, 50) for _ in range(100)]
    where = set()
    for chain, count in chains:
        depth = chain.max_depth
        where.add(min(chain.markov_from, 1) + (chain.markov_from == depth))
        for a in range(depth + 1):
            prefix = random_prefix(rng, chain, a)
            seed = rng.randrange(1 << 30)
            fast, slow = random.Random(seed), random.Random(seed)
            draws = [sample_trajectory(chain, prefix, fast) for _ in range(count)]
            assert draws == [_reference_walk(chain, prefix, slow) for _ in range(count)]
            assert fast.getstate() == slow.getstate()
            if a == depth:
                assert draws == [prefix] * count
                assert fast.getstate() == random.Random(seed).getstate()
            bits = _BitsOnly(seed)
            assert [sample_trajectory(chain, prefix, bits) for _ in range(count)] == draws
    assert where == {0, 1, 2}  # markov_from = 0, inside 1..D-1, and = D


def test_sample_trajectory_draws_once_per_step(monkeypatch):
    # The traced benchmark counts sampler draws by wrapping Dist.sample, so
    # each drawn step must go through it, once.
    draw = Dist.sample
    calls = []

    def counted(row, rng):
        calls.append(row)
        return draw(row, rng)

    monkeypatch.setattr(Dist, "sample", counted)
    rng = random.Random(4)
    chains = (
        load_model(MODELS / "weather.json").chain,
        load_model(MODELS / "drift.json").chain,  # 0 < markov_from < D
        random_chain(rng, depth=6),
    )
    for chain in chains:
        for a in range(chain.max_depth + 1):
            prefix = random_prefix(rng, chain, a)
            del calls[:]
            traj = sample_trajectory(chain, prefix, rng)
            assert len(calls) == chain.max_depth - a
            # the row drawn at depth n is the step row of the prefix so far
            assert calls == [step_row(chain, n, traj[: n + 1]) for n in range(a, chain.max_depth)]


def test_sample_trajectory_rejects_a_bad_start(weather):
    rng = random.Random(1)
    state = rng.getstate()
    bad = ((), ("S",) * (weather.max_depth + 2), ("S", "X"), ("S", ["R"]), "SR", "S")
    for prefix in bad:
        with pytest.raises(DomainError):
            sample_trajectory(weather, prefix, rng)
    assert rng.getstate() == state


def test_sample_trajectory_avoids_zero_weight_states():
    # step 0 sends "a" to "b" with probability 1
    x = FiniteSpace("X", ["a", "b"])
    chain = ChainModel([x, x], [[dirac(x, "b"), uniform(x)]])
    rng = random.Random(3)
    assert all(sample_trajectory(chain, ("a",), rng) == ("a", "b") for _ in range(50))


def _prefix_entry_points(chain: ChainModel) -> dict:
    """Each public query that takes a prefix, called with the given depth-1
    prefix of the depth-3 weather chain."""
    cyl = cylinder_from_constraints(chain, {3: ["R"]})
    table = cond_exp(chain, 2, cyl)
    return {
        "traj_marginal": lambda p: traj_marginal(chain, 1, p, 2),
        "cylinder_content": lambda p: cylinder_content(chain, 1, p, cyl),
        "content_at_depth": lambda p: content_at_depth(chain, 1, p, cyl, 3),
        "extract_witness": lambda p: extract_witness(chain, 1, p, [cyl], "1/100"),
        "cond_exp_sides": lambda p: cond_exp_sides(chain, 1, p, 2, cyl, table),
        "cylinder": lambda p: cylinder(chain, 1, [p]),
        "sample_trajectory": lambda p: sample_trajectory(chain, p, random.Random(5)),
    }


@pytest.mark.parametrize("entry", sorted(_prefix_entry_points(weather_chain())))
def test_prefix_arguments_take_only_a_tuple_or_list(entry):
    # A prefix is a tuple or list of labels, the rule of `in` on a
    # cylinder: "SR" is not split into ("S", "R"), and no other iterable
    # or object is read as one.
    call = _prefix_entry_points(load_model(MODELS / "weather.json").chain)[entry]
    assert call(["S", "R"]) == call(("S", "R"))
    for bad in ("SR", iter(("S", "R")), {0: "S", 1: "R"}, b"SR", None, 7):
        with pytest.raises(DomainError):
            call(bad)


def test_a_prefix_of_the_wrong_length_is_named_with_its_lengths():
    # A prefix whose length is not a + 1 for an explicit depth a is
    # reported by the prefix, its length and the expected length, never by
    # the prefix space, whose text grows with the depth.
    drift = load_model(MODELS / "drift.json").chain
    with pytest.raises(DomainError) as info:
        traj_marginal(drift, 1, ("L",), 2)
    assert str(info.value) == "prefix ('L',) has length 1, expected 2 for depth 1"
    weather = _prefix_entry_points(weather_chain())
    for name, call in weather.items():
        if name != "sample_trajectory":  # a prefix of any depth extends
            with pytest.raises(DomainError) as info:
                call(["S", "R", "S"])
            assert str(info.value) == "prefix ('S', 'R', 'S') has length 3, expected 2 for depth 1"
    deep = doc_chain(weather_doc(19))
    cyl = cylinder_from_constraints(deep, {19: ["R"]})
    for call in (lambda p: traj_marginal(deep, 18, p, 19),
                 lambda p: cylinder_content(deep, 18, p, cyl)):
        with pytest.raises(DomainError) as info:
            call(("S", "R", "S"))
        assert str(info.value) == "prefix ('S', 'R', 'S') has length 3, expected 19 for depth 18"


def _depth_entry_points(chain: ChainModel) -> dict:
    """Each entry point that takes a depth or a prefix index, called on the
    depth-3 weather chain with the given value in place of a valid 1."""
    cyl = cylinder_from_constraints(chain, {1: ["R"]})
    deep = cylinder_from_constraints(chain, {3: ["R"]})
    marginals = [uniform(chain.spaces[0])] * 4
    const = const_chain(marginals)
    return {
        "prefix_space": lambda d: chain.prefix_space(d),
        "advance_kernel": lambda d: chain.advance_kernel(d),
        "partial_row": lambda d: chain.partial_row(0, d, 0),
        "partial_row index": lambda d: chain.partial_row(0, 1, d),
        "partial_traj": lambda d: chain.partial_traj(0, d),
        "traj_marginal": lambda d: traj_marginal(chain, 0, ("S",), d),
        "traj_marginal start": lambda d: traj_marginal(chain, d, ("S", "R"), 2),
        "cylinder_content": lambda d: cylinder_content(chain, d, ("S", "R"), cyl),
        "content_at_depth": lambda d: content_at_depth(chain, 0, ("S",), cyl, d),
        "extract_witness": lambda d: extract_witness(chain, d, ("S", "S"), [deep], "1/100"),
        "lift_cylinder": lambda d: lift_cylinder(chain, cyl, d),
        "cylinder": lambda d: cylinder(chain, d, [("S", "R")]),
        "cond_exp": lambda d: cond_exp(chain, d, cyl),
        "expectation_table": lambda d: expectation_table(chain, 0, d, lambda t: 1),
        "cond_exp_sides": lambda d: cond_exp_sides(
            chain, 0, ("S",), d, cyl, cond_exp(chain, 1, cyl)),
        "traj_split_sides": lambda d: traj_split_sides(chain, 0, d),
        "partial_traj_const_sides": lambda d: partial_traj_const_sides(const, marginals, 0, d),
        "product_split_sides": lambda d: product_split_sides(marginals, 0, d),
        "product_projection_sides": lambda d: product_projection_sides(marginals, 0, d),
        "product_prefix_dist": lambda d: product_prefix_dist(marginals, d),
    }


@pytest.mark.parametrize("entry", sorted(_depth_entry_points(weather_chain())))
def test_a_depth_or_index_that_is_not_an_int_is_a_domain_error(entry):
    # Each call is made with 1 first, so a float equal to it is rejected
    # even where the answer for 1 is memoized.
    call = _depth_entry_points(weather_chain())[entry]
    call(1)
    for bad in (1.0, "1", None, True):
        with pytest.raises(DomainError):
            call(bad)


# ---- cylinders ----


def test_cylinder_from_constraints(weather):
    cyl = cylinder_from_constraints(weather, {1: ["S"]})
    assert cyl.depth == 1
    assert set(cyl.base.points()) == {("S", "S"), ("R", "S")}
    with pytest.raises(DomainError):
        cylinder_from_constraints(weather, {})
    with pytest.raises(DomainError):
        cylinder_from_constraints(weather, {4: ["S"]})
    with pytest.raises(DomainError):
        cylinder_from_constraints(weather, {1: ["Q"]})
    # An allowed set is a list, tuple or set of labels, and a coordinate is
    # an int: "SR" is not split into {S, R}.
    both = cylinder_from_constraints(weather, {1: ["S", "R"]})
    assert cylinder_from_constraints(weather, {1: ("S", "R")}) == both
    assert cylinder_from_constraints(weather, {1: {"S", "R"}}) == both
    for bad in ({1: "SR"}, {1: "S"}, {1: ["SR"]}, {"1": ["S"]}, {1.0: ["S"]},
                {None: ["S"]}, {1: ["S"], "2": ["R"]}):
        with pytest.raises(DomainError):
            cylinder_from_constraints(weather, bad)


def test_cylinder_membership(weather):
    cyl = cylinder(weather, 1, [("S", "S")])
    assert ("S", "S", "R", "R") in cyl
    assert ("R", "S", "S", "S") not in cyl
    # what cannot be indexed is no member, rather than a TypeError
    assert 5 not in cyl
    assert None not in cyl


def test_membership_tries_each_box_on_its_own(weather):
    # ("S", "Q", "R") fails b1 on the unknown label Q and lies in b2, so it
    # is a member of the union whichever box comes first.
    b1 = cylinder_from_constraints(weather, {1: ["S"], 2: ["S"]})
    b2 = cylinder_from_constraints(weather, {2: ["R"]})
    forward = disjoint_union_cylinders(weather, [b1, b2])
    backward = disjoint_union_cylinders(weather, [b2, b1])
    assert forward == backward
    assert ("S", "Q", "R") in forward
    assert ("S", "Q", "R") in backward
    assert ("S", "Q", "S") not in forward
    assert ("S", "S") not in forward  # coordinate 2 missing, from every box


def test_ring_operations_read_the_boxes_without_lifting(weather, monkeypatch):
    import markovtraj.trajectory

    def refuse(*args):
        raise AssertionError("a ring operation lifted a cylinder")

    monkeypatch.setattr(markovtraj.trajectory, "lift_cylinder", refuse)
    outer = cylinder_from_constraints(weather, {1: ["S"]})
    inner = cylinder_from_constraints(weather, {1: ["S"], 2: ["S"]})
    met = intersect_cylinders(weather, outer, cylinder_from_constraints(weather, {2: ["S"]}))
    assert met == inner
    union = disjoint_union_cylinders(weather, [cylinder_from_constraints(weather, {1: ["R"]}), inner])
    assert (union.depth, len(union)) == (2, 4 + 2)
    assert extract_witness(weather, 0, ("S",), [outer, inner], "1/2") == ("S", "S", "S")


def test_cylinder_depth_must_match_its_space(weather):
    w = FiniteSpace("W", ["S", "R"])
    space = TupleSpace([w, w])
    point = ((0, frozenset({0})), (1, frozenset({0})))
    # the depth is read from the space, so it cannot disagree with it
    cyl = Cylinder(space, (point,))
    assert cyl.depth == 1
    assert cyl.base == SubsetOf(space, [space.index_of(("S", "S"))])
    # In order, {x1=R, x3=S} has content 0 from S|S|S.  Out of order, the
    # content would stop reading at coordinate 3 and give 3/4; and a box
    # that constrains x1 twice, which allows nothing, would count 4
    # prefixes and give content 3/4 from S.
    deep = weather.prefix_space(3)
    in_order = Cylinder(deep, (((1, frozenset({1})), (3, frozenset({0}))),))
    assert cylinder_content(weather, 2, ("S", "S", "S"), in_order) == 0
    # boxes must constrain coordinates of the space, strictly increasing, to
    # nonempty frozensets of state indices, on a space of state spaces
    for box_space, box in (
        (space, ((2, frozenset({0})),)),
        (space, ((1, frozenset({2})),)),
        (space, ((1, frozenset()),)),
        (space, ((1, [0]),)),
        (space, ((1, "0"),)),
        (space, ((1, frozenset({"S"})),)),
        (deep, ((3, frozenset({0})), (1, frozenset({1})))),
        (deep, ((1, frozenset({1})), (1, frozenset({0})))),
        (TupleSpace([w, space]), ((0, frozenset({0})),)),
    ):
        with pytest.raises(DomainError):
            Cylinder(box_space, (box,))


def test_lift_preserves_the_set(weather):
    cyl = cylinder_from_constraints(weather, {1: ["S"]})
    lifted = lift_cylinder(weather, cyl, 2)
    assert set(lifted.base.points()) == {
        ("S", "S", "S"), ("S", "S", "R"), ("R", "S", "S"), ("R", "S", "R"),
    }
    assert lift_cylinder(weather, cyl, 1) is cyl
    with pytest.raises(DomainError):
        lift_cylinder(weather, cyl, 0)


def test_intersect_cylinders_frozen(weather):
    met = intersect_cylinders(
        weather,
        cylinder_from_constraints(weather, {1: ["S"]}),
        cylinder_from_constraints(weather, {2: ["S"]}),
    )
    assert met.depth == 2
    assert set(met.base.points()) == {("S", "S", "S"), ("R", "S", "S")}


def test_disjoint_union(weather):
    parts = [
        cylinder_from_constraints(weather, {1: ["S"]}),
        cylinder_from_constraints(weather, {1: ["R"], 2: ["S"]}),
    ]
    union = disjoint_union_cylinders(weather, parts)
    assert len(union) == 4 + 2
    with pytest.raises(PreconditionError):
        disjoint_union_cylinders(
            weather,
            [parts[0], cylinder_from_constraints(weather, {2: ["S"]})],
        )


def test_ring_operations_respect_content(weather):
    # content(first) splits as content(first minus second) + content(both),
    # and union = disjoint union of (first minus second) with second
    first = cylinder_from_constraints(weather, {1: ["S"]})
    second = cylinder_from_constraints(weather, {2: ["S"]})
    start = ("S",)
    both = intersect_cylinders(weather, first, second)
    rest = cylinder_from_constraints(weather, {1: ["S"], 2: ["R"]})
    assert cylinder_content(weather, 0, start, first) == cylinder_content(
        weather, 0, start, rest
    ) + cylinder_content(weather, 0, start, both)
    rebuilt = disjoint_union_cylinders(weather, [rest, second])
    assert set(rebuilt.base.points()) == {
        ("S", "S", "S"), ("S", "S", "R"), ("R", "S", "S"), ("R", "S", "R"),
        ("S", "R", "S"), ("R", "R", "S"),
    }


# ---- content ----


def test_content_frozen_values(weather):
    cyl = cylinder_from_constraints(weather, {1: ["S"]})
    assert cylinder_content(weather, 0, ("S",), cyl) == Rat(3, 4)
    both = cylinder_from_constraints(weather, {1: ["S"], 2: ["S"]})
    # 3/4 * 3/4
    assert cylinder_content(weather, 0, ("S",), both) == Rat(9, 16)


def test_content_independent_of_depth(weather):
    cyl = cylinder_from_constraints(weather, {1: ["S"]})
    value = cylinder_content(weather, 0, ("S",), cyl)
    for depth in range(1, 4):
        assert content_at_depth(weather, 0, ("S",), cyl, depth) == value
    with pytest.raises(DomainError):
        content_at_depth(weather, 2, ("S", "S", "R"), cyl, 1)
    # a depth past the model's is refused by name, not by an IndexError
    with pytest.raises(DomainError, match=r"depth 4 outside 0\.\.3"):
        content_at_depth(weather, 0, ("S",), cyl, 4)


def test_content_matches_path_enumeration():
    rng = random.Random(1001)
    for _ in range(10):
        chain = random_chain(rng)
        a = rng.randint(0, chain.max_depth)
        start = random_prefix(rng, chain, a)
        coord = rng.randint(0, chain.max_depth)
        allowed = [rng.choice(chain.spaces[coord].labels)]
        cyl = cylinder_from_constraints(chain, {coord: allowed})
        assert cylinder_content(chain, a, start, cyl) == brute_force_content(
            chain, start, {coord: set(allowed)}
        )


def test_content_of_past_coordinates_is_an_indicator(weather):
    cyl = cylinder_from_constraints(weather, {0: ["S"]})
    assert cylinder_content(weather, 1, ("S", "R"), cyl) == 1
    assert cylinder_content(weather, 1, ("R", "R"), cyl) == 0


def test_check_content_additivity(weather):
    # content adds up over a disjoint family; an overlapping family is refused
    parts = [
        cylinder_from_constraints(weather, {1: ["S"]}),
        cylinder_from_constraints(weather, {1: ["R"], 2: ["S"]}),
        cylinder_from_constraints(weather, {1: ["R"], 2: ["R"]}),
    ]
    union = disjoint_union_cylinders(weather, parts)
    total = sum((cylinder_content(weather, 0, ("S",), c) for c in parts), Rat(0))
    assert total == cylinder_content(weather, 0, ("S",), union) == 1
    with pytest.raises(PreconditionError):
        disjoint_union_cylinders(weather, [parts[0], parts[0]])


# ---- conditional expectation and splitting ----


def test_cond_exp_frozen(weather):
    f = lambda traj: 1 if traj[2] == "S" else 0
    table = cond_exp(weather, 1, f)
    assert table[("S", "S")] == Rat(3, 4)
    assert table[("S", "R")] == Rat(1, 2)


def test_cond_exp_matches_path_enumeration():
    rng = random.Random(77)
    chain = random_chain(rng, depth=3)
    space_d = chain.prefix_space(3)
    f = {p: Rat(rng.randint(-5, 5), rng.randint(1, 4)) for p in space_d.points()}
    table = cond_exp(chain, 2, f)
    for p in chain.prefix_space(2).points():
        law = brute_force_prefix_law(chain, p, 3)
        assert table[p] == sum((w * f[t] for t, w in law.items()), Rat(0))


def test_cond_exp_keys_come_in_enumeration_order():
    # `condexp` writes cond_exp's table by position, so its keys are the
    # depth-b prefixes in points() order, for a cylinder (one box or many)
    # and for a callable, on the acceptance tests' pool of random chains.
    rng = random.Random(20260815)
    for chain in [random_chain(rng) for _ in range(100)]:
        depth = chain.max_depth
        coords = rng.sample(range(depth + 1), rng.randint(1, depth + 1))
        constraints = {
            k: rng.sample(chain.spaces[k].labels, rng.randint(1, chain.spaces[k].size))
            for k in coords
        }
        k = rng.randint(0, depth)
        points = chain.prefix_space(k).points()
        f = {t: Rat(rng.randint(-9, 9), rng.randint(1, 6))
             for t in chain.prefix_space(depth).points()}
        integrands = [
            cylinder_from_constraints(chain, constraints),
            cylinder(chain, k, rng.sample(points, rng.randint(1, len(points)))),
            f.__getitem__,
        ]
        for b in range(depth + 1):
            order = list(chain.prefix_space(b).points())
            for g in integrands:
                assert list(cond_exp(chain, b, g)) == order


def test_check_cond_exp(weather):
    space_d = weather.prefix_space(3)
    f = lambda traj: Rat(space_d.index_of(traj), 7)
    for b in range(4):
        for a in range(b + 1):
            for u in weather.prefix_space(a).points():
                assert check_cond_exp(weather, a, u, b, f)
    with pytest.raises(DomainError):
        check_cond_exp(weather, 2, ("S", "S", "S"), 1, f)


def test_check_traj_split(weather):
    for b in range(4):
        for a in range(b + 1):
            assert check_traj_split(weather, a, b)
    with pytest.raises(DomainError):
        check_traj_split(weather, 2, 1)


def test_checks_hold_on_random_models():
    rng = random.Random(555)
    for _ in range(5):
        chain = random_chain(rng)
        space_d = chain.prefix_space(chain.max_depth)
        f = {
            p: Rat(rng.randint(-6, 6), rng.randint(1, 3)) for p in space_d.points()
        }
        b = rng.randint(0, chain.max_depth)
        a = rng.randint(0, b)
        u = random_prefix(rng, chain, a)
        assert check_cond_exp(chain, a, u, b, f)
        assert check_traj_split(chain, a, b)
