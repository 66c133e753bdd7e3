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
    sample_trajectory,
    traj_marginal,
    uniform,
)

from conftest import (
    brute_force_content,
    brute_force_prefix_law,
    random_chain,
    random_dist,
    random_nested_family,
    random_prefix,
    weather_chain,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


# ---- model construction ----


def test_chain_validates_steps():
    w = FiniteSpace("W", ["S", "R"])
    with pytest.raises(DomainError):
        ChainModel([w, w], [])  # one step missing
    with pytest.raises(DomainError):
        ChainModel([w, w], [[uniform(w)] * 3])  # two depth-0 prefixes, three rows
    other = FiniteSpace("X", ["a", "b"])
    with pytest.raises(DomainError):
        ChainModel([w, w], [[uniform(w), uniform(other)]])  # a row off X_1
    with pytest.raises(DomainError):
        ChainModel([w, w], [weather_chain(1).steps[0]])  # a Kernel, not its rows
    # State spaces must be FiniteSpaces: a product of them, or a string,
    # would fail only later, in the queries that read its labels.
    pair = TupleSpace([w, w])
    with pytest.raises(DomainError):
        ChainModel([pair, pair], [[uniform(pair)] * 4])
    with pytest.raises(DomainError):
        ChainModel(["ab"], [])


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
        for i, step_row in enumerate(chain.steps[n].rows):
            assert set(kern.rows[i].support()) == {
                (i * width + s, w) for s, w in step_row.support()
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
        row = chain.steps[n].row(p)
        support = row.support()
        cumulative = list(itertools.accumulate(w * row._denom for _, w in support))
        k = bisect.bisect_right(cumulative, rng.randrange(row._denom))
        p = p + (row.space.point_at(support[k][0]),)
    return p


def test_sample_trajectory_matches_a_reference_walk():
    rng = random.Random(88)
    chains = [
        load_model(MODELS / "weather.json").chain,
        random_chain(rng, depth=8),
        load_model(MODELS / "coin.json").chain,  # a product
        load_model(MODELS / "drift.json").chain,  # table steps
    ]
    for chain in chains:
        for a in (0, 1, 2):
            prefix = random_prefix(rng, chain, a)
            fast, slow = random.Random(a + 5), random.Random(a + 5)
            draws = [sample_trajectory(chain, prefix, fast) for _ in range(500)]
            assert draws == [_reference_walk(chain, prefix, slow) for _ in range(500)]
            assert fast.random() == slow.random()


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
    for chain in (load_model(MODELS / "weather.json").chain, random_chain(rng, depth=6)):
        for a in range(chain.max_depth + 1):
            prefix = random_prefix(rng, chain, a)
            del calls[:]
            traj = sample_trajectory(chain, prefix, rng)
            assert len(calls) == chain.max_depth - a
            # the row drawn at depth n is the step row of the prefix so far
            assert calls == [chain.steps[n].row(traj[: n + 1]) for n in range(a, chain.max_depth)]


def test_sample_trajectory_rejects_a_bad_start(weather):
    rng = random.Random(1)
    state = rng.getstate()
    for prefix in ((), ("S",) * (weather.max_depth + 2), ("S", "X"), ("S", ["R"])):
        with pytest.raises(DomainError):
            sample_trajectory(weather, prefix, rng)
    assert rng.getstate() == state


def test_sample_trajectory_avoids_zero_weight_states():
    # step 0 sends "a" to "b" with probability 1
    x = FiniteSpace("X", ["a", "b"])
    chain = ChainModel([x, x], [[dirac(x, "b"), uniform(x)]])
    rng = random.Random(3)
    assert all(sample_trajectory(chain, ("a",), rng) == ("a", "b") for _ in range(50))


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
