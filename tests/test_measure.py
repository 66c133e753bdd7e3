import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovtraj import (
    Dist,
    DomainError,
    FiniteSpace,
    Rat,
    SubsetOf,
    TupleSpace,
    dirac,
    product_dist,
    pushforward_dist,
    uniform,
)
from markovtraj.measure import labels_at


def w_space():
    return FiniteSpace("W", ["S", "R"])


# ---- spaces ----


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(DomainError):
        FiniteSpace("X", ["a", "a"])
    with pytest.raises(DomainError):
        FiniteSpace("X", [])


def test_space_index_roundtrip():
    space = FiniteSpace("X", ["a", "b", "c"])
    for i, p in enumerate(space.points()):
        assert space.index_of(p) == i
        assert space.point_at(i) == p
    assert "b" in space
    assert "z" not in space
    with pytest.raises(DomainError):
        space.index_of("z")


def test_spaces_compare_structurally():
    assert FiniteSpace("X", ["a", "b"]) == FiniteSpace("Y", ["a", "b"])
    assert FiniteSpace("X", ["a", "b"]) != FiniteSpace("X", ["b", "a"])


def test_tuple_space_enumeration_is_lexicographic():
    ab = FiniteSpace("A", ["a", "b"])
    xyz = FiniteSpace("B", ["x", "y", "z"])
    space = TupleSpace([ab, xyz])
    assert space.points() == (
        ("a", "x"), ("a", "y"), ("a", "z"),
        ("b", "x"), ("b", "y"), ("b", "z"),
    )
    assert space.size == 6
    assert space.format_point(("b", "y")) == "b|y"


@given(st.data())
@settings(deadline=None)
def test_tuple_space_index_roundtrip(data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    comps = [
        FiniteSpace(f"X{i}", [f"s{j}" for j in range(n)]) for i, n in enumerate(sizes)
    ]
    space = TupleSpace(comps)
    index = data.draw(st.integers(0, space.size - 1))
    point = space.point_at(index)
    assert space.index_of(point) == index
    # once the enumeration is built, point_at reads it
    assert space.points()[index] == point == space.point_at(index)


@st.composite
def spaces(draw, depth=0):
    """A finite space, or a tuple space of them, nested up to two levels."""
    if depth < 2 and draw(st.booleans()):
        comps = draw(st.lists(spaces(depth + 1), max_size=3))
        return TupleSpace(comps)
    size = draw(st.integers(1, 3))
    return FiniteSpace(f"X{depth}", [f"s{depth}{j}" for j in range(size)])


@given(spaces(), st.data())
@settings(deadline=None)
def test_labels_at_matches_format_point(space, data):
    # Sparse and dense runs of sorted indices, on nested and empty tuple
    # spaces, render as format_point does point by point.
    indices = sorted(data.draw(st.sets(st.integers(0, space.size - 1), max_size=40)))
    assert list(labels_at(space, indices)) == [
        space.format_point(space.point_at(i)) for i in indices
    ]


def test_empty_tuple_space_is_a_point():
    space = TupleSpace(())
    assert space.size == 1
    assert space.points() == ((),)
    assert space.index_of(()) == 0


def test_tuple_space_rejects_foreign_points():
    space = TupleSpace([w_space()])
    with pytest.raises(DomainError):
        space.index_of(("S", "S"))
    with pytest.raises(DomainError):
        space.index_of("S")


# ---- subsets ----


def test_subset_membership():
    space = w_space()
    sub = SubsetOf.from_points(space, ["R"])
    assert "R" in sub
    assert "S" not in sub
    assert len(sub) == 1
    assert sub.points() == ("R",)


def test_subset_rejects_bad_indices():
    with pytest.raises(DomainError):
        SubsetOf(w_space(), [2])


# ---- distributions ----


def test_dist_validates_weights():
    space = w_space()
    with pytest.raises(DomainError):
        Dist(space, [Rat(1, 2), Rat(1, 4)])  # sums to 3/4
    with pytest.raises(DomainError):
        Dist(space, [Rat(3, 2), Rat(-1, 2)])  # negative entry
    with pytest.raises(DomainError):
        Dist(space, [Rat(1)])  # wrong length


def test_dist_accepts_rational_strings():
    d = Dist(w_space(), ["3/4", "1/4"])
    assert d.weight_at("S") == Rat(3, 4)


def test_from_support_matches_dense_and_drops_zeros():
    space = FiniteSpace("X", ["a", "b", "c"])
    dense = Dist(space, ["1/2", "0", "1/2"])
    sparse = Dist.from_support(space, [(0, Rat(1, 2)), (1, Rat(0)), (2, Rat(1, 2))])
    assert dense == sparse
    assert sparse.support() == ((0, Rat(1, 2)), (2, Rat(1, 2)))
    assert hash(dense) == hash(sparse)


def test_from_support_validates():
    space = w_space()
    with pytest.raises(DomainError):
        Dist.from_support(space, [(0, Rat(1, 2))])
    with pytest.raises(DomainError):
        Dist.from_support(space, [(0, Rat(3, 2)), (1, Rat(-1, 2))])
    with pytest.raises(DomainError):
        Dist.from_support(space, [(-1, Rat(1))])  # would alias the last state
    with pytest.raises(DomainError):
        Dist.from_support(space, [(space.size, Rat(1))])
    with pytest.raises(DomainError):
        Dist.from_support(space, [(0, Rat(1, 2)), (0, Rat(1, 2))])


def test_from_support_stores_only_the_support():
    # 2^40 points: any storage proportional to the space could not be built
    space = TupleSpace([FiniteSpace("B", ["0", "1"])] * 40)
    d = Dist.from_support(space, [(0, Rat(1, 3)), (space.size - 1, Rat(2, 3))])
    assert d.weight_at(("1",) * 40) == Rat(2, 3)
    assert d.weight_at(("0",) * 39 + ("1",)) == 0
    assert d.mass(SubsetOf(space, [0, 1, 2])) == Rat(1, 3)


def test_mass_requires_same_space():
    d = uniform(w_space())
    other = SubsetOf.from_points(FiniteSpace("X", ["a"]), ["a"])
    with pytest.raises(DomainError):
        d.mass(other)


def test_integrate_frozen_value():
    space = FiniteSpace("X", ["a", "b", "c", "d"])
    d = uniform(space)
    # (0 + 1 + 2 + 3) / 4
    assert d.integrate(lambda p: Rat(space.index_of(p))) == Rat(3, 2)
    # integrands of either sign: (-1 + 0 + 1/2 + 5/3) / 4
    signed = {"a": -1, "b": 0, "c": Rat(1, 2), "d": Rat(5, 3)}
    assert d.integrate(signed.__getitem__) == Rat(7, 24)
    assert d.integrate(lambda p: -1) == -1


def test_dirac_and_uniform():
    space = w_space()
    d = dirac(space, "R")
    assert d.weight_at("R") == 1
    assert d.weight_at("S") == 0
    u = uniform(space)
    assert u.support() == ((0, Rat(1, 2)), (1, Rat(1, 2)))
    assert u.weight_at("S") == u.weight_at("R") == Rat(1, 2)
    with pytest.raises(DomainError):
        dirac(space, "Q")


def test_pushforward():
    space = FiniteSpace("X", ["a1", "a2", "b1", "b2"])
    target = FiniteSpace("Y", ["a", "b"])
    pushed = pushforward_dist(uniform(space), lambda p: p[0], target)
    assert pushed == Dist(target, ["1/2", "1/2"])
    with pytest.raises(DomainError):
        pushforward_dist(uniform(space), lambda p: p, target)


def test_product_dist_frozen_value():
    space = w_space()
    d = product_dist([Dist(space, ["3/4", "1/4"]), Dist(space, ["1/2", "1/2"])])
    # 3/4 * 1/2
    assert d.weight_at(("S", "S")) == Rat(3, 8)
    assert d.space == TupleSpace([space, space])


def test_product_dist_edge_cases():
    with pytest.raises(DomainError):
        product_dist([])
    space = w_space()
    prod = product_dist([dirac(space, "R"), dirac(space, "S")])
    assert prod == dirac(TupleSpace([space, space]), ("R", "S"))


@st.composite
def dists(draw, max_size=5):
    size = draw(st.integers(1, max_size))
    weights = draw(
        st.lists(st.integers(0, 5), min_size=size, max_size=size).filter(any)
    )
    space = FiniteSpace("X", [f"s{i}" for i in range(size)])
    total = sum(weights)
    return Dist(space, [Rat(w, total) for w in weights])


@given(dists(), st.data())
@settings(deadline=None)
def test_mass_is_additive_on_complements(d, data):
    picked = data.draw(st.sets(st.integers(0, d.space.size - 1)))
    sub = SubsetOf(d.space, picked)
    rest = SubsetOf(d.space, set(range(d.space.size)) - picked)
    assert d.mass(sub) + d.mass(rest) == 1


@given(dists(max_size=3), dists(max_size=3))
@settings(deadline=None)
def test_product_weights_multiply(d1, d2):
    prod = product_dist([d1, d2])
    for p1 in d1.space.points():
        for p2 in d2.space.points():
            assert prod.weight_at((p1, p2)) == d1.weight_at(p1) * d2.weight_at(p2)


# ---- sampling ----


def test_sample_hits_exact_support_only():
    space = FiniteSpace("X", ["a", "b", "c"])
    d = Dist(space, ["1/3", "0", "2/3"])
    rng = random.Random(7)
    seen = {d.sample(rng) for _ in range(200)}
    assert seen == {"a", "c"}


def test_sample_deterministic_per_seed():
    d = uniform(w_space())
    rng1, rng2 = random.Random(1), random.Random(1)
    assert [d.sample(rng1) for _ in range(10)] == [d.sample(rng2) for _ in range(10)]


def test_sample_frequencies_near_weights():
    space = FiniteSpace("X", ["a", "b"])
    d = Dist(space, ["1/3", "2/3"])
    rng = random.Random(0)
    n = 9000
    hits = sum(1 for _ in range(n) if d.sample(rng) == "a")
    assert abs(Rat(hits, n) - Rat(1, 3)) < Rat(1, 50)
