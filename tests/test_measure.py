import bisect
import itertools
import math
import random
from pathlib import Path

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
    load_model,
    product_dist,
    pushforward_dist,
    uniform,
)

import markovtraj.measure
from markovtraj.measure import _TABLE_BITS, _restrict

from conftest import doc_chain, random_chain, run_capped, weather_doc

MODELS = Path(__file__).resolve().parent.parent / "models"


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


class _Uncomparable(tuple):
    def __eq__(self, other):
        raise AssertionError("compared element by element")


def test_spaces_compare_by_identity_first(monkeypatch):
    # A space equals itself without reading its labels or components, so a
    # chain's shared prefix spaces compare in O(1); other spaces still
    # compare by content.  A tuple space's components are a slice of its
    # factors, so its compares are seen as FiniteSpace.__eq__ calls.
    space = w_space()
    pair = TupleSpace([space, space])
    space.labels = _Uncomparable(space.labels)
    assert space == space and not space != space
    with pytest.raises(AssertionError):
        space == w_space()
    compared = []
    finite_eq = FiniteSpace.__eq__
    monkeypatch.setattr(FiniteSpace, "__eq__", lambda a, b: compared.append(a) or finite_eq(a, b))
    assert pair == pair and not pair != pair
    assert compared == []
    with pytest.raises(AssertionError):
        pair == TupleSpace([w_space(), w_space()])
    assert compared == [space]


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
    # point_at agrees with the enumeration, built or not
    assert space.points()[index] == point == space.point_at(index)


@st.composite
def spaces(draw, depth=0):
    """A finite space, or a tuple space of them, nested up to two levels."""
    if depth < 2 and draw(st.booleans()):
        comps = draw(st.lists(spaces(depth + 1), max_size=3))
        return TupleSpace(comps)
    size = draw(st.integers(1, 3))
    return FiniteSpace(f"X{depth}", [f"s{depth}{j}" for j in range(size)])


def foreign_points(space, point):
    """Tuples shaped like points of `space`, each with one coordinate off it.

    Every coordinate is replaced in turn, and nested tuple spaces are
    entered.
    """
    for k, comp in enumerate(space.components):
        for bad in ("?", ["s00"]):
            yield point[:k] + (bad,) + point[k + 1:]
        if isinstance(comp, TupleSpace):
            for inner in foreign_points(comp, point[k]):
                yield point[:k] + (inner,) + point[k + 1:]


@given(spaces(), st.data())
@settings(deadline=None)
def test_conversions_agree_with_the_enumeration(space, data):
    # On nested and empty tuple spaces, index_of, point_at and label_at
    # agree with points() and format_point at every index, and whatever is
    # not a point is a DomainError, never a KeyError or TypeError.
    points = space.points()
    for i in range(space.size):
        point = space.point_at(i)
        assert point == points[i]
        assert space.index_of(point) == i
        assert space.label_at(i) == space.format_point(point)
    point = points[data.draw(st.integers(0, space.size - 1))]
    if isinstance(space, TupleSpace):
        bad = [*foreign_points(space, point), point + ("s00",), list(point)]
        if point:
            bad.append(point[:-1])
    else:
        bad = ["?", ["s00"], (point,)]
    for p in bad:
        with pytest.raises(DomainError):
            space.index_of(p)
        assert p not in space


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
    # 81 points; a bad label or an unhashable coordinate, first or last
    space = TupleSpace([FiniteSpace(f"X{k}", ["a", "b", "c"]) for k in range(4)])
    assert space.index_of(("c", "a", "b", "c")) == 59
    for bad in (
        ("?", "a", "b", "c"),
        ("c", "a", "b", "?"),
        ("c", "a", "b"),
        ["c", "a", "b", "c"],
        ("c", ["a"], "b", "c"),
        ("c", "a", "b", ["c"]),
    ):
        with pytest.raises(DomainError):
            space.index_of(bad)


def test_index_of_lists_nothing_and_inverts_point_at():
    space = TupleSpace([FiniteSpace(f"X{k}", ["a", "b", "c"]) for k in range(4)])
    # A lookup alone lists nothing.
    assert space.index_of(("c", "a", "b", "c")) == 59
    assert space._halves is None and space._points is None
    assert space.point_at(59) == ("c", "a", "b", "c")
    for i in range(space.size):
        assert space.index_of(space.point_at(i)) == i
    # point_at reads the index's digits, so it lists nothing either.
    assert space._halves is None and space._points is None
    # Every miss is a DomainError, never a KeyError or TypeError.
    for bad in (
        ("?", "a", "b", "c"),  # bad label in the head
        ("c", "a", "b", "?"),  # bad label in the tail
        ("c", ["a"], "b", "c"),  # unhashable coordinate
        ("c", "a", "b", ["c"]),
        ("c", "a", "b"),  # short tuple
        ("c", "a", "b", "c", "a"),
        ["c", "a", "b", "c"],  # a list
        "cabc",
        None,
    ):
        with pytest.raises(DomainError):
            space.index_of(bad)
        assert bad not in space


def test_point_at_reads_digits_on_a_deep_tower(monkeypatch):
    # The depth-200 prefix space of a two-state chain has 2^201 points, far
    # more heads and tails than memory holds, so point_at must not list it.
    def listed(space):
        raise AssertionError(f"{space!r} was listed")

    monkeypatch.setattr(TupleSpace, "_listing", listed)
    space = doc_chain(weather_doc(200)).prefix_space(200)
    rng = random.Random(200)
    indices = [0, 1, space.size // 3, space.size - 1]
    for i in indices + [rng.randrange(space.size) for _ in range(20)]:
        point = space.point_at(i)
        assert len(point) == 201 and space.index_of(point) == i
    assert space.point_at(space.size - 1) == space.point_at(-1) == ("R",) * 201
    # An index past the end is an IndexError, not a point of another number.
    for bad in (space.size, 2 * space.size, -space.size - 1):
        with pytest.raises(IndexError):
            space.point_at(bad)


def _digit_spaces() -> list:
    # drift's unequal spaces repeated to depth 12, and a pair space of two
    # of its prefix spaces, whose coordinates are themselves tuple spaces.
    drift = load_model(str(MODELS / "drift.json")).chain
    return [
        TupleSpace([drift.spaces[k % 4] for k in range(13)]),
        TupleSpace([drift.prefix_space(1), drift.prefix_space(3)]),
    ]


@pytest.mark.parametrize("space", _digit_spaces(), ids=["drift12", "pair"])
def test_point_at_reads_the_listed_point_with_no_digit_table(monkeypatch, space):
    # point_at reads an index's digits by % and // from the last
    # coordinate: it equals points() at every index and builds no
    # (component, stride) table (`_digits`), however often it is called.
    points = space.points()
    assert [space.point_at(i) for i in range(space.size)] == list(points)
    assert space.point_at(-1) == points[-1]

    def refused(*args):
        raise AssertionError("point_at built a digit table")

    monkeypatch.setattr(markovtraj.measure, "_digits", refused)
    rng = random.Random(space.size)
    for _ in range(1000):
        i = rng.randrange(space.size)
        assert space.point_at(i) == points[i]


def test_a_space_of_two_tuple_spaces_reads_their_texts():
    # The pair space of a split: its labels come from the two components'
    # own texts, with no second copy kept in the pair space.
    first = TupleSpace([w_space()] * 2)
    second = TupleSpace([w_space()] * 3)
    pairs = TupleSpace([first, second])
    for i in range(pairs.size):
        assert pairs.label_at(i) == pairs.format_point(pairs.point_at(i))
    _, head_text, tail_text = pairs._texts
    assert tail_text == second.label_at
    assert head_text(3) == first.label_at(3) + "|"


# ---- subsets ----


def test_subset_membership():
    space = w_space()
    sub = SubsetOf(space, [space.index_of("R")])
    assert "R" in sub
    assert "S" not in sub
    assert len(sub) == 1
    assert sub.points() == ("R",)


def test_subset_points_read_one_digit_table(monkeypatch):
    # The points of a subset of a tuple space are read off their numbers in
    # increasing order, in one pass over one (component, stride) table
    # (`_digits`), not one table per point.
    space = TupleSpace([w_space(), FiniteSpace("T", ["a", "b", "c"]), w_space()])
    numbers = [11, 0, 7, 4, 5]
    expected = tuple(space.point_at(i) for i in sorted(numbers))
    digits, calls = markovtraj.measure._digits, []

    def counted(*args):
        calls.append(args)
        return digits(*args)

    monkeypatch.setattr(markovtraj.measure, "_digits", counted)
    assert SubsetOf(space, numbers).points() == expected
    assert len(calls) == 1


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
    # off the support, below, between and above its entries
    inner = Dist.from_support(FiniteSpace("Y", "abcde"), [(1, Rat(1, 4)), (3, Rat(3, 4))])
    assert [inner.weight_at(p) for p in "abcde"] == [0, Rat(1, 4), 0, Rat(3, 4), 0]


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


SUPPORT_ONLY = """
import tracemalloc
from markovtraj import Dist, FiniteSpace, Rat, TupleSpace
tracemalloc.start()
space = TupleSpace([FiniteSpace("B", ["0", "1"])] * 40)
d = Dist.from_support(space, [(1, Rat(1, 3)), (space.size - 2, Rat(2, 3))])
assert d.weight_at(("0",) * 39 + ("1",)) == Rat(1, 3)
assert d.weight_at(("1",) * 39 + ("0",)) == Rat(2, 3)
assert d.weight_at(("0",) * 40) == 0  # below the first entry
assert d.weight_at(("0",) + ("1",) * 39) == 0  # between the two
assert d.weight_at(("1",) * 40) == 0  # above the last
assert d.support() == ((1, Rat(1, 3)), (space.size - 2, Rat(2, 3)))
assert repr(d) == f"Dist({'|'.join('0' * 39 + '1')}:1/3, {'|'.join('1' * 39 + '0')}:2/3)"
print(tracemalloc.get_traced_memory()[1])
"""


def test_from_support_stores_only_the_support():
    # 2^40 points: any storage proportional to the space could not be built,
    # and neither a lookup by point nor the text of the support may list
    # the space's sqrt(size) heads or tails (848 MB when index_of did, and
    # 229 MB for a repr from tables of head and tail texts).  The peak of
    # the bytes allocated after the import is a few kB; the child is capped
    # at 512 MiB.
    child = run_capped(["-c", SUPPORT_ONLY], timeout=60)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) < 1 << 20, child.stdout


DEEP_DRAW = """
import random
from markovtraj import ChainModel, Dist, FiniteSpace, Rat, traj_marginal
w = FiniteSpace("W", ["S", "R"])
rows = [Dist(w, [Rat(3, 4), Rat(1, 4)]), Dist(w, [Rat(1, 2), Rat(1, 2)])]
chain = ChainModel([w] * 201, [rows] * 200)
rng = random.Random(1)
for a in (199, 197):
    row = traj_marginal(chain, a, ("S",) * (a + 1), 200)
    point = row.sample(rng)
    assert len(point) == 201 and point[: a + 1] == ("S",) * (a + 1), point
    print(row._denom.bit_length(), row.weight_at(point) > 0)
"""


def test_a_draw_from_a_deep_row_lists_nothing():
    # The depth-200 weather chain has 2^201 trajectories; a draw from the
    # row of a depth-199 prefix (denominator 4, read from the table) and
    # of a depth-197 prefix (denominator 64, by bisection) reads its
    # support points from their digits.  Listing the heads and tails of
    # the prefix space ended in MemoryError; the child is capped at 512 MiB.
    child = run_capped(["-c", DEEP_DRAW], timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["3", "True", "7", "True"]


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


def test_index_restriction_is_the_prefix_pushforward():
    # Restriction by index, j -> j // (|space| / |target|), against the
    # point-level push-forward along p -> p[: b + 1]: every row of every
    # (a, c) kernel, restricted to every depth b in a..c.
    rng = random.Random(20260815)
    rows = 0
    for _ in range(100):
        chain = random_chain(rng)
        for a in range(chain.max_depth + 1):
            for c in range(a, chain.max_depth + 1):
                for b in range(a, c + 1):
                    target = chain.prefix_space(b)
                    for row in chain.partial_traj(a, c).rows:
                        expected = pushforward_dist(row, lambda p: p[: b + 1], target)
                        assert _restrict(row, target) == expected
                        rows += 1
    assert rows > 10_000
    # Product prefix laws, on factors with zero-weight states, so whole
    # blocks of the longer law are missing from its support.
    for _ in range(50):
        factors = []
        for i in range(rng.randint(2, 5)):
            space = FiniteSpace(f"X{i}", [f"s{j}" for j in range(rng.randint(2, 4))])
            zero = rng.randrange(space.size)
            weights = [0 if j == zero else rng.randint(0, 3) for j in range(space.size)]
            weights[(zero + 1) % space.size] += 1
            factors.append(Dist(space, [Rat(w, sum(weights)) for w in weights]))
        for b in range(len(factors)):
            longer = product_dist(factors[: b + 1])
            for a in range(b + 1):
                target = TupleSpace([d.space for d in factors[: a + 1]])
                expected = pushforward_dist(longer, lambda p: p[: a + 1], target)
                assert _restrict(longer, target) == expected == product_dist(factors[: a + 1])


def _random_support_dist(rng: random.Random, space) -> Dist:
    """A Dist on `space` with a random support (gaps included); half of
    them have numerators up to 2^66, so denominators above 2^64."""
    chosen = rng.sample(range(space.size), rng.randint(1, min(space.size, 6)))
    bound = rng.choice([4, 2**66])
    parts = [rng.randint(1, bound) for _ in chosen]
    return Dist.from_support(space, [(i, Rat(n, sum(parts))) for i, n in zip(chosen, parts)])


def _random_component(rng: random.Random, name: str) -> FiniteSpace:
    """A state space of 1 to 4 states, one-point spaces included."""
    return FiniteSpace(name, [f"s{j}" for j in range(rng.choice([1, 1, 2, 3, 4]))])


def test_restriction_equals_the_point_pushforward_on_random_tuple_spaces():
    # Random laws on random 1-5 coordinate tuple spaces, one-point
    # components included, restricted to every leading k coordinates.
    rng = random.Random(20261020)
    for _ in range(300):
        comps = [_random_component(rng, f"X{i}") for i in range(rng.randint(1, 5))]
        space = TupleSpace(comps)
        d = _random_support_dist(rng, space)
        for k in range(len(comps) + 1):
            target = TupleSpace(comps[:k])
            assert _restrict(d, target) == pushforward_dist(d, lambda p: p[:k], target)


def _reference_product(factors: list) -> Dist:
    """The product law by points: every combination of the factors'
    support points, its weight the product of theirs."""
    space = TupleSpace([d.space for d in factors])
    weights = {}
    for combo in itertools.product(*(d.support() for d in factors)):
        point = tuple(d.space.point_at(i) for d, (i, _) in zip(factors, combo))
        weights[space.index_of(point)] = math.prod(w for _, w in combo)
    return Dist.from_support(space, weights.items())


def test_product_dist_equals_the_point_product():
    # 1-6 factors: random laws (denominators above 2^64 among them),
    # Diracs, one-point spaces and a factor on a tuple space.
    rng = random.Random(20261021)
    big = 0
    for _ in range(200):
        factors = []
        for i in range(rng.randint(1, 6)):
            kind = rng.choice(["random", "random", "dirac", "tuple"])
            space = _random_component(rng, f"X{i}")
            if kind == "dirac":
                factors.append(dirac(space, rng.choice(space.labels)))
            elif kind == "tuple":
                pair = TupleSpace([space, _random_component(rng, f"Y{i}")])
                factors.append(_random_support_dist(rng, pair))
            else:
                factors.append(_random_support_dist(rng, space))
        product = product_dist(factors)
        assert product == _reference_product(factors)
        big += product._denom > 2**64
    assert big > 20


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


TABLE = 1 << _TABLE_BITS  # the first denominator whose draws bisect


@pytest.mark.parametrize("denom", [1, 2, 3, 4, 12, TABLE - 1, TABLE, TABLE + 1,
                                   2**20, 2**20 + 1, 3**40, "gaps"])
def test_sample_draws_as_randrange_does(denom):
    # Dist.sample draws from getrandbits itself; with a random.Random it
    # must give the points of a randrange draw below the denominator,
    # looked up among the cumulative weights, and leave the same state,
    # whether it reads its table (up to TABLE - 1) or bisects (from TABLE).
    if denom == "gaps":
        # support at indices 1, 3 and 4 of five points, so table entries
        # must map to support points, not to positions in the space
        space, denom = FiniteSpace("Y", ["v", "w", "x", "y", "z"]), TABLE - 1
        d = Dist.from_support(space, [(1, Rat(1, denom)), (3, Rat(2, denom)),
                                      (4, Rat(denom - 3, denom))])
    else:
        space = FiniteSpace("X", ["a", "b", "c"])
        middle = (denom - 1) // 2
        d = Dist(space, [Rat(1, denom), Rat(middle, denom), Rat(denom - 1 - middle, denom)])
    support = d.support()
    assert math.lcm(*(w.denominator for _, w in support)) == denom
    cumulative = list(itertools.accumulate(w * denom for _, w in support))
    fast, slow = random.Random(denom), random.Random(denom)
    for _ in range(1000):
        k = bisect.bisect_right(cumulative, slow.randrange(denom))
        assert d.sample(fast) == space.point_at(support[k][0])
    assert fast.getstate() == slow.getstate()
    _, _, points, bisected = d._draws
    assert (bisected is None) == (denom < TABLE)  # the table, or bisection
    assert len(points) == (denom if denom < TABLE else len(support))
