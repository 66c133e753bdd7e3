"""Integrals against the trajectory law: `expectation_table`, `Dist.integrate`,
`cond_exp` of a callable and the blocks of `cond_exp_sides`, against path
enumeration.

All integrate through one loop that sums int values of the integrand as
plain integers and any other exact value per denominator, so the integrands
here mix ints, Fractions, "p/q" strings, negative values and bools within
one row, and repeat their values so that rows share their Fractions.
"""
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from markovtraj import (
    ChainModel,
    Dist,
    DomainError,
    FiniteSpace,
    Rat,
    check_cond_exp,
    cond_exp,
    cylinder,
    cylinder_from_constraints,
    disjoint_union_cylinders,
    expectation_table,
    model_from_dict,
    uniform,
)

from markovtraj.measure import _integrals
from markovtraj.trajectory import _row_integrals, cond_exp_sides

from conftest import (
    brute_force_prefix_law,
    random_chain,
    random_model_doc,
    random_prefix,
    weather_doc,
)


def mixed_integrand(rng, space):
    """A value of every kind in turn along the enumeration, so the entries
    of one row mix them; few distinct values, so tables repeat."""
    kinds = [
        lambda: rng.randint(-3, 3),
        lambda: Rat(rng.randint(-4, 4), rng.randint(1, 3)),
        lambda: f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}",
        lambda: rng.choice([True, False]),
    ]
    values = [kinds[i % len(kinds)]() for i in range(space.size)]
    return lambda p: values[space.index_of(p)]


def brute_force_table(chain, a, b, f) -> dict:
    return {
        p: sum((w * Fraction(f(t)) for t, w in brute_force_prefix_law(chain, p, b).items()),
               Rat(0))
        for p in chain.prefix_space(a).points()
    }


def test_integrals_match_path_enumeration():
    rng = random.Random(1414)
    for _ in range(30):
        chain = random_chain(rng)
        depth = chain.max_depth
        for b in range(depth + 1):
            f = mixed_integrand(rng, chain.prefix_space(b))
            for a in range(b + 1):
                expected = brute_force_table(chain, a, b, f)
                table = expectation_table(chain, a, b, f)
                assert table == expected
                assert all(type(v) is Fraction for v in table.values())
                rows = chain.partial_traj(a, b).rows
                assert [row.integrate(f) for row in rows] == list(expected.values())
        cyl = cylinder_from_constraints(chain, {
            k: rng.sample(chain.spaces[k].labels, 1) for k in (0, depth)
        })
        assert cond_exp(chain, 0, lambda t: -2 if t in cyl else "1/3") == brute_force_table(
            chain, 0, depth, lambda t: -2 if t in cyl else Rat(1, 3))


def test_bools_integrate_as_zero_and_one():
    chain = model_from_dict(weather_doc(4)).chain
    for b in (3, 4):
        as_bool = expectation_table(chain, 0, b, lambda p: p[-1] == "S")
        as_int = expectation_table(chain, 0, b, lambda p: int(p[-1] == "S"))
        assert as_bool == as_int == brute_force_table(chain, 0, b, lambda p: p[-1] == "S")
        assert all(type(v) is Fraction for v in as_bool.values())


@pytest.mark.parametrize("bad", [0.5, Decimal("0.5"), None, "0.5"])
def test_an_inexact_value_after_integer_entries_is_rejected(bad):
    # from prefix (S,) the row's entries are (S, S) then (S, R): an int
    # first, then the bad value in the same row
    chain = model_from_dict(weather_doc(3)).chain
    f = lambda p: 1 if p[-1] == "S" else bad
    with pytest.raises(DomainError):
        expectation_table(chain, 0, 1, f)
    with pytest.raises(DomainError):
        chain.partial_row(0, 1, 0).integrate(f)
    with pytest.raises(DomainError):
        uniform(chain.spaces[0]).integrate(lambda s: 1 if s == "S" else bad)
    with pytest.raises(DomainError):
        check_cond_exp(chain, 0, ("S",), 1, f)


def test_cond_exp_sides_integrate_mixed_values_within_a_block():
    # The depth-D trajectories through one depth-b prefix are one block of
    # the (a, D) law, integrated as one row: here each block's entries mix
    # ints, bools and Fractions.
    rng = random.Random(2718)
    for _ in range(20):
        chain = random_chain(rng)
        depth = chain.max_depth
        space = chain.prefix_space(depth)
        kinds = [
            lambda: rng.randint(-3, 3),
            lambda: rng.choice([True, False]),
            lambda: Rat(rng.randint(-4, 4), rng.randint(2, 5)),
        ]
        values = [kinds[i % len(kinds)]() for i in range(space.size)]
        f = lambda t: values[space.index_of(t)]
        for b in range(depth):
            for a in range(b + 1):
                prefix = random_prefix(rng, chain, a)
                lhs, rhs = cond_exp_sides(chain, a, prefix, b, f, cond_exp(chain, b, f))
                expected: dict = {}
                for t, w in brute_force_prefix_law(chain, prefix, depth).items():
                    p = t[: b + 1]
                    expected[p] = expected.get(p, Rat(0)) + w * Fraction(f(t))
                assert lhs == expected
                assert rhs == lhs


def test_rows_with_equal_integer_sums_share_one_fraction():
    chain = model_from_dict(weather_doc(8)).chain
    f = lambda p: 1 if p[-1] == "R" else 0
    table = expectation_table(chain, 7, 8, f)
    assert table == brute_force_table(chain, 7, 8, f)
    # 256 rows, each 1/4 or 1/2: far fewer Fractions than rows
    assert len({id(v) for v in table.values()}) <= 4 < len(table)


def test_a_scale_divides_each_integral():
    # `_row_integrals(..., scale=s)` is the unscaled integral over s, on
    # the int path (a row of int values) and the per-denominator path (a row
    # with one Fraction or "p/q" string), for values of either sign.
    rng = random.Random(1618)
    for _ in range(20):
        chain = random_chain(rng)
        depth = chain.max_depth
        space = chain.prefix_space(depth)
        ints = [rng.randint(-3, 3) for _ in range(space.size)]
        for f in (lambda p: ints[space.index_of(p)], mixed_integrand(rng, space)):
            for a in range(depth + 1):
                rows = [(r._numerators, r._denom) for r in chain.partial_traj(a, depth).rows]
                plain = _integrals(space, rows, f)
                for scale in (1, 3, 12):
                    scaled = _row_integrals(chain, a, depth, f, scale)
                    assert scaled == [v / scale for v in plain]
    # Rows 0 and 2 sum their ints to one (total, denominator) key, 3 over 3,
    # and share the one Fraction 3 / (3 * 5); row 1 is negative, and row 3
    # holds a Fraction.
    first = FiniteSpace("P", ["p0", "p1", "p2", "p3"])
    space = FiniteSpace("X", ["a", "b", "c", "d"])
    rows = [
        Dist(space, ["2/3", "1/3", 0, 0]),
        Dist(space, ["1/3", 0, "2/3", 0]),
        Dist(space, ["1/3", "2/3", 0, 0]),
        Dist(space, ["1/3", 0, 0, "2/3"]),
    ]
    chain = ChainModel([first, space], [rows])
    values = {"a": 1, "b": 1, "c": -2, "d": Rat(-1, 4)}
    f = lambda p: values[p[1]]
    scaled = _row_integrals(chain, 0, 1, f, 5)
    assert scaled == [Rat(1, 5), Rat(-1, 5), Rat(1, 5), Rat(1, 30)]
    assert scaled[0] is scaled[2]
    assert scaled == [v / 5 for v in _row_integrals(chain, 0, 1, f)]


def test_a_cylinder_and_its_indicator_give_one_table():
    rng = random.Random(77)
    for _ in range(20):
        chain = model_from_dict(random_model_doc(rng)).chain
        depth = chain.max_depth
        top = cylinder_from_constraints(chain, {
            k: rng.sample(chain.spaces[k].labels, 1) for k in {rng.randint(1, depth), depth}
        })
        points = cylinder(chain, depth, {random_prefix(rng, chain, depth) for _ in range(3)})
        head = cylinder_from_constraints(chain, {0: chain.spaces[0].labels[:1]})
        tail = cylinder_from_constraints(chain, {0: chain.spaces[0].labels[1:]})
        union = disjoint_union_cylinders(chain, [head, tail])
        empty = cylinder_from_constraints(chain, {depth: []})
        for cyl in (top, points, union, empty):
            for b in range(depth + 1):
                assert cond_exp(chain, b, lambda t: 1 if t in cyl else 0) == cond_exp(
                    chain, b, cyl)


def test_integrating_over_the_full_depth_lists_no_full_trajectories():
    # The integrand's points are joined from the head/tail listing of P_D;
    # its 2^11 trajectories are never listed as one tuple of points.
    chain = model_from_dict(weather_doc(10)).chain
    cyl = cylinder_from_constraints(chain, {4: ["S"], 10: ["R"]})
    table = expectation_table(chain, 0, 10, lambda t: 1 if t in cyl else 0)
    assert table == cond_exp(chain, 0, cyl)
    assert chain.prefix_space(10)._points is None
