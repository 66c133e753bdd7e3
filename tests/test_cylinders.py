"""Cylinders held as boxes, checked against enumeration and path oracles.

A cylinder is a disjoint union of boxes (one allowed state set per
constrained coordinate).  Every box operation here is compared with the
same operation on the enumerated prefix sets (`Cylinder.base`), and every
content with `conftest.brute_force_content`, which walks the step rows
path by path.
"""
import json
import math
import random
import sys

import pytest

from markovtraj import (
    DomainError,
    PreconditionError,
    Rat,
    content_at_depth,
    cylinder,
    cylinder_content,
    cylinder_from_constraints,
    disjoint_union_cylinders,
    extract_witness,
    intersect_cylinders,
    lift_cylinder,
)

from conftest import (
    brute_force_content,
    doc_chain,
    positive_extension,
    random_chain,
    random_prefix,
    run_capped,
    weather_doc,
)


def random_constraints(rng, chain, coords) -> dict:
    """Random nonempty allowed sets (sometimes every state) on `coords`."""
    return {
        k: rng.sample(chain.spaces[k].labels, rng.randint(1, chain.spaces[k].size))
        for k in coords
    }


def random_coords(rng, chain, a: int) -> list:
    """One to four coordinates, among them one at or below a or at full depth."""
    depth = chain.max_depth
    coords = {rng.randint(0, depth) for _ in range(rng.randint(1, 3))}
    coords.add(rng.choice([rng.randint(0, a), depth]))
    return sorted(coords)


def enumerated(chain, cyl, depth: int) -> set:
    """The cylinder's allowed depth-`depth` prefixes, through `base`."""
    return set(lift_cylinder(chain, cyl, depth).base.points())


def random_cylinder(rng, chain):
    """A constraint box, or a union of point boxes, at a random depth."""
    if rng.random() < 0.7:
        return cylinder_from_constraints(
            chain, random_constraints(rng, chain, random_coords(rng, chain, 0))
        )
    depth = rng.randint(0, chain.max_depth)
    return cylinder(chain, depth, [random_prefix(rng, chain, depth) for _ in range(4)])


def test_box_contents_match_path_enumeration():
    rng = random.Random(7001)
    checks = 0
    for depth in (6, 7, 8):
        for _ in range(2):
            chain = random_chain(rng, depth=depth)
            for _ in range(6):
                a = rng.randint(0, depth)
                start = random_prefix(rng, chain, a)
                constraints = random_constraints(rng, chain, random_coords(rng, chain, a))
                cyl = cylinder_from_constraints(chain, constraints)
                expected = brute_force_content(
                    chain, start, {k: set(ok) for k, ok in constraints.items()}
                )
                assert cylinder_content(chain, a, start, cyl) == expected
                at = rng.randint(max(a, cyl.depth), depth)
                assert content_at_depth(chain, a, start, cyl, at) == expected
                checks += 1
    assert checks == 36


def test_box_set_operations_match_enumeration():
    rng = random.Random(7002)
    for _ in range(30):
        chain = random_chain(rng, depth=rng.randint(2, 4))
        first = random_cylinder(rng, chain)
        second = random_cylinder(rng, chain)
        depth = max(first.depth, second.depth)
        points = enumerated(chain, first, depth)
        assert len(first) == len(first.base)

        met = intersect_cylinders(chain, first, second)
        assert met.depth == depth
        assert enumerated(chain, met, depth) == points & enumerated(chain, second, depth)
        assert len(met) == len(enumerated(chain, met, depth))
        assert met == intersect_cylinders(chain, second, first)
        assert first == cylinder(chain, first.depth, first.base.points())

        for _ in range(10):
            traj = random_prefix(rng, chain, chain.max_depth)
            assert (traj in first) == (traj[: first.depth + 1] in first.base)
            assert (traj in met) == (traj in first and traj in second)

        # first splits into its part inside second and the part outside
        k = second.depth
        complement = [p for p in chain.prefix_space(k).points() if p not in second.base]
        outside = intersect_cylinders(chain, first, cylinder(chain, k, complement))
        union = disjoint_union_cylinders(chain, [met, outside])
        assert enumerated(chain, union, depth) == points
        assert union == lift_cylinder(chain, first, depth)
        if len(first):
            with pytest.raises(PreconditionError):
                disjoint_union_cylinders(chain, [first, union])


def test_membership_reads_only_the_constrained_coordinates(weather):
    cyl = cylinder_from_constraints(weather, {1: ["S"], 3: ["R", "S"]})
    assert ("R", "S", "R", "R") in cyl
    assert ("R", "R", "R", "R") not in cyl
    assert ("R", "S") not in cyl  # too short to reach coordinate 3
    assert ("R", "Q", "R", "R") not in cyl
    assert len(cyl) == 8
    empty = cylinder_from_constraints(weather, {1: []})
    assert len(empty) == 0 and ("S", "S", "S", "S") not in empty
    assert cylinder_content(weather, 0, ("S",), empty) == 0


def in_by_digits(cyl, point) -> bool:
    """Membership by the index digits of the point's restriction: coordinate
    k's stride is the number of points of the coordinates after it."""
    comps = cyl.space.components
    j = cyl.space.index_of(point[: cyl.depth + 1])
    return any(
        all(j // math.prod(c.size for c in comps[k + 1 :]) % comps[k].size in allowed
            for k, allowed in box)
        for box in cyl.boxes
    )


def test_len_answers_up_to_maxsize_and_names_a_larger_count():
    # len() cannot return more than sys.maxsize = 2^63 - 1 here: {x_d = S}
    # on the two-state weather chain holds 2^d prefixes, so depth 62 is
    # answered exactly and depths 63 and 200 are a DomainError naming the
    # count, not an OverflowError.
    assert sys.maxsize == 2**63 - 1
    chain = doc_chain(weather_doc(200))
    assert len(cylinder_from_constraints(chain, {62: ["S"]})) == 2**62
    for depth in (63, 200):
        cyl = cylinder_from_constraints(chain, {depth: ["S"]})
        with pytest.raises(DomainError, match=f"holds {2**depth} prefixes"):
            len(cyl)


def test_membership_matches_the_index_digits():
    rng = random.Random(56)
    for _ in range(40):
        chain = random_chain(rng, depth=rng.randint(2, 4))
        depth = chain.max_depth
        one_box = cylinder_from_constraints(
            chain, random_constraints(rng, chain, random_coords(rng, chain, 0)))
        points = cylinder(chain, depth - 1,
                          [random_prefix(rng, chain, depth - 1) for _ in range(4)])
        x1, last = chain.spaces[1].labels, chain.spaces[depth].labels
        union = disjoint_union_cylinders(chain, [
            cylinder_from_constraints(chain, {1: x1[:1], depth: last[:1]}),
            cylinder_from_constraints(chain, {1: x1[1:]}),
        ])
        empty = cylinder_from_constraints(chain, {depth: []})
        for cyl in (one_box, points, union, empty):
            for n in range(cyl.depth, depth + 1):
                for p in chain.prefix_space(n).points():
                    assert (p in cyl) == in_by_digits(cyl, p), (cyl, p)
                    assert (list(p) in cyl) == (p in cyl)
        assert not any(p in empty for p in chain.prefix_space(depth).points())


def test_membership_of_what_is_not_a_trajectory(weather):
    cyl = disjoint_union_cylinders(weather, [
        cylinder_from_constraints(weather, {1: ["S"], 2: ["R"]}),
        cylinder_from_constraints(weather, {1: ["R"]}),
    ])
    assert ("S", "S", "R") in cyl and ["R", "R"] in cyl
    assert ("S", "Q", "R") not in cyl  # an unknown label
    assert ("S", "S") not in cyl  # too short to reach coordinate 2
    assert ("S", ["S"], "R") not in cyl  # unhashable coordinates
    assert ("S", "S", {"R": 1}) not in cyl
    assert [] not in cyl
    # only tuples and lists are trajectories
    sunny = cylinder_from_constraints(weather, {1: ["S"]})
    assert ("R", "S") in sunny and ["R", "S"] in sunny
    assert "RS" not in sunny  # a string of one-letter labels
    assert {1: "S"} not in sunny  # a dict keyed by coordinate


def test_cylinders_are_equal_when_their_sets_are(weather):
    sunny = cylinder_from_constraints(weather, {1: ["S"]})
    points = cylinder(weather, 1, [("R", "S"), ("S", "S")])
    assert sunny == points and hash(sunny) == hash(points)
    # same depth and size, other set
    assert sunny != cylinder_from_constraints(weather, {1: ["R"]})
    assert sunny != lift_cylinder(weather, sunny, 2)


def nested_constraint_family(rng, chain, start) -> list:
    """Constraint boxes, each adding a coordinate to the one before."""
    traj = positive_extension(rng, chain, start)
    coords = sorted(rng.sample(range(chain.max_depth + 1), rng.randint(1, 3)))
    allowed = {}
    family = []
    for k in coords:
        allowed[k] = {traj[k], rng.choice(chain.spaces[k].labels)}
        family.append(cylinder_from_constraints(chain, dict(allowed)))
    return family


def test_witness_on_nested_box_families():
    rng = random.Random(7003)
    for _ in range(40):
        chain = random_chain(rng, depth=rng.randint(3, 6))
        a = rng.randint(0, chain.max_depth)
        start = random_prefix(rng, chain, a)
        family = nested_constraint_family(rng, chain, start)
        if rng.random() < 0.5:
            # innermost: a union of point boxes inside the last constraint box
            last = family[-1]
            depth = max(last.depth, a)
            inner = {positive_extension(rng, chain, start)[: depth + 1] for _ in range(3)}
            inner = [p for p in inner if p in last]
            if inner:
                family.append(cylinder(chain, depth, inner))
        contents = [cylinder_content(chain, a, start, c) for c in family]
        witness = extract_witness(chain, a, start, family, min(contents))
        assert witness[: a + 1] == start
        for c in family:
            assert witness[: c.depth + 1] in c.base


def test_nesting_is_checked_against_the_union_of_boxes(weather):
    # {x_1 = S} is covered by two point boxes together, by neither alone
    outer = cylinder(weather, 1, [("S", "S"), ("R", "S")])
    inner = cylinder_from_constraints(weather, {1: ["S"], 2: ["S"]})
    assert extract_witness(weather, 0, ("S",), [outer, inner], Rat(9, 16)) == ("S", "S", "S")
    loose = cylinder_from_constraints(weather, {2: ["S"]})
    with pytest.raises(PreconditionError):
        extract_witness(weather, 0, ("S",), [outer, loose], Rat(1, 4))


DEEP_QUERY = """
import sys, tracemalloc
from markovtraj import cylinder_content, cylinder_from_constraints, load_model
chain = load_model(sys.argv[1]).chain
tracemalloc.start()
cyl = cylinder_from_constraints(chain, {18: ["S"]})
value = cylinder_content(chain, 15, ("S",) * 16, cyl)
print(value, tracemalloc.get_traced_memory()[1])
"""


def test_deep_content_costs_the_reached_support(tmp_path):
    # The depth-18 weather chain has 2^19 trajectories; from a depth-15
    # prefix, {x_18 = S} touches 8 of them.  The bound, 64 KiB, is on the
    # bytes the query alone allocates at its peak (tracemalloc, after the
    # load), in a child capped at 512 MiB of address space: 2,224 bytes
    # measured, against 23 MB when cylinder_content read the enumerated
    # `cyl.base`.  Neither wall time nor the child's RSS is bounded.
    model = tmp_path / "weather18.json"
    model.write_text(json.dumps(weather_doc(18)))
    child = run_capped(["-c", DEEP_QUERY, str(model)], timeout=120)
    assert child.returncode == 0, child.stderr
    value, peak = child.stdout.split()
    # from S, three steps to S: (11/16) * 3/4 + (5/16) * 1/2
    assert value == "43/64"
    assert int(peak) < 64 << 10, peak
