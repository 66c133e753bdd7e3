"""The lumped route for steps that read only the last state.

From depth `markov_from` on, cylinder contents, witness scores and
cylinder conditional expectations are read off a backward pass over the
law of the last state instead of the memoized rows.  Every value here is
compared, with exact equality, against the row route (`content_at_depth`,
the greedy on row contents, `cond_exp` of the indicator as a function) and
against the path-enumeration oracles of conftest, on random models that mix
"table", "last-state" and "const" steps.
"""
import random
from pathlib import Path

import pytest

from markovtraj import (
    DomainError,
    FiniteSpace,
    Rat,
    check_cond_exp,
    cond_exp,
    const_chain,
    content_at_depth,
    cylinder,
    cylinder_content,
    cylinder_from_constraints,
    disjoint_union_cylinders,
    extract_witness,
    intersect_cylinders,
    load_model,
    model_from_dict,
    uniform,
)

from conftest import (
    brute_force_prefix_law,
    random_model_doc,
    random_nested_family,
    random_prefix,
    weather_doc,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def random_models(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [model_from_dict(random_model_doc(rng)).chain for _ in range(count)]


def brute_force_mass(chain, prefix, cyl) -> Rat:
    """Probability of the cylinder from `prefix`, by path enumeration."""
    law = brute_force_prefix_law(chain, prefix, max(len(prefix) - 1, cyl.depth))
    return sum((w for t, w in law.items() if t in cyl), Rat(0))


def random_box(rng, chain):
    """One box on one to three coordinates, each allowing a nonempty subset."""
    coords = {rng.randint(0, chain.max_depth) for _ in range(rng.randint(1, 3))}
    return cylinder_from_constraints(chain, {
        k: rng.sample(chain.spaces[k].labels, rng.randint(1, chain.spaces[k].size))
        for k in coords
    })


def random_cylinders(rng, chain) -> list:
    """One-box, multi-box and empty cylinders at random depths."""
    depth = rng.randint(0, chain.max_depth)
    coord = rng.randint(0, depth)
    states = chain.spaces[coord].labels
    split = rng.randint(1, len(states) - 1)
    parts = [
        cylinder_from_constraints(chain, {coord: states[:split]}),
        intersect_cylinders(chain, cylinder_from_constraints(chain, {coord: states[split:]}),
                            random_box(rng, chain)),
    ]
    return [
        random_box(rng, chain),
        cylinder(chain, depth, [random_prefix(rng, chain, depth) for _ in range(3)]),
        disjoint_union_cylinders(chain, parts),
        cylinder(chain, depth, []),
        cylinder_from_constraints(chain, {depth: []}),
    ]


def row_route_witness(chain, a: int, prefix, cylinders) -> tuple:
    """The greedy of extract_witness, every successor scored on its rows."""
    target = max(a, max(c.depth for c in cylinders))
    point = tuple(prefix)
    for depth in range(a + 1, target + 1):
        states = chain.spaces[depth].labels
        scores = [
            content_at_depth(chain, depth, point + (s,), cylinders[-1], target)
            for s in states
        ]
        point += (states[scores.index(max(scores))],)
    return point


def test_markov_from_is_pinned():
    assert load_model(MODELS / "weather.json").chain.markov_from == 0
    assert load_model(MODELS / "drift.json").chain.markov_from == 2
    coin = FiniteSpace("C", ["H", "T"])
    assert const_chain([uniform(coin)] * 4).markov_from == 0
    doc = weather_doc(3)
    doc["steps"][2] = {"n": 2, "kind": "table", "rows": {
        "|".join(p): {"S": "1"} if p == ("S", "S", "S") else {"R": "1"}
        for p in ((x, y, z) for x in "SR" for y in "SR" for z in "SR")
    }}
    assert model_from_dict(doc).chain.markov_from == 3


def test_random_models_cover_both_routes():
    froms = [(chain.markov_from, chain.max_depth) for chain in random_models(8101, 40)]
    assert any(m == 0 for m, _ in froms)
    assert any(0 < m < d for m, d in froms)
    assert any(m == d for m, d in froms)


def test_content_matches_rows_and_paths():
    # The content is read at depth max(a, min(cyl.depth, markov_from)); each
    # ordering of cyl.depth against a and markov_from takes another branch
    # of that rule: cyl.depth <= a, a < cyl.depth <= markov_from, and
    # cyl.depth > max(a, markov_from), the lumped one.
    rng = random.Random(8102)
    orderings = [0, 0, 0]
    for chain in random_models(8102, 40):
        for a in range(chain.max_depth + 1):
            start = random_prefix(rng, chain, a)
            for cyl in random_cylinders(rng, chain):
                value = cylinder_content(chain, a, start, cyl)
                assert value == content_at_depth(chain, a, start, cyl, chain.max_depth)
                assert value == brute_force_mass(chain, start, cyl)
                orderings[(cyl.depth > a) + (cyl.depth > max(a, chain.markov_from))] += 1
    assert min(orderings) > 100, orderings


def test_witness_matches_the_row_route():
    rng = random.Random(8103)
    for chain in random_models(8103, 60):
        a = rng.randint(0, chain.max_depth - 1)
        start = random_prefix(rng, chain, a)
        families = [random_nested_family(rng, chain, start)]
        outer = random_box(rng, chain)
        if cylinder_content(chain, a, start, outer):
            inner = intersect_cylinders(chain, outer, random_box(rng, chain))
            families.append([outer, inner] if cylinder_content(chain, a, start, inner)
                            else [outer])
        for family in families:
            eps = min(cylinder_content(chain, a, start, c) for c in family)
            assert extract_witness(chain, a, start, family, eps) == row_route_witness(
                chain, a, start, family
            )


def test_cylinder_cond_exp_matches_the_indicator():
    rng = random.Random(8104)
    for chain in random_models(8104, 25):
        for cyl in random_cylinders(rng, chain)[:3]:
            for b in range(chain.max_depth + 1):
                assert cond_exp(chain, b, cyl) == cond_exp(
                    chain, b, lambda t, c=cyl: 1 if t in c else 0
                )
                for a in range(b + 1):
                    start = random_prefix(rng, chain, a)
                    assert check_cond_exp(chain, a, start, b, cyl)


def test_cond_exp_refuses_a_cylinder_of_another_model():
    chain = model_from_dict(weather_doc(3)).chain
    other = model_from_dict(weather_doc(4)).chain
    cyl = cylinder_from_constraints(other, {4: ["S"]})
    with pytest.raises(DomainError):
        cond_exp(chain, 1, cyl)
    with pytest.raises(DomainError):
        cylinder_content(chain, 0, ("S",), cyl)


def test_deep_queries_build_no_rows():
    chain = model_from_dict(weather_doc(12)).chain
    cyl = cylinder_from_constraints(chain, {3: ["S"], 12: ["S"]})
    outer = cylinder_from_constraints(chain, {3: ["S"]})
    assert cylinder_content(chain, 0, ("S",), cyl) == content_at_depth(
        chain, 0, ("S",), cyl, 12
    )
    chain._rows.clear()
    cylinder_content(chain, 0, ("S",), cyl)
    assert not chain._rows
    chain._rows.clear()
    eps = cylinder_content(chain, 0, ("S",), cyl)
    extract_witness(chain, 0, ("S",), [outer, cyl], eps)
    assert not chain._rows
    chain._rows.clear()
    table = cond_exp(chain, 8, cyl)
    assert not chain._rows
    # The row route reaches the same table through thousands of rows.
    assert table == cond_exp(chain, 8, lambda t: 1 if t in cyl else 0)
    assert len(chain._rows) > 1000
