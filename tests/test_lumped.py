"""The lumped route for steps that read only the last state.

From depth `markov_from` on, cylinder contents, witness scores and
cylinder conditional expectations are read off a backward pass over the
law of the last state instead of the memoized rows.  Every value here is
compared, with exact equality, against the membership route
(`content_at_depth`, which integrates the indicator `t in cyl` against a
row; the greedy on those contents; `cond_exp` of the indicator as a
function) and against the path-enumeration oracles of conftest, on random
models that mix "table", "last-state" and "const" steps; and, at depths
past path enumeration, against conftest's forward pass over the model
document, up to depth 200 on chains built by ChainModel past the loader's
cap.
"""
import itertools
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
    expectation_table,
    extract_witness,
    intersect_cylinders,
    load_model,
    model_from_dict,
    uniform,
)

from conftest import (
    brute_force_content,
    brute_force_prefix_law,
    doc_chain,
    forward_content,
    random_chain,
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
    # drift reads history up to depth 2 (markov_from = 2); from a depth-2
    # prefix the witness's pass starts at the prefix itself, so neither its
    # content nor its successors read a row.
    drift = load_model(MODELS / "drift.json").chain
    start = ("L", "M", "L")
    outer = cylinder_from_constraints(drift, {2: ["L"]})
    inner = cylinder_from_constraints(drift, {2: ["L"], 3: ["R"]})
    eps = cylinder_content(drift, 2, start, inner)
    drift._rows.clear()
    assert extract_witness(drift, 2, start, [outer, inner], eps) == start + ("R",)
    assert not drift._rows


def test_shallow_cylinder_cond_exp_builds_no_rows():
    # A cylinder no deeper than b is decided by the first b coordinates, so
    # its backward pass starts at b on any chain: cond_exp reads no row even
    # where the steps still read history (b < markov_from).
    drift = load_model(MODELS / "drift.json").chain
    table = random_chain(random.Random(2809), 4)
    cases = [
        (drift, 1, {1: ["L"]}),
        (table, 2, {0: ["s0"], 2: ["s1"]}),
        (table, 3, {1: ["s0", "s1"], 3: ["s1"]}),
        (table, 3, {2: ["s0"]}),
    ]
    for chain, b, constraints in cases:
        assert b < chain.markov_from
        cyl = cylinder_from_constraints(chain, constraints)
        chain._rows.clear()
        values = cond_exp(chain, b, cyl)
        assert not chain._rows
        assert values == cond_exp(chain, b, lambda t, c=cyl: 1 if t in c else 0)


def test_cylinder_cond_exp_reads_rows_only_to_the_pass_start():
    # cond_exp of a cylinder scores every depth-b prefix by the box route:
    # on rows up to lo = max(b, min(cyl.depth, markov_from)), the start of
    # its backward pass, and on the pass past it, never on (b, D) rows.
    rng = random.Random(3201)
    chains = [random_chain(rng) for _ in range(15)] + random_models(3202, 25)
    for chain in chains:
        depth = chain.max_depth
        for cyl in random_cylinders(rng, chain):
            for b in range(depth + 1):
                chain._rows.clear()
                chain._partial.clear()
                table = cond_exp(chain, b, cyl)
                lo = max(b, min(cyl.depth, chain.markov_from))
                assert all(key[1] <= lo for key in [*chain._rows, *chain._partial])
                assert table == expectation_table(
                    chain, b, depth, lambda t, c=cyl: 1 if t in c else 0
                )


# ---- past path enumeration: the forward pass over the document ----


def test_forward_pass_matches_path_enumeration():
    rng = random.Random(8105)
    for _ in range(60):
        doc = random_model_doc(rng, rng.randint(2, 6))
        chain = model_from_dict(doc).chain
        a = rng.randint(0, chain.max_depth)
        start = random_prefix(rng, chain, a)
        constraints = {
            k: set(rng.sample(chain.spaces[k].labels, rng.randint(0, chain.spaces[k].size)))
            for k in {rng.randint(0, chain.max_depth) for _ in range(rng.randint(1, 3))}
        }
        assert forward_content(doc, start, constraints) == brute_force_content(
            chain, start, constraints
        )


def deep_two_state_doc(rng, depth: int, head: int | None = None) -> dict:
    """A two-state document of the given depth: a head of `head` "table"
    steps (1-3 at random if not given), then "last-state" steps, each row
    over a random denominator 2..13."""
    states = ["S", "R"]

    def row() -> dict:
        q = rng.randint(2, 13)
        p = rng.randint(1, q - 1)
        return {"S": f"{p}/{q}", "R": f"{q - p}/{q}"}

    if head is None:
        head = rng.randint(1, 3)
    steps = []
    for n in range(depth):
        if n < head:
            prefixes = itertools.product(states, repeat=n + 1)
            rows = {"|".join(p): row() for p in prefixes}
            steps.append({"n": n, "kind": "table", "rows": rows})
        else:
            steps.append({"n": n, "kind": "last-state", "rows": {s: row() for s in states}})
    return {"maxDepth": depth, "spaces": [{"id": "W", "states": states}], "steps": steps}


def test_deep_contents_match_the_forward_pass():
    # Depths 13-19 are past path enumeration, and their denominators are
    # products of up to 19 step denominators; every constraint set reaches
    # the deep half of the chain.
    rng = random.Random(8106)
    checked = 0
    for depth in (13, 15, 17, 19):
        doc = deep_two_state_doc(rng, depth)
        chain = model_from_dict(doc).chain
        b = max(chain.markov_from, 2)
        for _ in range(3):
            coords = {rng.randint(depth // 2, depth)}
            coords |= {rng.randint(0, depth) for _ in range(rng.randint(0, 2))}
            constraints = {k: set(rng.sample(["S", "R"], rng.randint(1, 2))) for k in coords}
            cyl = cylinder_from_constraints(chain, constraints)
            for a in range(3):
                for start in itertools.product(["S", "R"], repeat=a + 1):
                    assert cylinder_content(chain, a, start, cyl) == forward_content(
                        doc, start, constraints
                    )
                    checked += 1
            for point, value in cond_exp(chain, b, cyl).items():
                assert value == forward_content(doc, point, constraints)
                checked += 1
    assert checked >= 200, checked


# ---- depth 200: past the loader's cap, built by ChainModel from the document ----


def deep_cases(seed: int):
    """(rng, doc, chain): a document of depth 200 and its chain, one per
    head of 1, 2 and 3 "table" steps, and the generator that made them."""
    rng = random.Random(seed)
    for head in (1, 2, 3):
        doc = deep_two_state_doc(rng, 200, head)
        yield rng, doc, doc_chain(doc)


def deep_constraints(rng) -> dict:
    """One state at a coordinate in 150..200, and up to two random sets."""
    constraints = {rng.randint(150, 200): {rng.choice(["S", "R"])}}
    for k in {rng.randint(0, 200) for _ in range(rng.randint(0, 2))}:
        constraints.setdefault(k, set(rng.sample(["S", "R"], rng.randint(1, 2))))
    return constraints


def test_depth_200_contents_match_the_forward_pass():
    for rng, doc, chain in deep_cases(2704):
        for _ in range(2):
            constraints = deep_constraints(rng)
            cyl = cylinder_from_constraints(chain, constraints)
            # more than 2^63 prefixes: equality and hash count them as ints
            same = cylinder_from_constraints(chain, constraints)
            assert cyl == same and hash(cyl) == hash(same)
            for a in range(3):
                for start in itertools.product(["S", "R"], repeat=a + 1):
                    assert cylinder_content(chain, a, start, cyl) == forward_content(
                        doc, start, constraints
                    )


def test_depth_200_cond_exp_matches_the_forward_pass():
    for rng, doc, chain in deep_cases(2705):
        b = max(chain.markov_from, 2)
        constraints = deep_constraints(rng)
        table = cond_exp(chain, b, cylinder_from_constraints(chain, constraints))
        assert len(table) == 2 ** (b + 1)
        for point, value in table.items():
            assert value == forward_content(doc, point, constraints)


def test_depth_200_witness_is_the_forward_greedy():
    # The innermost cylinder constrains coordinate 200; each greedy step
    # takes the first successor of largest forward-pass content.  One
    # document, with the longest table head: the reference makes 400
    # forward passes.
    rng = random.Random(2706)
    doc = deep_two_state_doc(rng, 200, 3)
    chain = doc_chain(doc)
    a = rng.randint(0, 2)
    start = tuple(rng.choice(["S", "R"]) for _ in range(a + 1))
    outer = {rng.randint(a + 1, 100): {rng.choice(["S", "R"])}}
    inner = {**outer, 200: {rng.choice(["S", "R"])}}
    cylinders = [cylinder_from_constraints(chain, c) for c in (outer, inner)]
    point = extract_witness(chain, a, start, cylinders, forward_content(doc, start, inner))
    expected = start
    for _ in range(a + 1, 201):
        scores = [forward_content(doc, expected + (s,), inner) for s in ("S", "R")]
        expected += (("S", "R")[scores.index(max(scores))],)
    assert point == expected
