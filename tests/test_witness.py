import random
from pathlib import Path

import pytest

import markovtraj.trajectory
from markovtraj import (
    DomainError,
    InvariantError,
    PreconditionError,
    Rat,
    cylinder,
    cylinder_content,
    cylinder_from_constraints,
    extract_witness,
    intersect_cylinders,
    load_model,
    model_from_dict,
)

from conftest import (
    doc_chain,
    positive_extension,
    random_chain,
    random_model_doc,
    random_nested_family,
    random_prefix,
    weather_doc,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_witness_frozen_example(weather):
    outer = cylinder_from_constraints(weather, {1: ["S"]})
    inner = intersect_cylinders(
        weather, outer, cylinder_from_constraints(weather, {2: ["S"]})
    )
    # contents from (S) are 3/4 and 9/16; greedy picks S at every depth
    witness = extract_witness(weather, 0, ("S",), [outer, inner], Rat(9, 16))
    assert witness == ("S", "S", "S")


def test_witness_stays_at_prefix_depth_when_cylinders_do(weather):
    cyl = cylinder_from_constraints(weather, {0: ["R"]})
    witness = extract_witness(weather, 1, ("R", "S"), [cyl], Rat(1))
    assert witness == ("R", "S")


def test_witness_breaks_ties_by_enumeration_order(weather):
    # the full-space cylinder makes every content 1, so the first state wins
    full = cylinder(weather, 3, weather.prefix_space(3).points())
    witness = extract_witness(weather, 0, ("R",), [full], Rat(1))
    assert witness == ("R", "S", "S", "S")


def test_witness_validates_inputs(weather):
    outer = cylinder_from_constraints(weather, {1: ["S"]})
    with pytest.raises(DomainError):
        extract_witness(weather, 0, ("S",), [outer], Rat(0))
    with pytest.raises(DomainError):
        extract_witness(weather, 0, ("S",), [], Rat(1, 2))


def test_witness_requires_contents_above_bound(weather):
    outer = cylinder_from_constraints(weather, {1: ["S"]})
    # content from (S) is 3/4
    with pytest.raises(PreconditionError):
        extract_witness(weather, 0, ("S",), [outer], Rat(13, 16))


def test_witness_precondition_is_the_innermost_content():
    # Nesting makes the innermost content the least, so it alone decides
    # the precondition: eps equal to it passes and eps just above it fails,
    # also when the outer contents are strictly larger.
    rng = random.Random(2808)
    larger = 0
    for _ in range(60):
        chain = model_from_dict(random_model_doc(rng)).chain
        a = rng.randint(0, chain.max_depth)
        start = random_prefix(rng, chain, a)
        family = random_nested_family(rng, chain, start)
        contents = [cylinder_content(chain, a, start, c) for c in family]
        least = contents[-1]
        assert least == min(contents) > 0
        larger += least < contents[0]
        point = extract_witness(chain, a, start, family, least)
        assert all(point in c for c in family)
        with pytest.raises(PreconditionError):
            extract_witness(chain, a, start, family, least + Rat(1, 10 ** 12))
    assert larger >= 10, larger


def tables_chain():
    """A chain whose every step is a table (markov_from = max_depth)."""
    chain = random_chain(random.Random(2810), 3)
    assert chain.markov_from == chain.max_depth
    return chain


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("make_chain", [
    # markov_from 0, 2 and 3 = max_depth
    lambda: load_model(MODELS / "weather.json").chain,
    lambda: load_model(MODELS / "drift.json").chain,
    tables_chain,
], ids=["weather", "drift", "table"])
def test_witness_reads_one_backward_pass(monkeypatch, make_chain, count):
    # The preconditions and every successor's score come from one pass of
    # `_tails`, however many cylinders the family holds.
    chain = make_chain()
    start = (chain.spaces[0].labels[0],)
    traj = positive_extension(random.Random(count), chain, start)
    coords = (1, 2, chain.max_depth)[:count]
    family = [
        cylinder_from_constraints(chain, {k: [traj[k]] for k in coords[: i + 1]})
        for i in range(count)
    ]
    eps = cylinder_content(chain, 0, start, family[-1])
    passes = []
    tails = markovtraj.trajectory._tails

    def counted(*args):
        passes.append(args)
        return tails(*args)

    monkeypatch.setattr(markovtraj.trajectory, "_tails", counted)
    point = extract_witness(chain, 0, start, family, eps)
    assert all(point in c for c in family)
    assert len(passes) == 1


def test_witness_requires_nesting(weather):
    left = cylinder_from_constraints(weather, {1: ["S"]})
    right = cylinder_from_constraints(weather, {2: ["S"]})
    with pytest.raises(PreconditionError):
        extract_witness(weather, 0, ("S",), [left, right], Rat(1, 4))


@pytest.mark.parametrize("model, start, constraints", [
    # weather: markov_from = 0, so the successors are scored by the backward
    # pass; drift: markov_from = 2, so those at depth 1 are scored on rows.
    ("weather.json", ("S",), {1: ["S"]}),
    ("drift.json", ("L",), {2: ["R"]}),
])
def test_a_point_off_the_cylinder_is_an_invariant_error(
    greedy_takes_the_lowest, model, start, constraints
):
    chain = load_model(MODELS / model).chain
    cyl = cylinder_from_constraints(chain, constraints)
    eps = cylinder_content(chain, 0, start, cyl)
    with pytest.raises(InvariantError, match="constructed point escaped a cylinder"):
        extract_witness(chain, 0, start, [cyl], eps)


def test_witness_on_random_nested_families():
    rng = random.Random(4242)
    for _ in range(40):
        chain = random_chain(rng)
        a = rng.randint(0, chain.max_depth)
        start = random_prefix(rng, chain, a)
        family = random_nested_family(rng, chain, start)
        contents = [cylinder_content(chain, a, start, c) for c in family]
        assert min(contents) > 0
        eps = min(contents) / 2
        witness = extract_witness(chain, a, start, family, eps)
        # brute-force cross-check: restriction of the witness is in each base
        assert witness[: a + 1] == start
        for c in family:
            assert witness[: c.depth + 1] in set(c.base.points())


def test_witness_builds_a_bounded_number_of_fractions(monkeypatch):
    # The successors at each depth are compared by integer numerators over
    # one denominator, so the fractions built (the bound, the content from
    # the start) do not grow with the depth of the walk.
    built = []

    def counted(*args):
        built.append(args)
        return Rat(*args)

    monkeypatch.setattr(markovtraj.trajectory, "Rat", counted)
    counts = []
    for depth in (100, 200):
        chain = doc_chain(weather_doc(depth))
        outer = cylinder_from_constraints(chain, {depth // 2: ["S"]})
        inner = cylinder_from_constraints(chain, {depth // 2: ["S"], depth: ["S"]})
        built.clear()
        point = extract_witness(chain, 0, ("S",), [outer, inner], "1/1000")
        assert len(point) == depth + 1 and point in inner
        counts.append(len(built))
    assert counts[0] == counts[1] <= 2
