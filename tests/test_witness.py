import random
from pathlib import Path

import pytest

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
)

from conftest import random_chain, random_nested_family, random_prefix

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
