"""Exactness guards.

`0.5 == Fraction(1, 2)` is True, so a float that slipped into the
probability path would pass every equality test on dyadic weights.  These
tests pin the storage of `Dist` (equal laws, equal reduced integers), the
type of every rational the public queries return, that the library API
takes only exact rationals (as the model file and the CLI do), and the
absence of floats and true division from the source.
"""
import ast
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovtraj import (
    Dist,
    DomainError,
    FiniteSpace,
    Kernel,
    TupleSpace,
    comp_measure,
    cond_exp,
    content_at_depth,
    cylinder_content,
    cylinder_from_constraints,
    expectation_table,
    extract_witness,
    load_model,
    product_dist,
    pushforward_dist,
    traj_marginal,
    uniform,
)
from markovtraj.trajectory import cond_exp_sides

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "markovtraj").glob("*.py"))
MODELS = sorted((ROOT / "models").glob("*.json"))


def stored_gcd(d: Dist) -> int:
    return math.gcd(d._denom, *(n for _, n in d._numerators))


# ---- equal laws, equal storage ----


@st.composite
def weight_lists(draw):
    weights = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5).filter(any))
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@given(weight_lists(), weight_lists(), st.integers(1, 4), st.randoms())
@settings(deadline=None, max_examples=150)
def test_equal_laws_have_equal_storage(weights, other_weights, k, rnd):
    space = FiniteSpace("X", [f"s{i}" for i in range(len(weights))])
    dense = Dist(space, weights)
    items = list(enumerate(weights))
    rnd.shuffle(items)
    sparse = Dist.from_support(space, items)
    pad = FiniteSpace("Y", [f"t{j}" for j in range(k)])
    # A uniform factor multiplies every denominator by k; projecting it away
    # and mixing k equal rows must reduce back to the same storage.
    projected = pushforward_dist(product_dist([uniform(pad), dense]), lambda p: p[1], space)
    mixed = comp_measure(uniform(pad), Kernel(pad, space, (dense,) * pad.size))
    for law in (sparse, projected, mixed):
        assert law == dense
        assert hash(law) == hash(dense)
        assert law.support() == dense.support()
        assert stored_gcd(law) == 1
    assert stored_gcd(dense) == 1

    other = Dist(FiniteSpace("Z", [f"u{i}" for i in range(len(other_weights))]), other_weights)
    product = product_dist([dense, other])
    literal = Dist.from_support(
        TupleSpace([space, other.space]),
        [
            (i * other.space.size + j, w * v)
            for i, w in enumerate(weights)
            for j, v in enumerate(other_weights)
        ],
    )
    assert product == literal
    assert hash(product) == hash(literal)
    assert product.support() == literal.support()
    assert stored_gcd(product) == stored_gcd(literal) == 1


# ---- every returned rational is a Fraction ----


def test_public_queries_return_fractions():
    values = []
    for path in MODELS:
        chain = load_model(path).chain
        depth = chain.max_depth
        start = (chain.spaces[0].labels[0],)
        full = cylinder_from_constraints(chain, {0: list(chain.spaces[0].labels)})
        last = cylinder_from_constraints(chain, {depth: [chain.spaces[depth].labels[-1]]})
        values += [
            cylinder_content(chain, 0, start, full),  # exactly 1
            cylinder_content(chain, 0, start, last),
            content_at_depth(chain, 0, start, last, depth),
        ]
        for a in range(depth + 1):
            for b in range(depth + 1):
                for row in chain.partial_traj(a, b).rows:
                    values += [w for _, w in row.support()]
                    values += [row.weight_at(p) for p in row.space.points()[:4]]
                    values.append(row.integrate(lambda p: 1))
            values += expectation_table(chain, a, depth, lambda t: 2).values()
            values += cond_exp(chain, a, lambda t: -1 if t in last else 0).values()
            lhs, rhs = cond_exp_sides(
                chain, 0, start, a, lambda t: 1, cond_exp(chain, a, lambda t: 1)
            )
            values += [*lhs.values(), *rhs.values()]
        law = traj_marginal(chain, 0, start, depth)
        values += [w for _, w in law.support()]
    assert values
    assert {type(v) for v in values} == {Fraction}


# ---- the library takes exact rationals only ----


W = FiniteSpace("W", ["S", "R"])
WEATHER = load_model(ROOT / "models" / "weather.json").chain
ONE_S = cylinder_from_constraints(WEATHER, {1: ["S"]})

# Each of these was accepted (or failed with a bare TypeError or KeyError)
# while Fraction() did the conversion: a float, a decimal, a non-ASCII digit.
INEXACT = {
    "float weights": lambda: Dist(W, [0.5, 0.5]),
    "decimal strings": lambda: Dist(W, ["0.75", "0.25"]),
    "Decimal weights": lambda: Dist(W, [Decimal("0.5"), Decimal("0.5")]),
    "non-ASCII digit": lambda: Dist(W, ["\u0661/2", "1/2"]),
    "float support": lambda: Dist.from_support(W, [(0, 0.25), (1, 0.75)]),
    "float integrand": lambda: expectation_table(WEATHER, 0, 1, lambda p: 0.1),
    "None integrand": lambda: expectation_table(WEATHER, 0, 1, lambda p: None),
    "table lacks a prefix": lambda: expectation_table(WEATHER, 0, 1, {}),
    "cond_exp_sides float": lambda: cond_exp_sides(
        WEATHER, 0, ("S",), 1, lambda t: 0.5, cond_exp(WEATHER, 1, lambda t: 1)
    ),
    "cond_exp_sides short table": lambda: cond_exp_sides(WEATHER, 0, ("S",), 1, lambda t: 1, {}),
    "float eps": lambda: extract_witness(WEATHER, 0, ("S",), [ONE_S], 0.5),
    "decimal eps": lambda: extract_witness(WEATHER, 0, ("S",), [ONE_S], "0.5"),
}


@pytest.mark.parametrize("call", INEXACT.values(), ids=INEXACT.keys())
def test_inexact_inputs_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_exact_inputs_of_every_form_agree():
    law = Dist(W, ["3/4", "1/4"])  # the README's example
    assert Dist(W, [Fraction(3, 4), Fraction(1, 4)]) == law
    assert Dist.from_support(W, [(0, "3/4"), (1, Fraction(1, 4))]) == law
    assert Dist(FiniteSpace("X", ["a", "b"]), [1, 0]).support() == ((0, 1),)
    for eps in ("9/16", Fraction(9, 16)):
        assert extract_witness(WEATHER, 0, ("S",), [ONE_S], eps) == ("S", "S")
    table = expectation_table(WEATHER, 0, 1, {("S", "S"): 1, ("S", "R"): "1/2",
                                              ("R", "S"): Fraction(1, 3), ("R", "R"): 0})
    assert table == {("S",): Fraction(7, 8), ("R",): Fraction(1, 6)}


# ---- no float and no true division in the source ----


def test_source_has_no_floats_or_true_division():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where} float literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append(f"{where} float(...) call")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{where} true division")
    assert SOURCES
    assert found == []
