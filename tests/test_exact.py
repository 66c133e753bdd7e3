"""Exactness guards.

`0.5 == Fraction(1, 2)` is True, so a float that slipped into the
probability path would pass every equality test on dyadic weights.  These
tests pin the storage of `Dist` (equal laws, equal reduced integers), the
type of every rational the public queries return, and the absence of
floats and true division from the source.
"""
import ast
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from markovtraj import (
    Dist,
    FiniteSpace,
    TupleSpace,
    comp_measure,
    cond_exp,
    const_kernel,
    content_at_depth,
    cylinder_content,
    cylinder_from_constraints,
    expectation_table,
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
    mixed = comp_measure(uniform(pad), const_kernel(pad, dense))
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
