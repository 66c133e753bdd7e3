"""Exhaustive identity checks for a loaded model, rendered as a report.

Every check compares two values that the theory says must be equal, built
through the public operations, and adds one PASS/FAIL line.  All depth
combinations of the model are covered, so the cost grows quickly with
maxDepth; this is meant for the small models that ship in model files.
"""
from __future__ import annotations

from .kernel import Kernel, comp_kernel, map_kernel
from .measure import Dist, TupleSpace
from .model_io import LoadedModel
from .product import (
    const_chain_law_sides,
    partial_traj_const_sides,
    product_projection_sides,
    product_split_sides,
)
from .rational import ONE, ZERO, Rat
from .report import (
    Report,
    canonical_dist,
    canonical_kernel,
    canonical_table,
)
from .trajectory import (
    ChainModel,
    cond_exp,
    cond_exp_sides,
    content_at_depth,
    cylinder_content,
    cylinder_from_constraints,
    disjoint_union_cylinders,
    extract_witness,
    intersect_cylinders,
    lift_cylinder,
    expectation_table,
    traj_split_sides,
)


def run_verify(loaded: LoadedModel) -> Report:
    chain = loaded.chain
    report = Report(loaded.header())
    _kernel_checks(report, chain)
    _content_checks(report, chain)
    _witness_check(report, chain)
    _condexp_checks(report, chain)
    _split_checks(report, chain)
    if loaded.marginals is not None:
        _product_checks(report, chain, loaded.marginals)
    return report


def _index_fraction(space):
    """Canonical nonnegative test function: enumeration index over size."""
    return lambda p: Rat(space.index_of(p), space.size)


def _depth_triples(depth: int):
    return (
        (a, b, c)
        for a in range(depth + 1)
        for b in range(a, depth + 1)
        for c in range(b, depth + 1)
    )


def _kernel_checks(report: Report, chain: ChainModel) -> None:
    for a, b, c in _depth_triples(chain.max_depth):
        composed = comp_kernel(chain.partial_traj(a, b), chain.partial_traj(b, c))
        report.add_compared(
            f"kernel-comp:{a},{b},{c}",
            canonical_kernel(composed),
            canonical_kernel(chain.partial_traj(a, c)),
        )
    for a, b, c in _depth_triples(chain.max_depth):
        restricted = map_kernel(
            chain.partial_traj(a, c), lambda p: p[: b + 1], chain.prefix_space(b)
        )
        report.add_compared(
            f"restrict:{a},{b},{c}",
            canonical_kernel(restricted),
            canonical_kernel(chain.partial_traj(a, b)),
        )
    for a, b, c in _depth_triples(chain.max_depth):
        f = _index_fraction(chain.prefix_space(c))
        staged = expectation_table(chain, a, b, expectation_table(chain, b, c, f))
        direct = expectation_table(chain, a, c, f)
        space_a = chain.prefix_space(a)
        report.add_compared(
            f"tower:{a},{b},{c}",
            canonical_table(space_a, staged),
            canonical_table(space_a, direct),
        )


def _canonical_start(chain: ChainModel) -> tuple:
    return (chain.spaces[0].labels[0],)


def _best_constraint_cylinder(chain: ChainModel, start, coord: int, within=None):
    """Cylinder {x_coord = s} (intersected with `within`) of largest content.

    Ties go to the first state in enumeration order, so the choice is
    deterministic; the maximum is positive because the candidate contents
    sum to the content of `within` (or to 1).
    """
    best = None
    best_content = None
    for s in chain.spaces[coord].points():
        cand = cylinder_from_constraints(chain, {coord: [s]})
        if within is not None:
            cand = intersect_cylinders(chain, within, cand)
        content = cylinder_content(chain, 0, start, cand)
        if best_content is None or content > best_content:
            best = cand
            best_content = content
    return best, best_content


def _content_checks(report: Report, chain: ChainModel) -> None:
    start = _canonical_start(chain)
    coord = min(1, chain.max_depth)
    outer, _ = _best_constraint_cylinder(chain, start, coord)
    report.add_scalars(
        "content-depth",
        content_at_depth(chain, 0, start, outer, max(0, outer.depth)),
        content_at_depth(chain, 0, start, outer, chain.max_depth),
    )
    parts = [
        cylinder_from_constraints(chain, {coord: [s]})
        for s in chain.spaces[coord].points()
    ]
    union = disjoint_union_cylinders(chain, parts)
    total = sum((cylinder_content(chain, 0, start, c) for c in parts), ZERO)
    report.add_scalars(
        "content-additive", total, cylinder_content(chain, 0, start, union)
    )


def _witness_check(report: Report, chain: ChainModel) -> None:
    start = _canonical_start(chain)
    outer, _ = _best_constraint_cylinder(chain, start, min(1, chain.max_depth))
    inner, eps = _best_constraint_cylinder(
        chain, start, min(2, chain.max_depth), within=outer
    )
    witness = extract_witness(chain, 0, start, [outer, inner], eps)
    member = ONE
    for cyl in (outer, inner):
        lifted = lift_cylinder(chain, cyl, len(witness) - 1)
        if lifted.base.space.index_of(witness) not in lifted.base.indices:
            member = ZERO
    report.add_scalars("witness-member", member, ONE)


def _condexp_checks(report: Report, chain: ChainModel) -> None:
    depth = chain.max_depth
    f = _index_fraction(chain.prefix_space(depth))
    for b in range(depth + 1):
        space_b = chain.prefix_space(b)
        table = cond_exp(chain, b, f)
        for a in range(b + 1):
            u = chain.prefix_space(a).point_at(0)
            lhs, rhs = cond_exp_sides(chain, a, u, b, f, table)
            report.add_compared(
                f"condexp:{a},{b}",
                canonical_table(space_b, lhs),
                canonical_table(space_b, rhs),
            )


def _split_checks(report: Report, chain: ChainModel) -> None:
    depth = chain.max_depth
    for b in range(depth + 1):
        pairs = TupleSpace([chain.prefix_space(b), chain.prefix_space(depth)])
        for a in range(b + 1):
            source = chain.prefix_space(a)
            two_stage, direct = traj_split_sides(chain, a, b)
            report.add_compared(
                f"split:{a},{b}",
                _canonical_rows(source, pairs, two_stage),
                _canonical_rows(source, pairs, direct),
            )


def _canonical_rows(source, target, rows) -> str:
    """Canonical form of the kernel whose rows are (index, weight) supports."""
    return canonical_kernel(
        Kernel(source, target, [Dist.from_support(target, row) for row in rows])
    )


def _product_checks(report: Report, chain: ChainModel, marginals) -> None:
    depth = chain.max_depth
    for a in range(depth + 1):
        for b in range(a, depth + 1):
            kern, literal = partial_traj_const_sides(chain, marginals, a, b)
            report.add_compared(
                f"product-form:{a},{b}",
                canonical_kernel(kern),
                canonical_kernel(literal),
            )
    law, product = const_chain_law_sides(chain, marginals)
    report.add_compared("product-law", canonical_dist(law), canonical_dist(product))
    for a in range(depth + 1):
        for b in range(a + 1, depth + 1):
            flattened, whole = product_split_sides(marginals, a, b)
            report.add_compared(
                f"product-split:{a},{b}",
                canonical_dist(flattened),
                canonical_dist(whole),
            )
            restricted, head = product_projection_sides(marginals, a, b)
            report.add_compared(
                f"product-proj:{a},{b}",
                canonical_dist(restricted),
                canonical_dist(head),
            )
