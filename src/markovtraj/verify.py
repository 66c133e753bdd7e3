"""Exhaustive identity checks for a loaded model, rendered as a report.

Every check builds the two values that the theory says must be equal, with
each prefix map done by index (`restrict` restricts each memoized (a, c)
row by `measure._restrict`), and adds one line that is PASS iff they are
equal under `==`, the comparison the `check_*` functions make.  Every
line is written by one rule, `_add`: a PASS renders one side and shows
it in both columns, and a FAIL shows the freshly built side first and
the reference side second.  Where the reference side is one of the
model's memoized kernels or tables (`kernel-comp`, `restrict`, `tower`
and `product-form`), its fingerprint is rendered once per depth pair and
shared by every check against it, and the fresh side is rendered only
when the check fails.  All depth
combinations of the model are covered, so the cost grows quickly with
maxDepth; this is meant for the small models that ship in model files.
"""
from __future__ import annotations

import functools
from typing import Callable

from .kernel import Kernel, comp_kernel
from .measure import _restrict
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
    fingerprint,
)
from .trajectory import (
    ChainModel,
    cond_exp_sides,
    content_at_depth,
    cylinder_content,
    cylinder_from_constraints,
    disjoint_union_cylinders,
    extract_witness,
    intersect_cylinders,
    expectation_table,
    traj_split_sides,
)


def run_verify(loaded: LoadedModel) -> Report:
    chain = loaded.chain
    report = Report(loaded.header())
    kernel_text = _kernel_texts(chain)
    f, cond_tables = _kernel_checks(report, chain, kernel_text)
    start = _canonical_start(chain)
    outer, _ = _best_constraint_cylinder(chain, start, min(1, chain.max_depth))
    _content_checks(report, chain, start, outer)
    _witness_check(report, chain, start, outer)
    _condexp_checks(report, chain, f, cond_tables)
    del f, cond_tables  # not held through the split checks
    _split_checks(report, chain)
    if loaded.marginals is not None:
        _product_checks(report, chain, loaded.marginals, kernel_text)
    return report


def _index_fraction(space):
    """Canonical nonnegative test function: enumeration index over size.

    Its values are built once, in a dict over the listed points.
    """
    size = space.size
    return dict(zip(space.points(), (Rat(i, size) for i in range(size)))).__getitem__


def _depth_triples(depth: int):
    return (
        (a, b, c)
        for a in range(depth + 1)
        for b in range(a, depth + 1)
        for c in range(b, depth + 1)
    )


def _fingerprinted(canonical, *context):
    """Render of a structural value: the fingerprint of its canonical form."""
    return lambda value: fingerprint(canonical(*context, value))


def _kernel_texts(chain: ChainModel) -> Callable:
    """(a, b) -> fingerprint of the memoized `partial_traj(a, b)`, rendered
    on first use.  Only the model's own kernels are kept, never fresh ones."""
    return functools.cache(
        lambda a, b: fingerprint(canonical_kernel(chain.partial_traj(a, b)))
    )


def _add(report: Report, check_id: str, lhs, rhs, render: Callable, rhs_text=None) -> None:
    """Add the check `lhs == rhs`, where lhs is the freshly built side.

    `rhs_text`, if given, is the rendering of rhs.  A PASS shows `rhs_text`,
    or else `render(lhs)`, in both columns; a FAIL shows `render(lhs)` and
    then `rhs_text` or `render(rhs)`.
    """
    if lhs == rhs:
        text = render(lhs) if rhs_text is None else rhs_text
        report.add(check_id, True, text, text)
    else:
        report.add(check_id, False, render(lhs), render(rhs) if rhs_text is None else rhs_text)


def _kernel_checks(report: Report, chain: ChainModel, kernel_text: Callable) -> tuple:
    """Add the kernel-comp, restrict and tower checks.  Returns the index
    fraction f of the depth-D prefixes and the tower's (b, D) tables by b,
    `cond_exp(chain, b, f)`."""
    depth = chain.max_depth
    by_kernel = _fingerprinted(canonical_kernel)
    for a, b, c in _depth_triples(depth):
        composed = comp_kernel(chain.partial_traj(a, b), chain.partial_traj(b, c))
        _add(report, f"kernel-comp:{a},{b},{c}",
             composed, chain.partial_traj(a, c), by_kernel, kernel_text(a, c))
    for a, b, c in _depth_triples(depth):
        longer, target = chain.partial_traj(a, c), chain.prefix_space(b)
        restricted = Kernel(longer.source, target, [_restrict(row, target) for row in longer.rows])
        _add(report, f"restrict:{a},{b},{c}",
             restricted, chain.partial_traj(a, b), by_kernel, kernel_text(a, b))
    # One table per pair b <= c serves as the inner stage of every (a, b, c)
    # and as the direct side of every (b, ., c), and is rendered once.
    fractions = [_index_fraction(chain.prefix_space(c)) for c in range(depth + 1)]
    tables = {
        (b, c): expectation_table(chain, b, c, fractions[c])
        for b in range(depth + 1)
        for c in range(b, depth + 1)
    }
    table_text = functools.cache(
        lambda a, c: fingerprint(canonical_table(chain.prefix_space(a), tables[a, c]))
    )
    for a, b, c in _depth_triples(depth):
        _add(report, f"tower:{a},{b},{c}",
             expectation_table(chain, a, b, tables[b, c]), tables[a, c],
             _fingerprinted(canonical_table, chain.prefix_space(a)), table_text(a, c))
    return fractions[depth], {b: tables[b, depth] for b in range(depth + 1)}


def _canonical_start(chain: ChainModel) -> tuple:
    return (chain.spaces[0].labels[0],)


def _best_constraint_cylinder(chain: ChainModel, start, coord: int, within=None):
    """Cylinder {x_coord = s} (intersected with `within`) of largest content.

    Ties go to the first state in enumeration order, so the choice is
    deterministic; the maximum is positive because the candidate contents
    sum to the content of `within` (or to 1).
    """
    scored = []
    for s in chain.spaces[coord].points():
        cand = cylinder_from_constraints(chain, {coord: [s]})
        if within is not None:
            cand = intersect_cylinders(chain, within, cand)
        scored.append((cand, cylinder_content(chain, 0, start, cand)))
    return max(scored, key=lambda pair: pair[1])  # the first on ties


def _content_checks(report: Report, chain: ChainModel, start, outer) -> None:
    """`outer` is the cylinder {x_coord = s} of largest content from `start`,
    for coord = min(1, D)."""
    coord = min(1, chain.max_depth)
    _add(report, "content-depth", cylinder_content(chain, 0, start, outer),
         content_at_depth(chain, 0, start, outer, chain.max_depth), str)
    parts = [
        cylinder_from_constraints(chain, {coord: [s]})
        for s in chain.spaces[coord].points()
    ]
    total = sum((cylinder_content(chain, 0, start, c) for c in parts), ZERO)
    union = cylinder_content(chain, 0, start, disjoint_union_cylinders(chain, parts))
    _add(report, "content-additive", total, union, str)


def _witness_check(report: Report, chain: ChainModel, start, outer) -> None:
    inner, eps = _best_constraint_cylinder(
        chain, start, min(2, chain.max_depth), within=outer
    )
    witness = extract_witness(chain, 0, start, [outer, inner], eps)
    member = ONE if witness in outer and witness in inner else ZERO
    _add(report, "witness-member", member, ONE, str)


def _condexp_checks(report: Report, chain: ChainModel, f, tables: dict) -> None:
    """`tables[b]` is `cond_exp(chain, b, f)` for the index fraction f."""
    depth = chain.max_depth
    for b in range(depth + 1):
        render = _fingerprinted(canonical_table, chain.prefix_space(b))
        for a in range(b + 1):
            u = chain.prefix_space(a).point_at(0)
            lhs, rhs = cond_exp_sides(chain, a, u, b, f, tables[b])
            _add(report, f"condexp:{a},{b}", lhs, rhs, render)


def _split_checks(report: Report, chain: ChainModel) -> None:
    by_kernel = _fingerprinted(canonical_kernel)
    for b in range(chain.max_depth + 1):
        for a in range(b + 1):
            two_stage, direct = traj_split_sides(chain, a, b)
            _add(report, f"split:{a},{b}", two_stage, direct, by_kernel)


def _product_checks(report: Report, chain: ChainModel, marginals, kernel_text: Callable) -> None:
    depth = chain.max_depth
    by_kernel = _fingerprinted(canonical_kernel)
    by_dist = _fingerprinted(canonical_dist)
    for a in range(depth + 1):
        for b in range(a, depth + 1):
            kern, literal = partial_traj_const_sides(chain, marginals, a, b)
            _add(report, f"product-form:{a},{b}", literal, kern, by_kernel, kernel_text(a, b))
    law, product = const_chain_law_sides(chain, marginals)
    _add(report, "product-law", law, product, by_dist)
    for a in range(depth + 1):
        for b in range(a + 1, depth + 1):
            flattened, whole = product_split_sides(marginals, a, b)
            _add(report, f"product-split:{a},{b}", flattened, whole, by_dist)
            restricted, head = product_projection_sides(marginals, a, b)
            _add(report, f"product-proj:{a},{b}", restricted, head, by_dist)
