"""Exhaustive identity checks for a loaded model, rendered as a report.

Every check builds the two values that the theory says must be equal, with
each prefix map done by index (`restrict` restricts each memoized (a, c)
row by `measure._restrict`), and adds one line that is PASS iff they are
equal under `==`, the comparison the `check_*` functions make.  Every
line is written by one rule, `_line`: a PASS renders one side and shows
it in both columns, and a FAIL shows the freshly built side first and
the reference side second.  Where the reference side is one of the
model's memoized kernels or tables (`kernel-comp`, `restrict`, `tower`
and `product-form`), or the product over coordinates 0..d (`product-law`,
`product-split` and `product-proj`), its fingerprint is rendered once per
depth pair or depth and shared by every check against it, and the fresh
side is rendered only when the check fails.  The reference text of
`split:a,b` is joined from the entry texts of the memoized (a, D) rows,
rendered once per a, and one list of head labels per b (`_split_texts`),
so it too is rendered without a label lookup per entry; the split lines
are added in their (b, a) order once every a is done.

The tower and condexp checks work by prefix number.  Each tower table is
a list by depth-b prefix number that integrates the integer vector
0, 1, .., |P_c| - 1 of depth-c prefix numbers and divides by |P_c| once
per row, and each inner stage integrates a table's integer numerators
over its one common denominator, so every row is one integer sum read by
index (`trajectory._row_integrals`).  `condexp:a,b` compares the sides of
`trajectory._cond_exp_blocks`, the routine behind `cond_exp_sides`, as
{depth-b prefix number: rational} dicts; tables render by `label_at`, so
no prefix tuple is built.  All depth combinations of the model are
covered, so the cost grows quickly with maxDepth; this is meant for the
small models that ship in model files.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

from .kernel import Kernel, comp_kernel
from .measure import _restrict, dist_lines
from .model_io import LoadedModel
from .product import (
    const_chain_law_sides,
    partial_traj_const_sides,
    product_prefix_dist,
    product_projection_sides,
    product_split_sides,
)
from .rational import ONE, ZERO
from .report import (
    Report,
    canonical_dist,
    canonical_kernel,
    canonical_table,
    fingerprint,
)
from .trajectory import (
    ChainModel,
    content_at_depth,
    cylinder_content,
    cylinder_from_constraints,
    disjoint_union_cylinders,
    extract_witness,
    intersect_cylinders,
    _cond_exp_blocks,
    _row_integrals,
    traj_split_sides,
)


def run_verify(loaded: LoadedModel) -> Report:
    chain = loaded.chain
    report = Report(loaded.header())
    kernel_text = _kernel_texts(chain)
    cond_tables = _kernel_checks(report, chain, kernel_text)
    start = (chain.spaces[0].labels[0],)
    parts = _state_cylinders(chain, min(1, chain.max_depth))
    scores = [cylinder_content(chain, 0, start, c) for c in parts]
    best = scores.index(max(scores))  # the first of largest content
    _content_checks(report, chain, start, parts, scores, best)
    _witness_check(report, chain, start, parts[best])
    _condexp_checks(report, chain, cond_tables)
    del cond_tables  # not held through the split checks
    _split_checks(report, chain)
    if loaded.marginals is not None:
        _product_checks(report, chain, loaded.marginals, kernel_text)
    return report


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


def _line(check_id: str, lhs, rhs, render: Callable, rhs_text=None) -> tuple:
    """The line (check_id, ok, column 1, column 2) of the check `lhs == rhs`,
    where lhs is the freshly built side.

    `rhs_text`, if given, is the rendering of rhs.  A PASS shows `rhs_text`,
    or else `render(lhs)`, in both columns; a FAIL shows `render(lhs)` and
    then `rhs_text` or `render(rhs)`.
    """
    if lhs == rhs:
        text = render(lhs) if rhs_text is None else rhs_text
        return check_id, True, text, text
    return check_id, False, render(lhs), render(rhs) if rhs_text is None else rhs_text


def _add(report: Report, *check) -> None:
    """Add the line `_line(*check)`."""
    report.add(*_line(*check))


def _kernel_checks(report: Report, chain: ChainModel, kernel_text: Callable) -> dict:
    """Add the kernel-comp, restrict and tower checks.  Returns the tower's
    (b, D) tables by b, each `cond_exp(chain, b, f)` as a list by depth-b
    prefix number, for f(p) = i / |P_D|, i the number of the depth-D
    prefix p."""
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
    # One table per pair b <= c, of the test function i / |P_c| on depth-c
    # prefixes, serves as the inner stage of every (a, b, c) and as the
    # direct side of every (b, ., c), and is rendered once.  Tables are
    # lists by prefix number: each integrates the integer vector
    # 0, 1, .., |P_c| - 1 over the scale |P_c|, and each inner stage
    # integrates table (b, c)'s integer numerators over its one common
    # denominator, so every row is one integer sum read by index.
    spaces = [chain.prefix_space(c) for c in range(depth + 1)]
    tables = {}
    for c in range(depth + 1):
        identity = list(range(spaces[c].size))
        for b in range(c + 1):
            tables[b, c] = _row_integrals(chain, b, c, identity, spaces[c].size)
    numerators = {pair: _integer_form(table) for pair, table in tables.items()}
    table_text = functools.cache(
        lambda a, c: fingerprint(canonical_table(spaces[a], tables[a, c]))
    )
    for a, b, c in _depth_triples(depth):
        values, denom = numerators[b, c]
        _add(report, f"tower:{a},{b},{c}",
             _row_integrals(chain, a, b, values, denom), tables[a, c],
             _fingerprinted(canonical_table, spaces[a]), table_text(a, c))
    return {b: tables[b, depth] for b in range(depth + 1)}


def _integer_form(table: list) -> tuple:
    """([integer numerator], L) for a list of rationals whose denominators
    have the least common multiple L."""
    denom = math.lcm(*(value.denominator for value in table))
    return [value.numerator * (denom // value.denominator) for value in table], denom


def _state_cylinders(chain: ChainModel, coord: int) -> list:
    """The cylinders {x_coord = s}, one per state s in enumeration order."""
    return [cylinder_from_constraints(chain, {coord: [s]}) for s in chain.spaces[coord].points()]


def _content_checks(report: Report, chain: ChainModel, start, parts, scores, best) -> None:
    """`parts` are the cylinders {x_coord = s}, coord = min(1, D), `scores`
    their contents from `start`, and `parts[best]` the first of largest
    content.  content-depth checks that one's score by membership, and
    content-additive the scores' sum against the content of their union."""
    _add(report, "content-depth", scores[best],
         content_at_depth(chain, 0, start, parts[best], chain.max_depth), str)
    union = cylinder_content(chain, 0, start, disjoint_union_cylinders(chain, parts))
    _add(report, "content-additive", sum(scores, ZERO), union, str)


def _witness_check(report: Report, chain: ChainModel, start, outer) -> None:
    """`inner` is the first of largest content among the cylinders
    outer ∩ {x_coord = t}, coord = min(2, D), each scored once, and ε is
    its content, which is positive because the candidates split `outer`."""
    candidates = [
        intersect_cylinders(chain, outer, c)
        for c in _state_cylinders(chain, min(2, chain.max_depth))
    ]
    scores = [cylinder_content(chain, 0, start, c) for c in candidates]
    eps = max(scores)
    inner = candidates[scores.index(eps)]
    witness = extract_witness(chain, 0, start, [outer, inner], eps)
    member = ONE if witness in outer and witness in inner else ZERO
    _add(report, "witness-member", member, ONE, str)


def _condexp_checks(report: Report, chain: ChainModel, tables: dict) -> None:
    """`tables[b]` is `cond_exp(chain, b, f)` by prefix number, for
    f(p) = i / |P_D|, i the number of the depth-D prefix p.  Each check
    starts from depth-a prefix 0 and compares `_cond_exp_blocks`' sides as
    {depth-b prefix number: rational} dicts."""
    depth = chain.max_depth
    size = chain.prefix_space(depth).size
    identity = list(range(size))
    for b in range(depth + 1):
        render = _fingerprinted(canonical_table, chain.prefix_space(b))
        table = tables[b].__getitem__
        for a in range(b + 1):
            blocks = _cond_exp_blocks(chain, a, 0, b, identity, size, table)
            lhs = {i: left for i, left, _ in blocks}
            rhs = {i: right for i, _, right in blocks}
            _add(report, f"condexp:{a},{b}", lhs, rhs, render)


def _split_checks(report: Report, chain: ChainModel) -> None:
    """Add the split checks, in the order (b, a), once every a is done."""
    by_kernel = _fingerprinted(canonical_kernel)
    lines = {}
    for (a, b), text in _split_texts(chain):
        two_stage, direct = traj_split_sides(chain, a, b)
        lines[a, b] = _line(f"split:{a},{b}", two_stage, direct, by_kernel, fingerprint(text))
    for b in range(chain.max_depth + 1):
        for a in range(b + 1):
            report.add(*lines[a, b])


def _split_texts(chain: ChainModel):
    """((a, b), canonical_kernel text of the direct side of split:a,b), for
    a <= b, with a in the outer loop.

    The direct side's row i holds, for each entry (j, n) of the (a, D) row
    i, the pair (j // ratio, j) with ratio = |P_D| / |P_b|, which the pair
    space labels `label_b(j // ratio) + "|" + label_D(j)`.  So its text is
    joined from the (a, D) rows' entry texts, rendered once per a and held
    only while that a is processed, and one list of head labels per b over
    P_D.
    """
    depth = chain.max_depth
    size_d = chain.prefix_space(depth).size
    heads = []
    for b in range(depth + 1):
        space_b = chain.prefix_space(b)
        labels = [space_b.label_at(i) + "|" for i in range(space_b.size)]
        ratio = size_d // space_b.size
        heads.append([label for label in labels for _ in range(ratio)])
    for a in range(depth + 1):
        label_a = chain.prefix_space(a).label_at
        rows = [
            (f"{label_a(i)}:", [j for j, _ in row._numerators], list(dist_lines(row, "=")))
            for i, row in enumerate(chain.partial_traj(a, depth).rows)
        ]
        for b in range(a, depth + 1):
            head = heads[b]
            yield (a, b), "; ".join(
                prefix + " ".join([head[j] + entry for j, entry in zip(js, entries)])
                for prefix, js, entries in rows
            )


def _product_checks(report: Report, chain: ChainModel, marginals, kernel_text: Callable) -> None:
    """Add the product checks.  The reference side of `product-law`,
    `product-split:a,b` and `product-proj:a,b` is `product_prefix_dist` at
    depth D, b and a, whose text is rendered once per depth."""
    depth = chain.max_depth
    by_kernel = _fingerprinted(canonical_kernel)
    by_dist = _fingerprinted(canonical_dist)
    product_text = functools.cache(lambda d: by_dist(product_prefix_dist(marginals, d)))
    for a in range(depth + 1):
        for b in range(a, depth + 1):
            kern, literal = partial_traj_const_sides(chain, marginals, a, b)
            _add(report, f"product-form:{a},{b}", literal, kern, by_kernel, kernel_text(a, b))
    law, product = const_chain_law_sides(chain, marginals)
    _add(report, "product-law", law, product, by_dist, product_text(depth))
    for a in range(depth + 1):
        for b in range(a + 1, depth + 1):
            flattened, whole = product_split_sides(marginals, a, b)
            _add(report, f"product-split:{a},{b}", flattened, whole, by_dist, product_text(b))
            restricted, head = product_projection_sides(marginals, a, b)
            _add(report, f"product-proj:{a},{b}", restricted, head, by_dist, product_text(a))
