"""Exhaustive identity checks for a loaded model, rendered as a report.

Every check builds the two values that the theory says must be equal, with
each prefix map done by index, and adds one line that is PASS iff they are
equal as exact values, the comparison the `check_*` functions make.  Every
line is written by one rule, `_line` (and `_add_flat` for the lines
decided on flat lists): a PASS renders one side and shows it in both
columns, and a FAIL shows the freshly built side first and the reference
side second.  Where the reference side is one of the model's memoized
kernels or tables (`kernel-comp`, `restrict`, `tower` and
`product-form`), or the product over coordinates 0..d (`product-law`,
`product-split` and `product-proj`), its fingerprint is rendered once per
depth pair or depth and shared by every check against it, and the fresh
side is rendered only when the check fails.

The kernel-comp, restrict and split checks decide on flat lists.  Row i
of a memoized (a, c) kernel lives only in the block of depth-c prefixes
that extend prefix i, so the kernel is one list of integer numerators by
depth-c prefix number over one denominator (`_flat_kernel`, which checks
the blocks), built once per depth pair per run.  The fresh side of
`kernel-comp:a,b,c` is the (a, b) list composed with the (b, c) list
(`_composed`), and that of `restrict:a,b,c` the (a, c) list summed over
runs of |P_c| / |P_b| (`_block_sums`).  Each is compared with its
reference list by cross-multiplied list equality (`_same`).  Both sides
of `split:a,b` (`traj_split_sides`) put the pair (i, j) only where i is
j's restriction to depth b, so by j alone they are the lists of
kernel-comp:a,b,D, and the split line takes that comparison's verdict.

One renderer, `_flat_texts`, writes every text of these three families
from a flat list, reference and fresh, PASS and FAIL: the
`canonical_kernel` text of the kernel whose row i is block i, and the
text of a split side, each entry headed by its depth-b prefix's label
(`_split_heads`).  It builds no Dist, so a fresh list that is no kernel
at all, as a fault may make it, still renders as a FAIL line.

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
import operator
from typing import Callable

from .errors import InvariantError
from .model_io import LoadedModel
from .product import (
    const_chain_law_sides,
    partial_traj_const_sides,
    product_prefix_dist,
    product_projection_sides,
    product_split_sides,
)
from .rational import ONE, ZERO, format_ratio
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
)


def run_verify(loaded: LoadedModel) -> Report:
    chain = loaded.chain
    report = Report(loaded.header())
    cond_tables, kernel_text, splits = _kernel_checks(report, chain)
    start = (chain.spaces[0].labels[0],)
    parts = _state_cylinders(chain, min(1, chain.max_depth))
    scores = [cylinder_content(chain, 0, start, c) for c in parts]
    best = scores.index(max(scores))  # the first of largest content
    _content_checks(report, chain, start, parts, scores, best)
    _witness_check(report, chain, start, parts[best])
    _condexp_checks(report, chain, cond_tables)
    del cond_tables  # not held through the split checks
    for b in range(chain.max_depth + 1):
        for a in range(b + 1):
            report.add(f"split:{a},{b}", *splits[a, b])
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


def _flat_kernel(model: ChainModel, a: int, c: int) -> tuple:
    """(values, L): the memoized (a, c) kernel, a <= c, as one list of
    integer numerators by depth-c prefix number over one denominator L, the
    lcm of its rows' denominators.

    Row i lives only in its prefix block [i * r, (i + 1) * r), for
    r = |P_c| / |P_a|: the prefixes that extend prefix i.  So the list is
    the rows' numerators, each scaled to L, at their own indices, with 0
    where a row has no mass.  Each row's sorted entries are checked against
    its block; a row that leaves it is an InvariantError naming a, c and i.
    """
    kern = model.partial_traj(a, c)
    rows = kern.rows
    run = kern.target.size // len(rows)
    denom = math.lcm(*(row._denom for row in rows))
    values = [0] * kern.target.size
    lo = 0
    for i, row in enumerate(rows):
        entries = row._numerators
        if entries[0][0] < lo or entries[-1][0] >= lo + run:
            raise InvariantError(
                f"row {i} of the ({a}, {c}) kernel leaves its prefix block [{lo}, {lo + run})"
            )
        scale = denom // row._denom
        for j, n in entries:
            values[j] = n * scale
        lo += run
    return values, denom


def _split_heads(chain: ChainModel) -> list:
    """By b, (heads, ratio) for ratio = |P_D| / |P_b| and heads the texts
    `label_b(i) + "|"` by depth-b prefix number i: the depth-D prefix
    number j heads the pair (j // ratio, j) of the pair space of split:a,b
    with `heads[j // ratio]`."""
    size_d = chain.prefix_space(chain.max_depth).size
    heads = []
    for b in range(chain.max_depth + 1):
        space_b = chain.prefix_space(b)
        heads.append(([space_b.label_at(i) + "|" for i in range(space_b.size)],
                      size_d // space_b.size))
    return heads


def _flat_texts(chain: ChainModel, a: int, c: int, flat: tuple, heads=()):
    """The canonical_kernel text of the (a, c) kernel whose row i is block
    i of the flat list (values, L), then, for each (head, ratio) of
    `heads` (see _split_heads; c = D), the text of the split side that
    pairs the entry j with the depth-b prefix j // ratio.

    Each nonzero entry j is `label_c(j)=format_ratio(v, L)`, which reduces
    each weight on its own, so the text is that of the reduced rows byte
    for byte; each entry's text is written once and serves every text.  No
    Dist is built, so a list whose blocks do not sum to L renders too.
    """
    values, denom = flat
    label_a, label_c = chain.prefix_space(a).label_at, chain.prefix_space(c).label_at
    run = len(values) // chain.prefix_space(a).size
    rows = []
    for i, lo in enumerate(range(0, len(values), run)):
        js = [j for j in range(lo, lo + run) if values[j]]
        rows.append((f"{label_a(i)}:", js,
                     [f"{label_c(j)}={format_ratio(values[j], denom)}" for j in js]))
    yield "; ".join(prefix + " ".join(entries) for prefix, _, entries in rows)
    for head, ratio in heads:
        yield "; ".join(
            prefix + " ".join([head[j // ratio] + entry for j, entry in zip(js, entries)])
            for prefix, js, entries in rows
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


def _add_flat(report: Report, check_id: str, fresh: tuple, reference: tuple,
              render: Callable, text: str):
    """Add the line of a kernel check decided on flat lists (values,
    denom), by `_line`'s rule with the reference's text given: PASS iff
    the two are equal as rationals (`_same`), and a FAIL shows the first
    of `render(fresh)`, the fingerprints of the fresh list's texts.
    Returns None on a PASS, else those fingerprints."""
    if _same(fresh, reference):
        report.add(check_id, True, text, text)
        return None
    texts = render(fresh)
    report.add(check_id, False, texts[0], text)
    return texts


def _same(fresh: tuple, reference: tuple) -> bool:
    """Whether two flat lists (values, denom) are equal entry by entry as
    rationals: v / d == w / e, cross-multiplied as v * e == w * d, each
    factor divided by gcd(d, e), so equal denominators compare the lists
    as they are."""
    (values, denom), (other, other_denom) = fresh, reference
    g = math.gcd(denom, other_denom)
    left, right = other_denom // g, denom // g
    if left != 1:
        values = [v * left for v in values]
    if right != 1:
        other = [w * right for w in other]
    return values == other


def _block_sums(values: list, run: int) -> list:
    """The sums of `values` over consecutive runs of `run` entries."""
    return values if run == 1 else list(map(sum, zip(*[iter(values)] * run)))


def _composed(first: tuple, second: tuple) -> tuple:
    """The flat form (see _flat_kernel) of the composition of the (a, b)
    and (b, c) kernels, from theirs: the (a, c) kernel that draws the
    depth-b prefix x from the first and continues it by the second.

    Only x's own row of the second reaches the depth-c prefixes extending
    x, the block [x * r, (x + 1) * r) for r = |P_c| / |P_b|, so the result
    is the concatenation over x of first[x] times that block of the second,
    over the product of the two denominators."""
    (head, head_denom), (tail, tail_denom) = first, second
    run = len(tail) // len(head)
    if run == 1:
        values = list(map(operator.mul, head, tail))
    else:
        values = [w * n for w, block in zip(head, zip(*[iter(tail)] * run)) for n in block]
    return values, head_denom * tail_denom


def _kernel_checks(report: Report, chain: ChainModel) -> tuple:
    """Add the kernel-comp, restrict and tower checks.  Returns the tower's
    (b, D) tables by b, each `cond_exp(chain, b, f)` as a list by depth-b
    prefix number, for f(p) = i / |P_D|, i the number of the depth-D
    prefix p; the fingerprints (a, c) -> text of the memoized kernels; and
    the split lines' (ok, column 1, column 2) by (a, b), from the verdict
    of kernel-comp:a,b,D.

    kernel-comp and restrict compare flat lists, one per memoized (a, c)
    kernel (see _flat_kernel), built and rendered once here with, for
    c = D, the reference texts of split:a,b, b = a..D: the composition of
    (a, b) and (b, c) is `_composed` of theirs, and the restriction of
    (a, c) to depth b sums its list over runs of |P_c| / |P_b| prefixes,
    the depth-c prefixes that extend one depth-b prefix.  A FAIL renders
    the fresh list, and that of kernel-comp:a,b,D also split:a,b's text."""
    depth = chain.max_depth
    spaces = [chain.prefix_space(c) for c in range(depth + 1)]
    heads = _split_heads(chain)
    flat = {(a, c): _flat_kernel(chain, a, c) for a in range(depth + 1) for c in range(a, depth + 1)}

    def render(a, c, split=()):
        return lambda values: [fingerprint(t) for t in _flat_texts(chain, a, c, values, split)]

    kernel_text, split_text = {}, {}
    for (a, c), values in flat.items():
        kernel_text[a, c], *texts = render(a, c, heads[a:] if c == depth else ())(values)
        split_text.update(((a, b), text) for b, text in enumerate(texts, a))
    splits = {}
    for a, b, c in _depth_triples(depth):
        failed = _add_flat(report, f"kernel-comp:{a},{b},{c}", _composed(flat[a, b], flat[b, c]),
                           flat[a, c], render(a, c, heads[b:b + 1] if c == depth else ()),
                           kernel_text[a, c])
        if c == depth:
            text = split_text[a, b]
            splits[a, b] = (True, text, text) if failed is None else (False, failed[1], text)
    for a, b, c in _depth_triples(depth):
        values, denom = flat[a, c]
        restricted = _block_sums(values, spaces[c].size // spaces[b].size), denom
        _add_flat(report, f"restrict:{a},{b},{c}", restricted,
                  flat[a, b], render(a, b), kernel_text[a, b])
    # One table per pair b <= c, of the test function i / |P_c| on depth-c
    # prefixes, serves as the inner stage of every (a, b, c) and as the
    # direct side of every (b, ., c), and is rendered once.  Tables are
    # lists by prefix number: each integrates the integer vector
    # 0, 1, .., |P_c| - 1 over the scale |P_c|, and each inner stage
    # integrates table (b, c)'s integer numerators over its one common
    # denominator, so every row is one integer sum read by index.
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
    return {b: tables[b, depth] for b in range(depth + 1)}, kernel_text, splits


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
    its content.  The candidates split `outer`, so ε is positive unless
    the content routes disagree, and then the line is a FAIL."""
    candidates = [
        intersect_cylinders(chain, outer, c)
        for c in _state_cylinders(chain, min(2, chain.max_depth))
    ]
    scores = [cylinder_content(chain, 0, start, c) for c in candidates]
    eps = max(scores)
    inner = candidates[scores.index(eps)]
    member = ZERO
    if eps > 0:
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


def _product_checks(report: Report, chain: ChainModel, marginals, kernel_text: dict) -> None:
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
            _add(report, f"product-form:{a},{b}", literal, kern, by_kernel, kernel_text[a, b])
    law, product = const_chain_law_sides(chain, marginals)
    _add(report, "product-law", law, product, by_dist, product_text(depth))
    for a in range(depth + 1):
        for b in range(a + 1, depth + 1):
            flattened, whole = product_split_sides(marginals, a, b)
            _add(report, f"product-split:{a},{b}", flattened, whole, by_dist, product_text(b))
            restricted, head = product_projection_sides(marginals, a, b)
            _add(report, f"product-proj:{a},{b}", restricted, head, by_dist, product_text(a))
