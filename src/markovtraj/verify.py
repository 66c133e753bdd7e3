"""Exhaustive identity checks for a loaded model, rendered as a report.

Every check builds the two values that the theory says must be equal, with
each prefix map done by index, and adds one line that is PASS iff they are
equal as exact values, the comparison the `check_*` functions make.  Every
line is written by one rule, `_line` (and `_add_flat` for the lines
decided on flat lists): a PASS renders one side and shows it in both
columns, and a FAIL shows the freshly built side first and the reference
side second.  Where the reference side is one of the
model's memoized kernels or tables (`kernel-comp`, `restrict`, `tower`
and `product-form`), or the product over coordinates 0..d (`product-law`,
`product-split` and `product-proj`), its fingerprint is rendered once per
depth pair or depth and shared by every check against it, and the fresh
side is rendered only when the check fails.  The reference text of
`split:a,b` is joined from the entry texts of the memoized (a, D) rows
and the head labels of depth b (`_split_heads`), so it too is rendered
without a label lookup per entry; those entry texts are rendered once per
a, when the (a, D) kernel's own text is, and serve both (`_row_texts`).

The kernel-comp, restrict and split checks decide on flat lists.  Row i
of a memoized (a, c) kernel lives only in the block of depth-c prefixes
that extend prefix i, so the kernel is one list of integer numerators by
depth-c prefix number over one denominator (`trajectory._flat_kernel`,
which checks the blocks), built once per depth pair per run.  The fresh
side of `kernel-comp:a,b,c` is the (a, b) list composed with the (b, c)
list (`_composed`), and that of `restrict:a,b,c` the (a, c) list summed
over runs of |P_c| / |P_b|.  Each is compared with its
reference list by cross-multiplied list equality (`_same`), and no Dist
or Kernel is built unless the check fails: then the fresh list becomes
the Kernel it stands for, rows being blocks, so the line renders what was
compared (`_add_flat`).  Both sides of `split:a,b` (`traj_split_sides`)
put the pair (i, j) only where i is j's restriction to depth b, so by j
alone they are the lists of kernel-comp:a,b,D: the split line takes that
comparison's verdict and, on a FAIL, renders its fresh list in the pair
space (`_split_kernel`).

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

from .kernel import Kernel
from .measure import Dist, TupleSpace, dist_lines
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
    _flat_kernel,
    _row_integrals,
)


def run_verify(loaded: LoadedModel) -> Report:
    chain = loaded.chain
    report = Report(loaded.header())
    kernel_text, split_text = _kernel_texts(chain)
    cond_tables, splits = _kernel_checks(report, chain, kernel_text)
    start = (chain.spaces[0].labels[0],)
    parts = _state_cylinders(chain, min(1, chain.max_depth))
    scores = [cylinder_content(chain, 0, start, c) for c in parts]
    best = scores.index(max(scores))  # the first of largest content
    _content_checks(report, chain, start, parts, scores, best)
    _witness_check(report, chain, start, parts[best])
    _condexp_checks(report, chain, cond_tables)
    del cond_tables  # not held through the split checks
    _split_checks(report, chain, splits, split_text)
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


def _kernel_texts(chain: ChainModel) -> tuple:
    """(kernel_text, split_text): (a, c) -> the fingerprint of the memoized
    `partial_traj(a, c)`, and (a, b) -> that of the direct side of
    split:a,b, each rendered once.  Only the model's own kernels are kept,
    never fresh ones.

    The (a, D) rows' entry texts serve both: the first call of
    kernel_text(a, D) renders them once (`_row_texts`) and keeps the
    fingerprints of the kernel and of every split:a,b, b = a..D, not the
    texts."""
    depth = chain.max_depth
    heads = _split_heads(chain)
    splits = {}

    def render(a, c):
        if c < depth:
            return fingerprint(canonical_kernel(chain.partial_traj(a, c)))
        texts = _row_texts(chain, a, heads)
        text = fingerprint(next(texts))
        for b, split in zip(range(a, depth + 1), texts):
            splits[a, b] = fingerprint(split)
        return text

    kernel_text = functools.cache(render)

    def split_text(a, b):
        kernel_text(a, depth)
        return splits[a, b]

    return kernel_text, split_text


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


def _row_texts(chain: ChainModel, a: int, heads: list):
    """The canonical_kernel text of `partial_traj(a, D)`, then, for each b
    = a..D, that of the direct side of split:a,b.

    The direct side's row i holds, for each entry (j, n) of the (a, D) row
    i, the pair (j // ratio, j) with ratio = |P_D| / |P_b|, which the pair
    space labels `label_b(j // ratio) + "|" + label_D(j)`.  So every text
    is joined from the (a, D) rows' entry texts, each rendered once here,
    and the head labels `heads[b]` (see _split_heads).
    """
    label_a = chain.prefix_space(a).label_at
    rows = [
        (f"{label_a(i)}:", [j for j, _ in row._numerators], list(dist_lines(row, "=")))
        for i, row in enumerate(chain.partial_traj(a, chain.max_depth).rows)
    ]
    yield "; ".join(prefix + " ".join(entries) for prefix, _, entries in rows)
    for head, ratio in heads[a:]:
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
              to_kernel: Callable, text: str) -> bool:
    """Add the line of a kernel check decided on flat lists (values,
    denom), by `_line`'s rule with the reference's text given: PASS iff
    the two are equal as rationals (`_same`), and a FAIL renders only the
    fresh side, as the Kernel `to_kernel(fresh)`, so the line shows what
    was compared.  Returns the verdict."""
    same = _same(fresh, reference)
    fresh_text = text if same else fingerprint(canonical_kernel(to_kernel(fresh)))
    report.add(check_id, same, fresh_text, text)
    return same


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
    """The flat form (see trajectory._flat_kernel) of the composition of
    the (a, b) and (b, c) kernels, from theirs: the (a, c) kernel that
    draws the depth-b prefix x from the first and continues it by the
    second.

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


def _flat_rows(source, target, flat: tuple, place: Callable | None = None) -> Kernel:
    """The Kernel from `source` to `target` whose row i is block i of the
    flat list (values, denom), each nonzero entry j at index place(j) of
    `target` (j itself with no `place`); the inverse of
    trajectory._flat_kernel."""
    values, denom = flat
    run = len(values) // source.size
    rows = []
    for lo in range(0, len(values), run):
        entries = [(j, values[j]) for j in range(lo, lo + run) if values[j]]
        if place is not None:
            entries = [(place(j), n) for j, n in entries]
        rows.append(Dist._from_numerators(target, denom, entries))
    return Kernel(source, target, rows)


def _split_kernel(model: ChainModel, a: int, b: int, flat: tuple) -> Kernel:
    """One side of the split at depth b, a flat list by depth-D prefix
    number, as the kernel into the pair space of traj_split_sides."""
    depth = model.max_depth
    size_d = model.prefix_space(depth).size
    ratio = size_d // model.prefix_space(b).size
    pairs = TupleSpace([model.prefix_space(b), model.prefix_space(depth)])
    return _flat_rows(model.prefix_space(a), pairs, flat, lambda j: (j // ratio) * size_d + j)


def _kernel_checks(report: Report, chain: ChainModel, kernel_text: Callable) -> tuple:
    """Add the kernel-comp, restrict and tower checks.  Returns the tower's
    (b, D) tables by b, each `cond_exp(chain, b, f)` as a list by depth-b
    prefix number, for f(p) = i / |P_D|, i the number of the depth-D
    prefix p, and the split verdicts: (a, b) -> None where
    kernel-comp:a,b,D passed, else its fresh flat list.

    kernel-comp and restrict compare flat lists, one per memoized (a, c)
    kernel (see trajectory._flat_kernel), built once here: the
    composition of (a, b) and (b, c) is `_composed` of theirs, and the
    restriction of (a, c) to depth b sums its list over runs of
    |P_c| / |P_b| prefixes, the depth-c prefixes that extend one depth-b
    prefix."""
    depth = chain.max_depth
    spaces = [chain.prefix_space(c) for c in range(depth + 1)]
    flat = functools.cache(functools.partial(_flat_kernel, chain))

    def kernel_of(a, c):
        return lambda fresh: _flat_rows(spaces[a], spaces[c], fresh)

    splits = {}
    for a, b, c in _depth_triples(depth):
        fresh = _composed(flat(a, b), flat(b, c))
        same = _add_flat(report, f"kernel-comp:{a},{b},{c}", fresh,
                         flat(a, c), kernel_of(a, c), kernel_text(a, c))
        if c == depth:
            splits[a, b] = None if same else fresh
    for a, b, c in _depth_triples(depth):
        values, denom = flat(a, c)
        restricted = _block_sums(values, spaces[c].size // spaces[b].size), denom
        _add_flat(report, f"restrict:{a},{b},{c}", restricted,
                  flat(a, b), kernel_of(a, b), kernel_text(a, b))
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
    return {b: tables[b, depth] for b in range(depth + 1)}, splits


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


def _split_checks(report: Report, chain: ChainModel, splits: dict, split_text: Callable) -> None:
    """Add the split checks, in the order (b, a).  `splits[a, b]` is None
    where kernel-comp:a,b,D passed, else its fresh flat list, which a FAIL
    renders as the two-stage side of `traj_split_sides`."""
    for b in range(chain.max_depth + 1):
        for a in range(b + 1):
            fresh, text = splits[a, b], split_text(a, b)
            if fresh is None:
                report.add(f"split:{a},{b}", True, text, text)
            else:
                kern = _split_kernel(chain, a, b, fresh)
                report.add(f"split:{a},{b}", False, fingerprint(canonical_kernel(kern)), text)


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
