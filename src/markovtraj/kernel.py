"""Markov kernels between enumerated finite spaces, with exact weights.

Implements:
  * Kernel: one distribution per source point; each row stores only its
    support, as integer numerators over one denominator, so a kernel costs
    memory in the sum of its rows' supports.
  * Algebra: map_kernel (push a kernel forward along a map), comp_kernel
    (sequential composition, written first-to-last), comp_measure (bind a
    distribution through a kernel), prod_kernel (same-source pairing).

Pair-shaped targets are two-component TupleSpace instances, so joint points
are plain tuples (y, z) and all index arithmetic is the tuple space's.  The
algebra works on the rows' integer numerators, with one lcm of the row
denominators per result row and the one gcd that `Dist` reduces by.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import DomainError
from .measure import Dist, TupleSpace, product_dist, pushforward_dist


def _mix(target, d: Dist, rows: Sequence[Dist]) -> Dist:
    """Mixture sum(w_i * rows[i]) over the weights w_i of d, on target.

    With d's weights n_i / D and row i's m_ij / E_i, the mixture has
    denominator D * L for L = lcm(E_i), and numerator at j the sum of
    n_i * (L / E_i) * m_ij: one lcm for the row, all else integer.  The
    rows must live on target: callers pass a Kernel's rows, which its
    constructor checked.
    """
    parts = [(n, rows[i]) for i, n in d._numerators]
    common = math.lcm(*(row._denom for _, row in parts))
    acc: dict = {}
    for n, row in parts:
        scale = n * (common // row._denom)
        for j, m in row._numerators:
            acc[j] = acc[j] + scale * m if j in acc else scale * m
    return Dist._from_numerators(target, d._denom * common, sorted(acc.items()))


def _rows_on(target, rows: Sequence[Dist]) -> tuple:
    """`rows` as a tuple of Dists on target, else a DomainError."""
    try:
        rows = tuple(rows)
        foreign = any(row.space is not target and row.space != target for row in rows)
    except (TypeError, AttributeError):
        raise DomainError("kernel rows must be a sequence of Dist") from None
    if foreign:
        raise DomainError("kernel row lives on a different space")
    return rows


class Kernel:
    """A Markov kernel: a measurable-by-construction map source -> Dist(target).

    Parameters
    ----------
    source, target : spaces
        Enumerated spaces; `rows` is aligned with the source enumeration.
    rows : sequence of Dist
        rows[i] is the distribution of the next state given source point i.
    """

    __slots__ = ("source", "target", "rows")

    def __init__(self, source, target, rows: Sequence[Dist]):
        rows = _rows_on(target, rows)
        if len(rows) != source.size:
            raise DomainError(
                f"expected {source.size} rows, one per point of the source, got {len(rows)}"
            )
        self.source = source
        self.target = target
        self.rows = rows

    def row(self, point) -> Dist:
        """The distribution this kernel assigns to a source point."""
        return self.rows[self.source.index_of(point)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Kernel)
            and self.source == other.source
            and self.target == other.target
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(("Kernel", self.source, self.target, self.rows))

    def __repr__(self) -> str:
        return f"Kernel({self.source!r} -> {self.target!r}, {len(self.rows)} rows)"


# ---- algebra ----


def map_kernel(k: Kernel, f: Callable, target) -> Kernel:
    """Push each row of k forward along f : k.target -> target."""
    return Kernel(k.source, target, [pushforward_dist(row, f, target) for row in k.rows])


def comp_kernel(first: Kernel, second: Kernel) -> Kernel:
    """Sequential composition: run `first`, then `second` on its outcome.

    Row at x is the mixture of second's rows weighted by first.row(x).
    """
    if first.target != second.source:
        raise DomainError("composition: first.target differs from second.source")
    rows = [_mix(second.target, row, second.rows) for row in first.rows]
    return Kernel(first.source, second.target, rows)


def comp_measure(d: Dist, k: Kernel) -> Dist:
    """Law of the kernel's output when the input is drawn from d."""
    if d.space != k.source:
        raise DomainError("bind: distribution space differs from kernel source")
    return _mix(k.target, d, k.rows)


def prod_kernel(k: Kernel, l: Kernel) -> Kernel:
    """Same-source pairing x -> k(x) * l(x), a kernel into the pair space.

    The two coordinates are independent given the common input.
    """
    if k.source != l.source:
        raise DomainError("pairing: kernels have different sources")
    rows = [product_dist([kr, lr]) for kr, lr in zip(k.rows, l.rows)]
    return Kernel(k.source, TupleSpace([k.target, l.target]), rows)


def _couple(d: Dist, rows: Sequence[Dist], target) -> Dist:
    """Joint law of (x, y), x ~ d and y ~ rows[x % len(rows)], on a space
    indexed x*|Y| + y, where |Y| = |target| / |d.space|.

    That is the pair space, and also the prefix space one depth deeper when
    d is a prefix law and `rows` the chain's step that appends y.  The
    entries come out sorted and distinct, since x * |Y| + y increases.
    """
    y_size = target.size // d.space.size
    period = len(rows)
    parts = [(x, n, rows[x % period]) for x, n in d._numerators]
    common = math.lcm(*(row._denom for _, _, row in parts))
    items = []
    for x, n, row in parts:
        base = x * y_size
        scale = n * (common // row._denom)
        items.extend([(base + y, scale * m) for y, m in row._numerators])
    return Dist._from_numerators(target, d._denom * common, items)
