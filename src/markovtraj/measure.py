"""Enumerated finite spaces and exact rational probability distributions.

Implements:
  * FiniteSpace / TupleSpace: enumerated state spaces with a fixed, stable
    enumeration (tuple spaces are lexicographic, leftmost factor most
    significant).  A TupleSpace is a factor tuple, a length and the
    factors' cumulative sizes; the spaces of its leading coordinates
    (`_head`) share both tuples, so a chain's whole tower of prefix spaces
    holds one of each.
  * SubsetOf: a finite set of points of a space, held as enumeration
    indices.
  * Dist: a probability distribution that stores only its support, as
    (index, integer numerator) pairs over one common denominator, with
    point mass, integration, push-forward, finite products and an exact
    sampler.  Each Dist builds its draw table once, on its first draw, and
    every draw reads it in one unpack: for a denominator of at most
    _TABLE_BITS bits, one point per integer below the denominator, read at
    the drawn integer; above, the support and its cumulative numerators,
    searched by bisection.  Both read the same getrandbits stream.
  * _restrict: the one prefix restriction, by index (j -> j // (|space| /
    |target|)), one plain pass over the sorted entries that adds up each
    target point's run; `pushforward_dist` is the point-level reference.
  * product_dist: a left fold over the factors, one pass over the entries
    of the product so far per factor.
  * _integrals: the one integrator, shared by `Dist.integrate`, the
    expectation tables and the condexp blocks, of f as a callable on points
    or as int values by point number.  A row's int values are summed as
    integers times its numerators, and each distinct (numerator,
    denominator) pair of the results becomes one Fraction.
  * dist_lines: the text of a distribution's entries, each label read by
    index from its space (`label_at`).

All values are immutable after construction and all operations are pure, so
everything here is safe to share between threads.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Sequence

from .errors import DomainError
from .rational import ZERO, Rat, format_ratio, ratio_of, sum_of_ratios


class FiniteSpace:
    """An enumerated finite space of labelled states.

    Parameters
    ----------
    space_id : str
        Identifier used in diagnostics and model files.
    labels : sequence of str
        State labels; order fixes the enumeration and must be duplicate-free.
    """

    __slots__ = ("space_id", "labels", "_index")

    def __init__(self, space_id: str, labels: Sequence[str]):
        labels = tuple(labels)
        if not labels:
            raise DomainError(f"space {space_id!r} has no states")
        if len(set(labels)) != len(labels):
            raise DomainError(f"space {space_id!r} has duplicate state labels")
        self.space_id = space_id
        self.labels = labels
        self._index = {label: i for i, label in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def points(self) -> tuple:
        return self.labels

    def index_of(self, point) -> int:
        try:
            return self._index[point]
        except (KeyError, TypeError):
            raise DomainError(
                f"{point!r} is not a state of space {self.space_id!r}"
            ) from None

    def point_at(self, index: int):
        return self.labels[index]

    def label_at(self, index: int) -> str:
        return str(self.labels[index])

    def format_point(self, point) -> str:
        return str(point)

    def __contains__(self, point) -> bool:
        try:
            return point in self._index
        except TypeError:
            return False

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FiniteSpace) and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash(("FiniteSpace", self.labels))

    def __repr__(self) -> str:
        return f"FiniteSpace({self.space_id!r}, {list(self.labels)!r})"


class TupleSpace:
    """Product of component spaces, enumerated lexicographically.

    Points are tuples of component points; the leftmost coordinate is the
    most significant in the enumeration.  The empty product is the one-point
    space whose sole point is the empty tuple.

    A space is a tuple of `factors`, its `length`, the number of leading
    factors that are its coordinates (coordinate k < length is a point of
    factors[k], read in O(1)), and the cumulative sizes (1, |X_0|,
    |X_0|*|X_1|, ...) of the factors.  `_head(n)`, the space of the first n
    coordinates, shares both tuples, so the prefix spaces of a chain are
    the heads of one product of its state spaces and cost O(1) each.  The
    stride of coordinate k, what one step of its state adds to the index,
    is size // sizes[k + 1], so no stride table is stored.
    """

    __slots__ = ("factors", "_sizes", "length", "size", "_points", "_halves", "_texts")

    def __init__(self, components: Sequence):
        factors = tuple(components)
        sizes = itertools.accumulate((comp.size for comp in factors), operator.mul, initial=1)
        self._set(factors, tuple(sizes), len(factors))

    def _head(self, n: int) -> "TupleSpace":
        """The space of the first n coordinates, sharing both tuples."""
        head = object.__new__(TupleSpace)
        head._set(self.factors, self._sizes, n)
        return head

    def _set(self, factors: tuple, sizes: tuple, length: int) -> None:
        self.factors = factors
        self._sizes = sizes
        self.length = length
        self.size = sizes[length]
        self._points = None
        self._halves = None
        self._texts = None

    @property
    def components(self) -> tuple:
        """The spaces of the coordinates, factors[:length], sliced on each
        read; code that reads one coordinate reads factors[k] instead."""
        return self.factors[: self.length]

    def _cut(self) -> tuple:
        """(cut, tail size): a point is a head, the coordinates before `cut`,
        joined to a tail, the rest.

        The tail takes trailing coordinates until its size squared reaches
        the space's size, so there are about sqrt(size) heads and tails when
        the components are small.  The index of a point is the head's
        position times the tail size plus the tail's position, and its text
        (format_point) is the head's text, "|", then the tail's.
        """
        size, sizes, cut = self.size, self._sizes, self.length
        while cut and (size // sizes[cut]) ** 2 < size:
            cut -= 1
        return cut, size // sizes[cut]

    def _listing(self) -> tuple:
        """(cut, tail size, heads, tails): the one listing of the space, its
        head and tail points, built on the first points() or callable
        integrand.  index_of sums digits, point_at reads them and label_at
        keeps texts, so none of them lists it.
        """
        if self._halves is None:
            comps = self.components
            cut, tail_size = self._cut()
            heads = tuple(itertools.product(*(comp.points() for comp in comps[:cut])))
            tails = tuple(itertools.product(*(comp.points() for comp in comps[cut:])))
            self._halves = (cut, tail_size, heads, tails)
        return self._halves

    def points(self) -> tuple:
        if self._points is None:
            _, _, heads, tails = self._listing()
            self._points = tuple(head + tail for head in heads for tail in tails)
        return self._points

    def index_of(self, point) -> int:
        """The sum of each coordinate's index times its stride, folded
        leftmost first as index * |X_k| + (index of coordinate k)."""
        if not isinstance(point, tuple) or len(point) != self.length:
            raise DomainError(f"{point!r} is not a point of {self!r}")
        index = 0
        for comp, coord in zip(self.factors, point):
            index = index * comp.size + comp.index_of(coord)
        return index

    def point_at(self, index: int) -> tuple:
        """The point numbered `index`, read off its digits by `%` and `//`
        from the last coordinate, so nothing is listed at any size.  The
        index is taken as a sequence takes one (`range(size)[index]`), so an
        index past the end is an IndexError, not a point of another number."""
        index = range(self.size)[index]
        coords = []
        for comp in reversed(self.components):
            index, digit = divmod(index, comp.size)
            coords.append(comp.point_at(digit))
        return tuple(reversed(coords))

    def label_at(self, index: int) -> str:
        """The text of the point numbered `index`: format_point(point_at(index)).

        The text of each head and tail is kept once written, so each label
        costs two lookups without listing the space.
        """
        if self._texts is None:
            cut, tail_size = self._cut()
            n = self.length
            join = "|" if 0 < cut < n else ""
            self._texts = (tail_size, _text_of(self, 0, cut, join), _text_of(self, cut, n, ""))
        tail_size, head_text, tail_text = self._texts
        return head_text(index // tail_size) + tail_text(index % tail_size)

    def format_point(self, point) -> str:
        return "|".join(
            comp.format_point(coord) for comp, coord in zip(self.components, point)
        )

    def __contains__(self, point) -> bool:
        try:
            self.index_of(point)
            return True
        except DomainError:
            return False

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, TupleSpace) and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash(("TupleSpace", self.components))

    def __repr__(self) -> str:
        return f"TupleSpace({list(self.components)!r})"


def _text_of(space: TupleSpace, lo: int, hi: int, join: str) -> Callable:
    """Index -> the text of that point of the product of coordinates lo..hi-1
    of `space`, then `join`: the components' texts joined by "|"
    (format_point's rule), each written when first asked for and kept, so
    rendering costs memory in the labels it writes, not in the size of the
    space; each coordinate's state is read from the index's digits
    (`_digits`).  A single component's texts are read from it, since a
    FiniteSpace holds its labels and a TupleSpace keeps its own texts; so a
    split's pair space of two prefix spaces keeps no second copy of theirs."""
    if hi - lo == 1:
        label_at = space.factors[lo].label_at
        return (lambda i: label_at(i) + join) if join else label_at
    digits = _digits(space, lo, hi)
    return functools.cache(
        lambda i: "|".join(comp.label_at(i // stride % comp.size) for comp, stride in digits) + join
    )


def _digits(space: TupleSpace, lo: int, hi: int) -> tuple:
    """(component, stride) of each of coordinates lo..hi-1 of `space`: in
    the product of those coordinates, coordinate k of the point numbered i
    is i // stride % |X_k|, with stride sizes[hi] / sizes[k + 1]."""
    sizes = space._sizes
    return tuple((space.factors[k], sizes[hi] // sizes[k + 1]) for k in range(lo, hi))


def _points_of(space, indices) -> tuple:
    """The points of `space` numbered `indices`.  A TupleSpace's points are
    read from each index's digits (`_digits`), so nothing is listed however
    large the space is; the cost is one digit per coordinate per point."""
    if not isinstance(space, TupleSpace):
        return tuple(map(space.point_at, indices))
    digits = _digits(space, 0, space.length)
    return tuple(
        tuple(comp.point_at(j // stride % comp.size) for comp, stride in digits) for j in indices
    )


class SubsetOf:
    """A subset of an enumerated space, stored as enumeration indices."""

    __slots__ = ("space", "indices")

    def __init__(self, space, indices: Iterable[int]):
        indices = frozenset(indices)
        for i in indices:
            if not 0 <= i < space.size:
                raise DomainError(f"index {i} out of range for {space!r}")
        self.space = space
        self.indices = indices

    def points(self) -> tuple:
        return _points_of(self.space, sorted(self.indices))

    def __contains__(self, point) -> bool:
        try:
            return self.space.index_of(point) in self.indices
        except DomainError:
            return False

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubsetOf)
            and self.space == other.space
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash(("SubsetOf", self.space, self.indices))

    def __repr__(self) -> str:
        return f"SubsetOf({self.space!r}, {sorted(self.indices)!r})"


# The largest denominator bit length k whose draws read a table of one
# point per integer below the denominator, so a table holds at most 63
# entries; above it a draw bisects the cumulative numerators.  For a
# three-point row (sys.getsizeof, CPython 3.11, 2-vCPU VM) the 63-entry
# table takes 616 bytes against 200 for the bisection tables, and a draw
# reads it in 100-120 ns against 160-190 ns by bisection, best of 30 runs
# of 1000 draws.  Bench rows have k <= 4 (denominators divide 12), the
# shipped models k <= 3.
_TABLE_BITS = 6


class Dist:
    """Probability distribution over an enumerated space.

    Only the nonzero weights are stored, as one common denominator and a
    sorted tuple of (index, integer numerator) pairs, which is what all the
    algebra iterates over; an index outside that tuple has weight 0.  The
    pairs are reduced so that the denominator and the numerators have gcd 1,
    so equal laws have equal storage and `==` is a tuple compare.  A
    distribution costs memory in its support, not in its space, and one
    concentrated on few points stays cheap even when the ambient space is
    huge.  Weights must be nonnegative and sum to exactly 1, that is, the
    numerators sum to the denominator.  Weights come in as exact
    rationals (see `ratio_of`): ints, `Fraction`s or "p/q" strings, never
    floats.  `support`, `weight_at` and `integrate` hand out `Fraction`s,
    built from the numerators on each call; only the sampler's draw table
    is kept, after the first draw: one point per integer below the
    denominator when that has at most _TABLE_BITS bits, else the support
    points and cumulative numerators (see `_draw_table`).  `sample` takes
    a `random.Random`, or anything with its `getrandbits(k)`.
    """

    __slots__ = ("space", "_denom", "_numerators", "_draws")

    def __init__(self, space, weights: Iterable):
        """Build from a dense weight sequence aligned with the enumeration."""
        weights = [(i, *ratio_of(w)) for i, w in enumerate(weights)]
        if len(weights) != space.size:
            raise DomainError(
                f"expected {space.size} weights for {space!r}, got {len(weights)}"
            )
        self._set(space, *over_common_denominator(weights))

    @classmethod
    def from_support(cls, space, items: Iterable) -> "Dist":
        """Build from (index, weight) pairs; indices must be unique and in range.

        Zero weights are dropped.  Nothing proportional to the size of the
        space is allocated, so the space may be far larger than the support.
        """
        size = space.size
        entries = []
        previous = None
        for i, w in sorted(items):
            if not 0 <= i < size:
                raise DomainError(f"index {i} out of range for {space!r}")
            if i == previous:
                raise DomainError(f"index {i} given twice")
            previous = i
            entries.append((i, *ratio_of(w)))
        return cls._from_numerators(space, *over_common_denominator(entries))

    @classmethod
    def _from_numerators(cls, space, denom: int, numerators) -> "Dist":
        """The internal constructor: weights numerators[k][1] / denom.

        The (index, numerator) pairs must be sorted by index, distinct, in
        range and positive, as the callers in this package build them.
        """
        self = object.__new__(cls)
        self._set(space, denom, numerators)
        return self

    def _set(self, space, denom: int, numerators) -> None:
        # Every constructor ends here: check the sum, then reduce.
        numerators = tuple(numerators)
        values = [n for _, n in numerators]
        total = sum(values)
        if total != denom:
            raise DomainError(f"weights sum to {Rat(total, denom)}, expected 1")
        g = math.gcd(*values)
        if g > 1:
            denom //= g
            numerators = tuple((i, n // g) for i, n in numerators)
        self.space = space
        self._denom = denom
        self._numerators = numerators
        self._draws = None

    def support(self) -> tuple:
        """Nonzero (index, weight) pairs in enumeration order."""
        denom = self._denom
        return tuple((i, Rat(n, denom)) for i, n in self._numerators)

    def weight_at(self, point) -> Rat:
        """Weight of a point of the space; 0 off the support."""
        i = self.space.index_of(point)
        numerators = self._numerators
        k = bisect_left(numerators, (i,))
        if k < len(numerators) and numerators[k][0] == i:
            return Rat(numerators[k][1], self._denom)
        return ZERO

    def integrate(self, f: Callable) -> Rat:
        """Sum of f(state) * weight(state); f takes rational values of either sign."""
        return _integrals(self.space, ((self._numerators, self._denom),), f)[0]

    def sample(self, rng):
        """Draw one point; exact, and deterministic given the rng state.

        A uniform integer r below the common denominator is drawn, and the
        point is the one whose run of cumulative numerators holds r, so
        every state is hit with exactly its rational probability.  r is
        `rng.getrandbits(k)`, k the denominator's bit length, redrawn while
        it is not below the denominator.  That is the loop `randrange` runs
        on CPython 3.11, so a `random.Random` gives the same points and is
        left in the same state, a denominator of 1 included.  `rng` is a
        `random.Random` or anything with its `getrandbits(k)`: that is the
        generator's core primitive, while `randrange`'s reduction is
        library code that Python does not promise to keep across versions.
        When k <= _TABLE_BITS the point is read at position r of the draw
        table; above, r is looked up among the cumulative numerators by
        bisection.  Either way the same getrandbits calls are made, so the
        stream does not depend on which is read (see `_draw_table`).
        """
        denom, bits, points, cumulative = self._draws or self._draw_table()
        r = rng.getrandbits(bits)
        while r >= denom:
            r = rng.getrandbits(bits)
        return points[r] if cumulative is None else points[bisect_right(cumulative, r)]

    def _draw_table(self) -> tuple:
        """(denominator, its bit length k, points, cumulative numerators):
        what `sample` reads, built on the first draw and kept.

        For k <= _TABLE_BITS, `points` holds one entry per integer r below
        the denominator, the support point that bisection would find for
        r, that is each support point repeated its numerator times, and
        the cumulative numerators are None.  Above, `points` is the
        support and the cumulative numerators are kept for bisection.  The
        support points are read from their indices' digits (`_points_of`),
        so a deep prefix space is never listed.
        """
        denom = self._denom
        bits = denom.bit_length()
        numerators = self._numerators
        points = _points_of(self.space, [i for i, _ in numerators])
        if bits <= _TABLE_BITS:
            points = tuple(p for p, (_, n) in zip(points, numerators) for _ in range(n))
            cumulative = None
        else:
            cumulative = tuple(itertools.accumulate(n for _, n in numerators))
        self._draws = (denom, bits, points, cumulative)
        return self._draws

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dist)
            and self.space == other.space
            and self._denom == other._denom
            and self._numerators == other._numerators
        )

    def __hash__(self) -> int:
        return hash(("Dist", self.space, self._denom, self._numerators))

    def __repr__(self) -> str:
        return f"Dist({', '.join(dist_lines(self, ':'))})"


def over_common_denominator(entries: Iterable) -> tuple:
    """(denominator, ((index, numerator), ...)) of (index, p, q) entries.

    The entries must be sorted by index; a negative weight is an error and
    zero weights are dropped.  The result is not reduced (see Dist._set).
    """
    entries = list(entries)
    for i, p, q in entries:
        if p < 0:
            raise DomainError(f"negative weight {Rat(p, q)} at index {i}")
    denom = math.lcm(*(q for _, p, q in entries if p))
    return denom, [(i, p * (denom // q)) for i, p, q in entries if p]


def _integrals(space, rows: Iterable, f) -> list:
    """The integral of f against each of `rows`, (numerators, denominator)
    pairs on `space`: a Dist's own, or a block of its entries.

    f is a callable on the points of `space`, or a list of ints by point
    number, f[j] the value at point j.  A list is read by index, so no
    point is built and the space is not listed.  A callable's int
    values are summed as plain integers times a row's numerators, over its
    own denominator; any other value goes into one slot per denominator of
    f's values (see ratio_of, which rejects floats, decimals and None), and
    only such a row ends in `sum_of_ratios`.  Rows whose integer sums are
    the same (numerator, denominator) share one Fraction.  A TupleSpace's
    points are joined from its head and tail listing, so no call is made
    per entry and the space is never listed in full.
    """
    shared: dict = {}
    out = []
    if isinstance(f, list):
        for numerators, denom in rows:
            total = 0
            for j, n in numerators:
                total += f[j] * n
            key = (total, denom)
            value = shared.get(key)
            if value is None:
                value = shared[key] = Rat(total, denom)
            out.append(value)
        return out
    if isinstance(space, TupleSpace):
        _, width, heads, tails = space._halves or space._listing()
    else:
        width, heads, tails = 1, space.points(), None
    for numerators, denom in rows:
        total = 0
        by_denom = None
        for j, n in numerators:
            value = f(heads[j // width] + tails[j % width] if tails else heads[j])
            if type(value) is int:
                total += value * n
            else:
                if by_denom is None:
                    by_denom = {}
                p, q = ratio_of(value)
                by_denom[q] = by_denom.get(q, 0) + p * n
        if by_denom is not None:
            by_denom[1] = by_denom.get(1, 0) + total
            out.append(sum_of_ratios(by_denom, denom))
            continue
        key = (total, denom)
        value = shared.get(key)
        if value is None:
            value = shared[key] = Rat(total, denom)
        out.append(value)
    return out


def dist_lines(d, sep: str):
    """Each support entry of d as `label<sep>weight`, in enumeration order.

    Weights are written from the integer numerators, labels by the space's
    `label_at`; this is the one renderer of distributions, for `repr`, the
    CLI and the canonical forms of `report`.
    """
    label_at = d.space.label_at
    denom = d._denom
    return (f"{label_at(i)}{sep}{format_ratio(n, denom)}" for i, n in d._numerators)


def dirac(space, point) -> Dist:
    """Unit mass at a single point."""
    return Dist._from_numerators(space, 1, ((space.index_of(point), 1),))


def uniform(space) -> Dist:
    """Equal mass on every point of the space."""
    return Dist._from_numerators(space, space.size, [(i, 1) for i in range(space.size)])


def pushforward_dist(d: Dist, f: Callable, target) -> Dist:
    """Image of d under a total map f into the target space."""
    point_at = d.space.point_at
    acc: dict = {}
    for i, n in d._numerators:
        j = target.index_of(f(point_at(i)))
        acc[j] = acc.get(j, 0) + n
    return Dist._from_numerators(target, d._denom, sorted(acc.items()))


def _restrict(d: Dist, target) -> Dist:
    """Image of d under restriction to `target`, the space of its leading
    coordinates: point j goes to j // (|space| / |target|), so the sorted
    entries stay sorted and each target point's run adds up in one pass."""
    ratio = d.space.size // target.size
    items = []
    current, total = -1, 0
    for j, n in d._numerators:
        i = j // ratio
        if i != current:
            if total:
                items.append((current, total))
            current, total = i, 0
        total += n
    items.append((current, total))
    return Dist._from_numerators(target, d._denom, items)


def product_dist(dists: Sequence[Dist]) -> Dist:
    """Independent product, on the tuple space of the factors' spaces.

    Enumeration is lexicographic with the leftmost factor most significant.
    The empty product is rejected; one-point segment spaces are built
    directly where they are needed.
    """
    if not dists:
        raise DomainError("product of zero distributions is not defined")
    items, denom = dists[0]._numerators, dists[0]._denom
    # A left fold: appending factor d's entry j to the product so far at
    # index i gives index i * |d.space| + j, leftmost factor most
    # significant, so the indices come out increasing.
    for d in dists[1:]:
        size, numerators = d.space.size, d._numerators
        items = [(i * size + j, n * m) for i, n in items for j, m in numerators]
        denom *= d._denom
    return Dist._from_numerators(TupleSpace([d.space for d in dists]), denom, items)
