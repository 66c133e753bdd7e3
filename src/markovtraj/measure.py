"""Enumerated finite spaces and exact rational probability distributions.

Implements:
  * FiniteSpace / TupleSpace: enumerated state spaces with a fixed, stable
    enumeration (tuple spaces are lexicographic, leftmost factor most
    significant).
  * SubsetOf: a finite set of points of a space, held as enumeration
    indices.
  * Dist: a probability distribution that stores only its support, as
    (index, exact rational weight) pairs, with point mass, set mass,
    integration, push-forward and finite products.

All values are immutable after construction and all operations are pure, so
everything here is safe to share between threads.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

from .errors import DomainError
from .rational import ONE, ZERO, Rat


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

    def format_point(self, point) -> str:
        return str(point)

    def __contains__(self, point) -> bool:
        try:
            return point in self._index
        except TypeError:
            return False

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSpace) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(("FiniteSpace", self.labels))

    def __repr__(self) -> str:
        return f"FiniteSpace({self.space_id!r}, {list(self.labels)!r})"


class TupleSpace:
    """Product of component spaces, enumerated lexicographically.

    Points are tuples of component points; the leftmost coordinate is the
    most significant in the enumeration.  The empty product is the one-point
    space whose sole point is the empty tuple.
    """

    __slots__ = ("components", "_strides", "_size", "_points")

    def __init__(self, components: Sequence):
        self.components = tuple(components)
        strides = []
        size = 1
        for comp in reversed(self.components):
            strides.append(size)
            size *= comp.size
        self._strides = tuple(reversed(strides))
        self._size = size
        self._points = None

    @property
    def size(self) -> int:
        return self._size

    def points(self) -> tuple:
        if self._points is None:
            self._points = tuple(
                itertools.product(*(comp.points() for comp in self.components))
            )
        return self._points

    def index_of(self, point) -> int:
        if not isinstance(point, tuple) or len(point) != len(self.components):
            raise DomainError(f"{point!r} is not a point of {self!r}")
        return sum(
            comp.index_of(coord) * stride
            for comp, coord, stride in zip(self.components, point, self._strides)
        )

    def point_at(self, index: int) -> tuple:
        if self._points is not None:
            return self._points[index]
        coords = []
        for comp, stride in zip(self.components, self._strides):
            sub, index = divmod(index, stride)
            coords.append(comp.point_at(sub))
        return tuple(coords)

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
        return isinstance(other, TupleSpace) and self.components == other.components

    def __hash__(self) -> int:
        return hash(("TupleSpace", self.components))

    def __repr__(self) -> str:
        return f"TupleSpace({list(self.components)!r})"


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

    @classmethod
    def from_points(cls, space, points: Iterable) -> "SubsetOf":
        return cls(space, (space.index_of(p) for p in points))

    def points(self) -> tuple:
        return tuple(self.space.point_at(i) for i in sorted(self.indices))

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


class Dist:
    """Probability distribution over an enumerated space.

    Only the nonzero weights are stored, as a sorted list of (index, exact
    rational weight) pairs, which is what all the algebra iterates over; an
    index outside that list has weight 0.  So a distribution costs memory in
    its support, not in its space, and one concentrated on few points stays
    cheap even when the ambient space is huge.  Weights must be nonnegative
    and sum to exactly 1.
    """

    __slots__ = ("space", "_support", "_lookup", "_cumulative")

    def __init__(self, space, weights: Iterable):
        """Build from a dense weight sequence aligned with the enumeration."""
        weights = tuple(Rat(w) for w in weights)
        if len(weights) != space.size:
            raise DomainError(
                f"expected {space.size} weights for {space!r}, got {len(weights)}"
            )
        for i, w in enumerate(weights):
            if w < 0:
                raise DomainError(f"negative weight {w} at index {i}")
        self._set(space, [(i, w) for i, w in enumerate(weights) if w])

    @classmethod
    def from_support(cls, space, items: Iterable) -> "Dist":
        """Build from (index, weight) pairs; indices must be unique and in range.

        Zero weights are dropped.  Nothing proportional to the size of the
        space is allocated, so the space may be far larger than the support.
        """
        size = space.size
        support = []
        previous = None
        for i, w in sorted(items):
            if not 0 <= i < size:
                raise DomainError(f"index {i} out of range for {space!r}")
            if i == previous:
                raise DomainError(f"index {i} given twice")
            previous = i
            if w < 0:
                raise DomainError(f"negative weight {w} at index {i}")
            if w:
                support.append((i, w))
        self = object.__new__(cls)
        self._set(space, support)
        return self

    def _set(self, space, support: list) -> None:
        # Sum to exactly 1, checked over the common denominator in plain
        # integers, which skips the gcd that every Fraction addition runs.
        denom = math.lcm(*(w.denominator for _, w in support))
        if sum(w.numerator * (denom // w.denominator) for _, w in support) != denom:
            total = sum((w for _, w in support), ZERO)
            raise DomainError(f"weights sum to {total}, expected 1")
        self.space = space
        self._support = tuple(support)
        self._lookup = None
        self._cumulative = None

    def support(self) -> tuple:
        """Nonzero (index, weight) pairs in enumeration order."""
        return self._support

    def weight_at(self, point) -> Rat:
        """Weight of a point of the space; 0 off the support."""
        if self._lookup is None:
            self._lookup = dict(self._support)
        return self._lookup.get(self.space.index_of(point), ZERO)

    def mass(self, subset: SubsetOf) -> Rat:
        """Total weight of a subset of this distribution's space."""
        if subset.space != self.space:
            raise DomainError("subset lives on a different space")
        indices = subset.indices
        return sum((w for i, w in self._support if i in indices), ZERO)

    def integrate(self, f: Callable) -> Rat:
        """Sum of f(state) * weight(state); f must be nonnegative rational."""
        total = ZERO
        for i, w in self._support:
            value = f(self.space.point_at(i))
            if value < 0:
                raise DomainError(f"integrand is negative ({value}) on a state")
            total += Rat(value) * w
        return total

    def sample(self, rng):
        """Draw one point; exact, and deterministic given the rng state.

        Weights are scaled to a common integer denominator and a uniform
        integer below it is drawn, so every state is hit with exactly its
        rational probability.
        """
        if self._cumulative is None:
            denom = math.lcm(*(w.denominator for _, w in self._support))
            acc = 0
            cumulative = []
            for i, w in self._support:
                acc += w.numerator * (denom // w.denominator)
                cumulative.append((acc, i))
            self._cumulative = (denom, tuple(cumulative))
        denom, cumulative = self._cumulative
        draw = rng.randrange(denom)
        for acc, i in cumulative:
            if draw < acc:
                return self.space.point_at(i)
        raise AssertionError("cumulative weights did not reach the total")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dist)
            and self.space == other.space
            and self._support == other._support
        )

    def __hash__(self) -> int:
        return hash(("Dist", self.space, self._support))

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{self.space.format_point(self.space.point_at(i))}:{w}"
            for i, w in self._support
        )
        return f"Dist({entries})"


def dirac(space, point) -> Dist:
    """Unit mass at a single point."""
    return Dist.from_support(space, [(space.index_of(point), ONE)])


def uniform(space) -> Dist:
    """Equal mass on every point of the space."""
    w = Rat(1, space.size)
    return Dist.from_support(space, [(i, w) for i in range(space.size)])


def pushforward_dist(d: Dist, f: Callable, target) -> Dist:
    """Image of d under a total map f into the target space."""
    acc: dict = {}
    for i, w in d.support():
        j = target.index_of(f(d.space.point_at(i)))
        acc[j] = acc.get(j, ZERO) + w
    return Dist.from_support(target, acc.items())


def product_dist(dists: Sequence[Dist]) -> Dist:
    """Independent product, on the tuple space of the factors' spaces.

    Enumeration is lexicographic with the leftmost factor most significant.
    The empty product is rejected; one-point segment spaces are built
    directly where they are needed.
    """
    if not dists:
        raise DomainError("product of zero distributions is not defined")
    target = TupleSpace([d.space for d in dists])
    strides = target._strides
    items = []
    for combo in itertools.product(*(d.support() for d in dists)):
        index = sum(i * stride for (i, _), stride in zip(combo, strides))
        weight = ONE
        for _, w in combo:
            weight *= w
        items.append((index, weight))
    return Dist.from_support(target, items)
