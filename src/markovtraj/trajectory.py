"""Finite-depth Markov chains and their trajectory measures, exactly.

Implements:
  * ChainModel: state spaces X_0..X_D and, per depth, the step's rows by
    period: the depth-n prefix numbered i reads row i % len(rows), so a
    step that reads only the last state holds |X_n| rows, not |P_n|.  The
    prefix spaces are the heads of one TupleSpace of X_0..X_D.
  * partial_row / partial_traj: the law of the depth-b prefix from one
    depth-a prefix, extended one step at a time through the step rows
    (and plain restriction when the target depth is not larger), and the
    kernel from depth-a to depth-b prefixes assembled from those rows.
    Queries from one prefix read its row alone, so they touch only the
    support it reaches.
  * expectation_table / traj_marginal / sample_trajectory: integration against,
    marginals of, and exact seeded sampling from the trajectory law.  A
    table is one integer pass over the kernel's rows (measure._integrals;
    _row_integrals keeps it by prefix number), and the sampler walks
    prefix indices, one `Dist.sample` draw per step.
  * Cylinder: a constraint on finitely many coordinates, stored as a
    disjoint union of boxes (one set of allowed state indices per
    constrained coordinate, coordinates strictly increasing), with
    lifting, intersection and disjoint union done box by box; the prefixes
    it allows are enumerated only on request.  `in` looks each constrained
    label up in its state space's index and tests it against the same
    index sets that every other operation reads.
  * cylinder_content, extract_witness and cond_exp of a cylinder: the
    content of a cylinder under the trajectory law, a greedy construction
    of a common point for a nested sequence of cylinders whose contents
    stay above a bound, and the cylinder's conditional probability given
    the first b coordinates.  All three compute by one scorer, the box
    route (_box_masses): for a contiguous range of depth-n prefix numbers,
    integer numerators over one denominator, each read off the memoized
    row filtered by the index digits of the constrained coordinates.  Past
    `markov_from`, the depth from which every step reads only the last
    state, the law of the last state is a sufficient statistic: the box
    route reads the constraints past that depth from one backward pass over
    it (_tails), at O(|X|^2) per depth instead of one row entry per
    trajectory.  `_tails` alone decides where the pass starts, at
    lo = max(n, min(depth, markov_from)) for queries from depth n on
    coordinates up to `depth`, and each query reads one pass.  The
    references, `content_at_depth` and the witness's final check, take
    the membership route instead: `t in cyl` on each prefix.
  * cond_exp / check_cond_exp / check_traj_split: conditional
    expectation given the first b coordinates as an explicit table (of a
    cylinder's indicator, by the box route on every depth-b prefix), and
    exact checks of its defining identity and of the two-stage
    decomposition of the trajectory law.
    Each identity's two sides come from one function (cond_exp_sides,
    traj_split_sides), which the `verify` report renders too; `verify`
    reads the conditional expectation's sides by prefix number from
    _cond_exp_blocks, which cond_exp_sides keys by point.

Prefixes are tuples (or lists) of state labels; a prefix of depth n has
n + 1 entries, and every prefix argument is looked up by _prefix_index.
Prefix spaces enumerate lexicographically with coordinate 0 most
significant, so all prefixes sharing a given initial segment form one
contiguous index block.  Several routines below lean on that.
"""
from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError, InvariantError, PreconditionError
from .kernel import Kernel, _couple, _rows_on
from .measure import Dist, FiniteSpace, SubsetOf, TupleSpace, _integrals
from .rational import Rat, ratio_of


def _check_int(value, what: str = "depth") -> None:
    """The one type rule of a depth, coordinate or prefix index: an int
    (not a bool, float or string), else a DomainError."""
    if type(value) is not int:
        raise DomainError(f"a {what} is an int, not {value!r}")


def _check_depth_pair(a, b, top: int) -> None:
    """The one guard of a depth pair: ints with 0 <= a <= b <= top."""
    _check_int(a)
    _check_int(b)
    if not 0 <= a <= b <= top:
        raise DomainError(f"need 0 <= a <= b <= {top}")


class ChainModel:
    """A Markov chain of fixed finite depth with history-dependent steps.

    Parameters
    ----------
    spaces : sequence of FiniteSpace
        State spaces X_0 .. X_D; the chain has max_depth D = len(spaces) - 1.
    steps : sequence of sequences of Dist
        steps[n] holds step n's rows, Dists on X_{n+1}, by period: the
        depth-n prefix numbered i reads row i % len(steps[n]), so the count
        must divide |P_n|: 1 for a step that ignores the prefix, |X_n| for
        one that reads the last state (prefix i ends in state i % |X_n|),
        |P_n| for a table.  There must be max_depth of them.  The tuple
        `self.steps[n]` keeps them, cut to the first |X_n| if they repeat
        with that period.

    The prefix spaces are one TupleSpace of all the state spaces and its
    heads: the depth-n prefix space is its first n + 1 coordinates
    (`TupleSpace._head`), sharing that product's factor tuple and
    cumulative sizes, so the tower costs O(1) per depth, and
    `prefix_space(n)` equals TupleSpace(spaces[:n + 1]).

    Partial-trajectory rows and kernels are memoized on the model, so
    repeated queries share all the work, and a kernel's rows are the very
    row objects that single-prefix queries read.

    `markov_from` is the smallest m such that every step n >= m reads only
    the last state x_n, that is, len(steps[n]) divides |X_n| (0 for a
    chain of such steps, max_depth when the last step reads more).
    """

    def __init__(self, spaces: Sequence[FiniteSpace], steps: Sequence[Sequence[Dist]]):
        self.spaces = tuple(spaces)
        if not self.spaces:
            raise DomainError("a chain needs at least the depth-0 space")
        if not all(isinstance(space, FiniteSpace) for space in self.spaces):
            raise DomainError("a chain's state spaces must be FiniteSpaces")
        self.max_depth = len(self.spaces) - 1
        steps = tuple(steps)
        if len(steps) != self.max_depth:
            raise DomainError(f"expected {self.max_depth} steps, got {len(steps)}")
        tower = TupleSpace(self.spaces)
        self._prefix_spaces = [tower._head(n + 1) for n in range(len(self.spaces))]
        self.markov_from = 0
        rules = []
        for n, rows in enumerate(steps):
            size, width = self._prefix_spaces[n].size, self.spaces[n].size
            try:
                rows = _rows_on(self.spaces[n + 1], rows)
                if not rows or size % len(rows):
                    raise DomainError(f"the row count must divide the {size} "
                                      f"depth-{n} prefixes, got {len(rows)}")
            except DomainError as exc:
                raise DomainError(f"step {n}: {exc}") from None
            # Rows that repeat with period |X_n| read only the last state;
            # shared rows make this one tuple compare.
            if len(rows) % width == 0 and rows[width:] == rows[:-width]:
                rows = rows[:width]
            elif width % len(rows):
                self.markov_from = n + 1
            rules.append(rows)
        self.steps = tuple(rules)
        # What sample_trajectory reads per step n: its rows, and the size
        # and label -> index map of X_{n+1}.
        self._walk = tuple(
            (rows, space.size, space._index) for rows, space in zip(self.steps, self.spaces[1:])
        )
        self._rows: dict = {}
        self._partial: dict = {}
        self._lumped: dict = {}

    def prefix_space(self, depth: int) -> TupleSpace:
        """Space of prefixes (x_0, .., x_depth)."""
        if type(depth) is not int or not 0 <= depth <= self.max_depth:
            _check_int(depth)
            raise DomainError(f"depth {depth} outside 0..{self.max_depth}")
        return self._prefix_spaces[depth]

    def advance_kernel(self, depth: int) -> Kernel:
        """One-step extension kernel: `partial_traj(depth, depth + 1)`."""
        if type(depth) is not int or not 0 <= depth < self.max_depth:
            _check_int(depth)
            raise DomainError(f"no step kernel at depth {depth}")
        return self.partial_traj(depth, depth + 1)

    def partial_row(self, a: int, b: int, index: int) -> Dist:
        """Law of the depth-b prefix from the depth-a prefix numbered `index`.

        For b <= a this is the point mass at the restriction, which is the
        index of the prefix's block, index // (|P_a| / |P_b|); otherwise it
        is the (a, b-1) row extended through steps[b-1]: appending state s
        to prefix i gives prefix i * |X_b| + s, with weight the (a, b-1)
        row's weight at i times the weight at s of prefix i's step row,
        multiplied as integer numerators over one common denominator.  Only
        the rows from this one prefix are built, each memoized.
        """
        key = (a, b, index)
        row = self._rows.get(key)
        # The memo holds int keys only; a float equal to one falls through
        # to the checks below.
        if row is not None and type(a) is type(b) is type(index) is int:
            return row
        source = self.prefix_space(a)
        target = self.prefix_space(b)
        if type(index) is not int or not 0 <= index < source.size:
            _check_int(index, "prefix index")
            raise DomainError(f"prefix index {index} out of range for depth {a}")
        if b <= a:
            row = Dist._from_numerators(target, 1, ((index // (source.size // target.size), 1),))
            self._rows[key] = row
            return row
        # Step forward from the deepest row already built from this prefix
        # (the depth-a point mass if none), memoizing every row on the way.
        # A loop, not recursion, so that a deep chain of one-state spaces
        # stays within the interpreter's recursion limit.
        depth = b - 1
        while depth > a and (a, depth, index) not in self._rows:
            depth -= 1
        row = self.partial_row(a, depth, index)
        for n in range(depth, b):
            row = _couple(row, self.steps[n], self.prefix_space(n + 1))
            self._rows[(a, n + 1, index)] = row
        return row

    def partial_traj(self, a: int, b: int) -> Kernel:
        """Kernel from depth-a prefixes to depth-b prefixes.

        Row i is `partial_row(a, b, i)`: deterministic restriction for
        b <= a, otherwise the (a, b-1) row extended through steps[b-1].
        """
        kern = self._partial.get((a, b))
        if kern is None or type(a) is not int or type(b) is not int:  # see partial_row
            source = self.prefix_space(a)
            kern = Kernel(
                source,
                self.prefix_space(b),
                [self.partial_row(a, b, i) for i in range(source.size)],
            )
            self._partial[(a, b)] = kern
        return kern

    def _lumped_step(self, n: int) -> tuple:
        """(rows, lcm) of step n >= markov_from, by last state: rows[s] is
        the (state, numerator) list of the step's row after a prefix ending
        in state s, every row over the common denominator lcm."""
        lumped = self._lumped.get(n)
        if lumped is None:
            rows = self.steps[n]
            lcm = math.lcm(*(row._denom for row in rows))
            lumped = (
                [[(u, m * (lcm // row._denom)) for u, m in row._numerators] for row in rows]
                * (self.spaces[n].size // len(rows)),
                lcm,
            )
            self._lumped[n] = lumped
        return lumped

    def __repr__(self) -> str:
        sizes = "x".join(str(s.size) for s in self.spaces)
        return f"ChainModel(depth={self.max_depth}, sizes={sizes})"


# ---- integration and sampling ----


def _as_fn(f) -> Callable:
    if callable(f):
        return f
    if isinstance(f, Cylinder):
        return lambda trajectory: 1 if trajectory in f else 0
    if isinstance(f, Mapping):
        def lookup(prefix):
            try:
                return f[prefix]
            except KeyError:
                raise DomainError(f"the table has no value for {prefix!r}") from None
        return lookup
    raise DomainError("expected a callable or a mapping from prefixes to rationals")


def expectation_table(model: ChainModel, a: int, b: int, f) -> dict:
    """Integrate f, rational of either sign, on depth-b prefixes back to depth a.

    Returns the table {depth-a prefix: integral of f against the (a, b)
    trajectory kernel started there}.  For a <= b <= c, integrating first
    from c to b and then to a agrees with integrating from c to a directly.
    """
    _check_depth_pair(a, b, model.max_depth)
    return dict(zip(model.prefix_space(a).points(), _row_integrals(model, a, b, _as_fn(f))))


def _row_integrals(model: ChainModel, a: int, b: int, f, scale: int = 1) -> list:
    """The integral of f against each (a, b) row, by depth-a prefix number,
    divided by the positive integer `scale`, for a <= b: one pass of
    `measure._integrals` over the kernel's rows, each with `scale` folded
    into its denominator, so an int-valued f over a common denominator
    `scale` builds one Fraction per row.  f is a callable on depth-b
    prefixes or a list of ints by depth-b prefix number."""
    kern = model.partial_traj(a, b)
    return _integrals(kern.target, ((r._numerators, r._denom * scale) for r in kern.rows), f)


_OWN_DEPTH = object()  # _prefix_index's default depth: the prefix's own


def _prefix_index(model: ChainModel, prefix, a=_OWN_DEPTH) -> int:
    """The index of `prefix` among the depth-a prefixes (a = len(prefix) - 1
    when not given): the one lookup of a prefix argument.

    Only a tuple or list of labels is a prefix, the rule of
    `Cylinder.__contains__`, so a string is not split into one-letter
    labels; anything else, a depth that is not an int in 0..D, a length
    other than a + 1 or a label that is not a state of its space is a
    DomainError.  The index is folded from the labels' indices, leftmost
    most significant, as `TupleSpace.index_of` sums them; a prefix the fold
    rejects is looked up again by `index_of`, whose error names a bad
    label with its own space rather than printing the prefix space.
    """
    if not isinstance(prefix, (tuple, list)):
        raise DomainError(f"a prefix is a tuple or list of labels, not {prefix!r}")
    depth = len(prefix) - 1 if a is _OWN_DEPTH else a
    if type(depth) is int and 0 <= depth <= model.max_depth and len(prefix) == depth + 1:
        index = 0
        try:
            for space, state in zip(model.spaces, prefix):
                index = index * len(space.labels) + space._index[state]
            return index
        except (KeyError, TypeError):  # unknown or unhashable label
            pass
    return model.prefix_space(depth).index_of(tuple(prefix))


def traj_marginal(model: ChainModel, a: int, prefix, b: int) -> Dist:
    """Law of the depth-b prefix when the chain is started from `prefix`."""
    return model.partial_row(a, b, _prefix_index(model, prefix, a))


def sample_trajectory(model: ChainModel, prefix, rng) -> tuple:
    """Extend `prefix` to a full depth-D trajectory by sampling each step.

    Exact: each state is drawn with its rational probability.  The result
    is a pure function of the rng state, which is advanced in place by one
    `Dist.sample` draw per step (so `rng` is anything that method takes).
    `prefix` is a tuple or list of labels, of any depth 0..D.
    """
    index = _prefix_index(model, prefix)
    states = list(prefix)
    for rows, size, index_of in model._walk[len(prefix) - 1:]:
        # Appending state s to prefix `index` gives index * |X_{n+1}| + s;
        # the drawn label's index is read from X_{n+1}'s own mapping.
        state = rows[index % len(rows)].sample(rng)
        states.append(state)
        index = index * size + index_of[state]
    return tuple(states)


# ---- cylinders ----


class Cylinder:
    """A set of trajectories constrained on coordinates 0..depth.

    Held as a finite union of boxes on `space`, a prefix space of
    FiniteSpace components whose last coordinate is the depth.  A box is a
    tuple of (coordinate, frozenset of allowed state indices) pairs; a
    coordinate it does not list is unconstrained.  The constructor checks
    that every coordinate is one of the space's, strictly increasing within
    a box, and allows a nonempty frozenset of that coordinate's state
    indices (ints), since counting and content read one factor per
    coordinate in that order and meet boxes by set intersection; a
    violation is a DomainError.  The boxes must be pairwise disjoint, which
    is left to the caller (disjoint_union_cylinders checks it).  A
    trajectory, a tuple or list of labels, belongs to the cylinder iff it
    lies in one of the boxes, each box tried on its own.  Every operation
    works on the boxes, so its cost is the constraints, not the prefix
    space; `base`, the enumerated set of allowed prefixes, is built only
    when read.  Equal cylinders share a prefix space and allow the same
    prefixes.
    """

    __slots__ = ("space", "boxes")

    def __init__(self, space: TupleSpace, boxes: tuple):
        if not (isinstance(space, TupleSpace)
                and all(isinstance(comp, FiniteSpace) for comp in space.components)):
            raise DomainError("a cylinder lives on a prefix space of state spaces")
        comps = space.components
        for box in boxes:
            last = -1
            for k, allowed in box:
                if not (last < k < len(comps) and isinstance(allowed, frozenset) and allowed
                        and all(isinstance(s, int) and 0 <= s < comps[k].size for s in allowed)):
                    raise DomainError(f"bad box constraint on coordinate {k}")
                last = k
        self.space = space
        self.boxes = boxes

    @property
    def depth(self) -> int:
        return self.space.length - 1

    def __repr__(self) -> str:
        return f"Cylinder({self.space!r}, {self.boxes!r})"

    def __contains__(self, trajectory) -> bool:
        # Only a tuple or list is a trajectory.  Each box is tried on its
        # own: a coordinate the trajectory does not reach, or a label that is
        # not a state of its space (unknown or unhashable), fails that box.
        if not isinstance(trajectory, (tuple, list)):
            return False
        comps = self.space.factors
        for box in self.boxes:
            try:
                for k, allowed in box:
                    if comps[k]._index[trajectory[k]] not in allowed:
                        break
                else:
                    return True
            except (LookupError, TypeError):
                pass
        return False

    def __len__(self) -> int:
        """The number of allowed prefixes, `_box_count`.  `len()` cannot
        return more than sys.maxsize, so a larger count is a DomainError
        that names it."""
        count = _box_count(self.space, self.boxes)
        if count > sys.maxsize:
            raise DomainError(f"the cylinder holds {count} prefixes, more than len() returns")
        return count

    @property
    def base(self) -> SubsetOf:
        """The allowed depth-`depth` prefixes, enumerated box by box."""
        space = self.space
        return SubsetOf(space, itertools.chain(*(_box_indices(space, box) for box in self.boxes)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cylinder):
            return NotImplemented
        if self.space != other.space:
            return False
        # Equal sets: the intersection is as large as each of them.
        met = _box_meets(self.boxes, other.boxes)
        count = _box_count(self.space, self.boxes)
        return count == _box_count(other.space, other.boxes) == _box_count(self.space, met)

    def __hash__(self) -> int:
        return hash(("Cylinder", self.space, _box_count(self.space, self.boxes)))


def _box_meet(first: tuple, second: tuple):
    """Intersection of two boxes, or None when it is empty."""
    merged = dict(first)
    for k, allowed in second:
        if k in merged:
            allowed = merged[k] & allowed
            if not allowed:
                return None
        merged[k] = allowed
    return tuple(sorted(merged.items()))


def _box_meets(first: Iterable, second: Sequence) -> tuple:
    """The nonempty pairwise intersections; disjoint if each side is."""
    return tuple(
        met for a in first for b in second if (met := _box_meet(a, b)) is not None
    )


def _box_indices(space: TupleSpace, box: tuple):
    """The indices of the points of `space` inside the box, increasing: each
    a sum of one allowed digit s * stride_k per coordinate k of the space,
    stride_k being the size of the coordinates after k.  Constraints on
    coordinates deeper than the space's are not read."""
    allowed = dict(box)
    digits, stride = [], space.size
    for k, comp in enumerate(space.components):
        stride //= comp.size
        digits.append([s * stride for s in sorted(allowed.get(k, range(comp.size)))])
    return map(sum, itertools.product(*digits))


def _box_count(space: TupleSpace, boxes: Iterable) -> int:
    """Number of points of `space` inside the (disjoint) boxes."""
    comps = space.factors
    total = 0
    for box in boxes:
        count = space.size
        for k, allowed in box:
            count = count // comps[k].size * len(allowed)
        total += count
    return total


def _check_cylinder(model: ChainModel, cyl: Cylinder) -> None:
    if cyl.space != model.prefix_space(cyl.depth):
        raise DomainError("cylinder lives on a different prefix space")


def _box_masses(model: ChainModel, boxes: Sequence, n: int, indices, tails, lo: int) -> tuple:
    """The box route, the one scorer of cylinder queries: the weight that
    the chain from each depth-n prefix numbered in the contiguous range
    `indices` puts inside the (disjoint) boxes, as (integer numerators by
    position in `indices`, one denominator), given the pass `lo, tails =
    _tails(model, boxes, n0, depth)` of some n0 <= n whose levels reach
    depth max(n, lo).

    Each prefix reads at m = max(n, lo): its memoized row
    `partial_row(n, m, i)`, or at m == n the prefix itself, one entry j = i
    of weight 1, kept as the plain int.  Coordinate k of the index j of a
    depth-m prefix is j // stride_k % |X_k|, where stride_k = |P_m| / |P_k|
    is the number of depth-m prefixes per depth-k prefix; each constraint
    up to m is one pass over the entries still inside.  An entry j left in
    counts with weight h[box][j % |X_m|] / q, where h, q = tails[m - lo]:
    the probability that the chain meets the box's constraints past m from
    a prefix ending in that state.  The boxes are disjoint, so their masses
    add up.  Rows over different denominators are brought to their lcm.
    """
    m = max(n, lo)
    hs, q = tails[m - lo]
    prefixes, spaces = model._prefix_spaces, model.spaces
    size, width, start = prefixes[m].size, spaces[m].size, indices.start
    tests = [[(size // prefixes[k].size, spaces[k].size, allowed) for k, allowed in box if k <= m]
             for box in boxes]
    if m == n:
        numerators = [0] * len(indices)
        for box, h in zip(tests, hs):
            inside = indices
            for stride, states, allowed in box:
                inside = [j for j in inside if j // stride % states in allowed]
            for j in inside:
                numerators[j - start] += h[j % width]
        return numerators, q
    rows = [model.partial_row(n, m, i) for i in indices]
    denom = math.lcm(*(row._denom for row in rows))
    numerators = []
    for row in rows:
        total = 0
        for box, h in zip(tests, hs):
            entries = row._numerators
            for stride, states, allowed in box:
                entries = [e for e in entries if e[0] // stride % states in allowed]
            total += sum(w * h[j % width] for j, w in entries)
        numerators.append(total * (denom // row._denom))
    return numerators, denom * q


def _tails(model: ChainModel, boxes: Sequence, n: int, depth: int) -> tuple:
    """The one backward pass of the box route, per box, for the chain from
    depth-n prefixes through boxes on coordinates 0..depth.

    Returns (lo, levels).  The pass starts at the one start rule of the
    lumped route, lo = max(n, min(depth, markov_from)), and runs from
    hi = max(lo, depth) down to lo.  Entry k - lo of levels, for k in
    lo..hi, is (h, q): h[box][s] / q is the probability that coordinates
    k+1..hi meet the box's constraints, from any depth-k prefix ending in
    state s.  That is 1 at k = hi, and h_k(s) is the sum over u of
    step_k(s, u) * [u allowed at k+1] * h_{k+1}(u), which reads the step
    through its last state alone; that holds because lo >= markov_from
    whenever lo < hi.  The numerators are integers over one q per depth,
    the product of the step lcms past it, shared by every box.
    """
    lo = max(n, min(depth, model.markov_from))
    hi = max(lo, depth)
    constraints = [dict(box) for box in boxes]
    h = [[1] * model.spaces[hi].size for _ in boxes]
    q = 1
    levels = [(h, q)]
    for k in range(hi - 1, lo - 1, -1):
        rows, lcm = model._lumped_step(k)
        q *= lcm
        passed = []
        for box, after in zip(constraints, h):
            allowed = box.get(k + 1)
            if allowed is not None:
                after = [v if u in allowed else 0 for u, v in enumerate(after)]
            passed.append([sum(m * after[u] for u, m in row) for row in rows])
        h = passed
        levels.append((h, q))
    levels.reverse()
    return lo, levels


def cylinder(model: ChainModel, depth: int, prefixes: Iterable) -> Cylinder:
    """Cylinder of all trajectories whose depth-`depth` prefix is listed.

    One point box per distinct prefix, in index order: coordinate k allows
    the index of the prefix's label in X_k.
    """
    space = model.prefix_space(depth)
    by_index = {_prefix_index(model, p, depth): p for p in prefixes}
    boxes = tuple(
        tuple((k, frozenset((model.spaces[k]._index[s],))) for k, s in enumerate(by_index[i]))
        for i in sorted(by_index)
    )
    return Cylinder(space, boxes)


def cylinder_from_constraints(model: ChainModel, constraints: Mapping[int, Iterable]) -> Cylinder:
    """Cylinder {x_i in allowed_i for each constrained coordinate i}: one box.

    The cylinder's depth is the largest constrained coordinate.  Each
    coordinate is an int and each allowed set a collection of labels (a
    list, tuple or set); a string is not split into one-letter labels.
    """
    if not constraints:
        raise DomainError("at least one coordinate must be constrained")
    for i, states in constraints.items():
        _check_int(i, "coordinate")
        if isinstance(states, str):
            raise DomainError(f"the allowed states of coordinate {i} are a collection "
                              f"of labels, not the string {states!r}")
    depth = max(constraints)
    if min(constraints) < 0 or depth > model.max_depth:
        raise DomainError(f"constrained coordinates must lie in 0..{model.max_depth}")
    box = tuple(
        (i, frozenset(model.spaces[i].index_of(s) for s in states))
        for i, states in sorted(constraints.items())
    )
    boxes = (box,) if all(allowed for _, allowed in box) else ()
    return Cylinder(model.prefix_space(depth), boxes)


def lift_cylinder(model: ChainModel, cyl: Cylinder, depth: int) -> Cylinder:
    """The same set of trajectories, described at a greater depth.

    The boxes carry over unchanged: coordinates past `cyl.depth` are
    unconstrained.
    """
    _check_cylinder(model, cyl)
    _check_int(depth)
    if depth < cyl.depth:
        raise DomainError("cannot lift a cylinder to a smaller depth")
    if depth == cyl.depth:
        return cyl
    return Cylinder(model.prefix_space(depth), cyl.boxes)


def intersect_cylinders(model: ChainModel, first: Cylinder, second: Cylinder) -> Cylinder:
    """Intersection, described at the deeper of the two depths."""
    _check_cylinder(model, first)
    _check_cylinder(model, second)
    depth = max(first.depth, second.depth)
    return Cylinder(model.prefix_space(depth), _box_meets(first.boxes, second.boxes))


def disjoint_union_cylinders(model: ChainModel, cylinders: Sequence[Cylinder]) -> Cylinder:
    """Union of pairwise disjoint cylinders, at the deepest depth involved."""
    if not cylinders:
        raise DomainError("union of zero cylinders is not defined")
    depth = max(c.depth for c in cylinders)
    boxes: list = []
    for c in cylinders:
        _check_cylinder(model, c)
        if _box_meets(c.boxes, boxes):
            raise PreconditionError("cylinders overlap; union would double-count")
        boxes.extend(c.boxes)
    return Cylinder(model.prefix_space(depth), tuple(boxes))


# ---- cylinder content ----


def content_at_depth(model: ChainModel, a: int, prefix, cyl: Cylinder, depth: int) -> Rat:
    """Probability of the cylinder, evaluated through the depth-`depth` law.

    Any depth >= max(a, cyl.depth) gives the same value; this entry point
    exists so that independence of the choice can be checked exactly.  It
    takes the membership route: the indicator `t in cyl` integrated against
    the depth-`depth` row, so it shares no code with the box route of
    `cylinder_content` (see _box_masses) and `verify` checks one against
    the other.
    """
    model.prefix_space(depth)  # a depth outside 0..D is a DomainError naming it
    if depth < max(a, cyl.depth):
        raise DomainError("evaluation depth must cover both the prefix and the cylinder")
    _check_cylinder(model, cyl)
    return traj_marginal(model, a, prefix, depth).integrate(_as_fn(cyl))


def cylinder_content(model: ChainModel, a: int, prefix, cyl: Cylinder) -> Rat:
    """Probability that the chain started from `prefix` lands in the
    cylinder, by the box route (see _box_masses) on one backward pass.

    The cylinder is weighed on the memoized row at the pass's start lo
    (see _tails), each entry inside the boxes up to lo counting with the
    probability of the rest past lo, which is 1 when the cylinder is no
    deeper than lo.  Past markov_from the steps read the last state alone,
    so the rest costs O(|X|^2) per depth, not one row entry per trajectory.
    """
    _check_cylinder(model, cyl)
    index = _prefix_index(model, prefix, a)
    lo, tails = _tails(model, cyl.boxes, a, cyl.depth)
    (numerator,), denom = _box_masses(model, cyl.boxes, a, range(index, index + 1), tails, lo)
    return Rat(numerator, denom)


# ---- witness extraction ----


def extract_witness(
    model: ChainModel, a: int, prefix, cylinders: Sequence[Cylinder], eps
) -> tuple:
    """A prefix that extends `prefix` and meets every listed cylinder.

    Requires the cylinders to be nested (each contained in the one before)
    and every content from `prefix` to be at least eps > 0; under those
    preconditions a common point exists, and this constructs one greedily.

    At each depth the next state is chosen to maximise the content of the
    innermost cylinder from the extended prefix, first state in enumeration
    order on ties.  The maximum over successor states is at least the
    step-weighted average, which is the current content, so the content
    stays >= eps until the cylinder depth is reached, where it becomes a
    membership indicator.  Nesting is tested on the boxes, and it makes
    the innermost content the least, so that is the one content read.  It
    and every successor's score come from one backward pass for the
    innermost cylinder down to the target depth (see _tails), by the box
    route of `cylinder_content` (see _box_masses), weighed on rows at the
    pass's start or on the prefixes themselves, whichever is deeper.  The
    successors of one prefix are scored in one call, as integer numerators
    over one denominator, so the greedy compares integers and builds no
    fraction per step.  The constructed point is then checked by
    membership, `point in c` for every cylinder, which reads none of the
    scores.
    """
    eps = Rat(*ratio_of(eps))
    if eps <= 0:
        raise DomainError("the content bound must be positive")
    if not cylinders:
        raise DomainError("need at least one cylinder")
    index = _prefix_index(model, prefix, a)
    for c in cylinders:
        _check_cylinder(model, c)
    target_depth = max(a, max(c.depth for c in cylinders))
    space = model.prefix_space(target_depth)
    for inner, outer in zip(cylinders[1:], cylinders):
        # inner is inside outer iff their intersection is as large as inner.
        met = _box_meets(inner.boxes, outer.boxes)
        if _box_count(space, met) != _box_count(space, inner.boxes):
            raise PreconditionError("cylinders are not nested")

    boxes = cylinders[-1].boxes
    lo, tails = _tails(model, boxes, a, target_depth)
    (numerator,), denom = _box_masses(model, boxes, a, range(index, index + 1), tails, lo)
    if Rat(numerator, denom) < eps:
        raise PreconditionError(f"a cylinder has content below {eps}")

    point = list(prefix)
    for depth in range(a + 1, target_depth + 1):
        # Appending state s to prefix `index` gives prefix index * width + s.
        # The successors' scores share one denominator, so the first largest
        # numerator wins.
        width = model.spaces[depth].size
        index *= width
        scores, _ = _box_masses(model, boxes, depth, range(index, index + width), tails, lo)
        index += max(range(width), key=scores.__getitem__)
        point.append(model.spaces[depth].labels[index % width])

    if not all(point in c for c in cylinders):
        raise InvariantError("constructed point escaped a cylinder")
    return tuple(point)


# ---- conditional expectation ----


def cond_exp(model: ChainModel, b: int, f) -> dict:
    """Conditional expectation of f given the first b coordinates, as a table.

    f assigns a rational of either sign to every full trajectory, or is a
    Cylinder, which stands for its indicator; the returned table maps each
    depth-b prefix to the mean of f under the chain continued from it,
    which is `expectation_table(model, b, D, f)`.  Its keys come in
    enumeration order, so its i-th value is that of the prefix numbered i.
    A cylinder is scored on every depth-b prefix by the box route (see
    _box_masses), in one call on one backward pass (see _tails) from lo =
    max(b, min(cyl.depth, markov_from)): each prefix reads its row up to
    lo, or itself when lo == b, and the probability of the rest of the
    boxes past lo from the last state there.  So no row deeper than lo is
    built.
    """
    space = model.prefix_space(b)  # a depth outside 0..D is a DomainError naming it
    if not isinstance(f, Cylinder):
        return expectation_table(model, b, model.max_depth, f)
    _check_cylinder(model, f)
    lo, tails = _tails(model, f.boxes, b, f.depth)
    numerators, denom = _box_masses(model, f.boxes, b, range(space.size), tails, lo)
    values = {n: Rat(n, denom) for n in set(numerators)}
    return {p: values[n] for p, n in zip(space.points(), numerators)}


def cond_exp_sides(model: ChainModel, a: int, prefix, b: int, f, table) -> tuple:
    """Both sides of the defining property of `table = cond_exp(model, b, f)`.

    For the chain started from a depth-a `prefix` (a <= b), each reachable
    depth-b prefix p maps to the integral of f over the trajectories
    through p on the left, and to the probability of p times table[p] on
    the right.  Events fixing the depth-b prefix generate every event
    determined by the first b coordinates, so the property holds iff the
    two tables are equal.  The sides are `_cond_exp_blocks`, keyed by point.
    """
    _check_depth_pair(a, b, model.max_depth)
    index = _prefix_index(model, prefix, a)
    point_at = model.prefix_space(b).point_at
    value = _as_fn(table)
    blocks = _cond_exp_blocks(model, a, index, b, _as_fn(f), 1, lambda i: value(point_at(i)))
    lhs = {point_at(i): left for i, left, _ in blocks}
    rhs = {point_at(i): right for i, _, right in blocks}
    return lhs, rhs


def _cond_exp_blocks(
    model: ChainModel, a: int, index: int, b: int, f, scale: int, table: Callable
) -> list:
    """(i, lhs, rhs) for each depth-b prefix number i reachable from the
    depth-a prefix numbered `index`, a <= b, in increasing order of i.

    lhs is the integral of f / `scale` over the trajectories through i, f
    a callable on depth-D prefixes or a list of ints by depth-D prefix
    number (see measure._integrals); rhs is the probability of i times
    table(i), an exact rational.  No point is built from an index.
    """
    law = model.partial_row(a, model.max_depth, index)
    # The trajectories through depth-b prefix i are the run of law's sorted
    # entries with j // ratio == i, each integrated as a row of its own.
    ratio = law.space.size // model.prefix_space(b).size
    denom = law._denom
    heads, rows, totals = [], [], []
    current = -1
    for entry in law._numerators:
        i = entry[0] // ratio
        if i != current:
            current, run = i, []
            heads.append(i)
            rows.append((run, denom * scale))
            totals.append(0)
        run.append(entry)
        totals[-1] += entry[1]
    integrals = _integrals(law.space, rows, f)
    blocks = []
    for i, integral, total in zip(heads, integrals, totals):
        t, q = ratio_of(table(i))
        blocks.append((i, integral, Rat(total * t, denom * q)))
    return blocks


def check_cond_exp(model: ChainModel, a: int, prefix, b: int, f) -> bool:
    """Exact check of the defining property of `cond_exp` (see cond_exp_sides)."""
    lhs, rhs = cond_exp_sides(model, a, prefix, b, f, cond_exp(model, b, f))
    return lhs == rhs


def traj_split_sides(model: ChainModel, a: int, b: int) -> tuple:
    """Both sides of the split of the trajectory law at depth b.

    Each side is a kernel from depth-a prefixes to the pair space of
    (depth-b prefix, full trajectory), where the pair (i, j) has index
    i * |P_D| + j.  The left side draws the depth-b prefix from the (a, b)
    kernel and continues it with the (b, D) kernel; the right side draws
    the full trajectory from the (a, D) kernel and pairs it with its
    restriction.  Rows store only their support, so the size of the pair
    space costs nothing.
    """
    _check_depth_pair(a, b, model.max_depth)
    first = model.partial_traj(a, b)
    rest = model.partial_traj(b, model.max_depth)
    whole = model.partial_traj(a, model.max_depth)
    pairs = TupleSpace([model.prefix_space(b), model.prefix_space(model.max_depth)])
    size_d = model.prefix_space(model.max_depth).size
    ratio = size_d // model.prefix_space(b).size
    two_stage = [_couple(row, rest.rows, pairs) for row in first.rows]
    direct = [
        Dist._from_numerators(
            pairs, row._denom, [((j // ratio) * size_d + j, n) for j, n in row._numerators]
        )
        for row in whole.rows
    ]
    source = model.prefix_space(a)
    return Kernel(source, pairs, two_stage), Kernel(source, pairs, direct)


def check_traj_split(model: ChainModel, a: int, b: int) -> bool:
    """Exact check that the trajectory law splits at depth b (see traj_split_sides)."""
    two_stage, direct = traj_split_sides(model, a, b)
    return two_stage == direct
