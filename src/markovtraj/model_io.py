"""Loading chain models from JSON files.

A chain file looks like:

    {
      "maxDepth": 3,
      "spaces": [{"id": "X", "states": ["S", "R"]}],
      "steps": [
        {"n": 0, "kind": "last-state",
         "rows": {"S": {"S": "3/4", "R": "1/4"},
                  "R": {"S": "1/2", "R": "1/2"}}},
        ...
      ]
    }

with one step per depth 0 .. maxDepth-1.  A single entry under "spaces" is
parsed once, and that one space is reused at every depth (its default id is
X0); otherwise exactly maxDepth+1 entries are required.
Step kinds:

  * "table": "rows" maps every depth-n prefix, written as labels joined by
    "|", to a distribution over next states.  Each distinct row literal is
    parsed once per step: prefixes whose rows are written identically share
    one Dist.
  * "last-state": "rows" maps each possible last state to a distribution;
    prefixes sharing a last state share the row.
  * "const": a single "row" distribution used for every prefix.

Distributions are objects {state label: rational string}; omitted states
get weight 0 and the weights must sum to exactly 1.  A file may instead be
a plain product:

    {"kind": "product", "factors": [{"H": "1/2", "T": "1/2"}, ...]}

which is loaded as a chain with constant steps, keeping the factor list
around (a product file also says how to draw coordinate 0, which a chain
file does not).  Any malformed input raises ModelFormatError; in a file,
that includes a key repeated within one JSON object.
"""
from __future__ import annotations

import json
from collections.abc import Mapping
from typing import NamedTuple

from .errors import DomainError, MarkovTrajError, ModelFormatError
from .measure import Dist, FiniteSpace, over_common_denominator
from .product import const_chain
from .rational import parse_ratio
from .trajectory import ChainModel

# Refuse trajectory spaces too large to query.  Measured with `validate`
# plus `marginal --point S --at 19`, as one process capped at 1 GiB of
# address space on a 2-vCPU VM (Python 3.11.7, 3 runs): the depth-19
# two-state weather chain (2^20 trajectories) completes in 3.2-3.3 s at a
# peak RSS of 198 MB.
_MAX_PREFIX_POINTS = 1 << 20


class LoadedModel(NamedTuple):
    """A chain plus, for product files, the marginals it was built from."""

    chain: ChainModel
    marginals: tuple | None = None

    def header(self) -> str:
        """The `MODEL kind=.. depth=.. sizes=..` line of validate and verify."""
        sizes = "x".join(str(s.size) for s in self.chain.spaces)
        kind = "chain" if self.marginals is None else "product"
        return f"MODEL kind={kind} depth={self.chain.max_depth} sizes={sizes}"


def load_model(path) -> LoadedModel:
    """The model in a file; failing to read, decode or build it, memory
    included, or a number past the interpreter's int/str digit limit, is a
    ModelFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return model_from_dict(json.load(handle, object_pairs_hook=_unique_keys))
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ModelFormatError("model file is nested too deeply") from exc
    except MarkovTrajError:
        raise
    except ValueError as exc:  # an int <-> str conversion past the interpreter's limit
        raise ModelFormatError("model file holds a number too long to read") from exc
    except MemoryError:
        pass  # raised below, once the partial model is freed
    raise ModelFormatError("model is too large to load in the memory available")


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key is an error, not "last one wins"."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ModelFormatError(f"key {key!r} given twice in one object")
            seen.add(key)
    return obj


def model_from_dict(data) -> LoadedModel:
    if not isinstance(data, Mapping):
        raise ModelFormatError("model document must be a JSON object")
    if data.get("kind") == "product":
        return _load_product(data)
    return _load_chain(data)


def _load_product(data: Mapping) -> LoadedModel:
    factors = data.get("factors")
    if not isinstance(factors, list) or not factors:
        raise ModelFormatError('"factors" must be a nonempty list')
    marginals = []
    for i, entry in enumerate(factors):
        if not isinstance(entry, Mapping) or not entry:
            raise ModelFormatError(f"factor {i} must be a nonempty object")
        space = _make_space(f"X{i}", list(entry.keys()), f"factor {i}")
        marginals.append(_dist_from_mapping(space, entry, f"factor {i}"))
    _check_size([d.space for d in marginals])
    return LoadedModel(const_chain(marginals), tuple(marginals))


def _check_size(spaces) -> None:
    """Refuse a model of more than _MAX_PREFIX_POINTS full trajectories,
    before anything is built per depth: the product of the spaces' sizes,
    stopped as soon as it passes the cap."""
    total = 1
    for space in spaces:
        total *= space.size
        if total > _MAX_PREFIX_POINTS:
            raise ModelFormatError(
                f"model has too many full trajectories; the loader caps at {_MAX_PREFIX_POINTS}"
            )


def _load_chain(data: Mapping) -> LoadedModel:
    max_depth = data.get("maxDepth")
    if not isinstance(max_depth, int) or isinstance(max_depth, bool) or max_depth < 0:
        raise ModelFormatError('"maxDepth" must be a nonnegative integer')

    # Steps first: once they cover 0..maxDepth-1, the file itself is at
    # least maxDepth entries long, so everything built per depth below is
    # bounded by the input.
    steps_entry = data.get("steps")
    if not isinstance(steps_entry, list):
        raise ModelFormatError('"steps" must be a list')
    by_depth: dict = {}
    for entry in steps_entry:
        if not isinstance(entry, Mapping):
            raise ModelFormatError("each step must be an object")
        n = entry.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n < max_depth:
            raise ModelFormatError(f'step "n" must lie in 0..{max_depth - 1}')
        if n in by_depth:
            raise ModelFormatError(f"step {n} given twice")
        by_depth[n] = entry
    if len(by_depth) < max_depth:
        first = next(n for n in range(max_depth) if n not in by_depth)
        raise ModelFormatError(
            f"missing steps for {max_depth - len(by_depth)} depths, the first is {first}"
        )

    spaces_entry = data.get("spaces")
    if not isinstance(spaces_entry, list) or not spaces_entry:
        raise ModelFormatError('"spaces" must be a nonempty list')
    if len(spaces_entry) not in (1, max_depth + 1):
        raise ModelFormatError(
            f'"spaces" must have 1 or {max_depth + 1} entries, got {len(spaces_entry)}'
        )
    # A single entry is parsed once, and that one space serves every depth.
    spaces = tuple(_space_from_entry(entry, i) for i, entry in enumerate(spaces_entry))
    spaces *= (max_depth + 1) // len(spaces)

    _check_size(spaces)
    labels = _prefix_labels(spaces)
    steps, size = [], 1  # size: |P_n|, the number of depth-n prefixes
    for n in range(max_depth):
        size *= spaces[n].size
        steps.append(_step_rows(by_depth[n], size, spaces[n], spaces[n + 1], n, labels))
    try:
        chain = ChainModel(spaces, steps)
    except DomainError as exc:
        raise ModelFormatError(str(exc)) from exc
    return LoadedModel(chain)


def _space_from_entry(entry, position: int) -> FiniteSpace:
    if not isinstance(entry, Mapping):
        raise ModelFormatError(f"space {position} must be an object")
    space_id = entry.get("id", f"X{position}")
    states = entry.get("states")
    if not isinstance(states, list) or not states:
        raise ModelFormatError(f'space {position} needs a nonempty "states" list')
    return _make_space(space_id, states, f"space {position}")


def _make_space(space_id, states, where: str) -> FiniteSpace:
    for s in states:
        if not isinstance(s, str) or not s:
            raise ModelFormatError(f"{where}: state labels must be nonempty strings")
        if "|" in s:
            raise ModelFormatError(f'{where}: state labels may not contain "|"')
    try:
        return FiniteSpace(str(space_id), states)
    except DomainError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


def _dist_from_mapping(space: FiniteSpace, mapping: Mapping, where: str) -> Dist:
    # Literals go straight to integers (p, q): no Fraction per weight.
    entries = []
    for label, text in mapping.items():
        try:
            index = space.index_of(label)
        except DomainError:
            raise ModelFormatError(f"{where}: unknown state {label!r}") from None
        if not isinstance(text, str):
            raise ModelFormatError(
                f"{where}: weights must be rational strings, got {text!r}"
            )
        try:
            entries.append((index, *parse_ratio(text)))
        except ValueError as exc:
            raise ModelFormatError(f"{where}: {exc}") from exc
    entries.sort()
    try:
        return Dist._from_numerators(space, *over_common_denominator(entries))
    except DomainError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


def _prefix_labels(spaces: tuple):
    """n -> the labels of the depth-n prefixes, in enumeration order (the
    text `label_at` writes), for n asked in increasing order.  Each depth's
    list extends the one before by a coordinate, and only the last depth
    asked for is kept, so a chain with no "table" step builds none."""
    depth, labels = 0, list(spaces[0].labels)

    def at(n: int) -> list:
        nonlocal depth, labels
        while depth < n:
            depth += 1
            states = spaces[depth].labels
            labels = [f"{head}|{state}" for head in labels for state in states]
        return labels

    return at


def _step_rows(
    entry: Mapping, size: int, last: FiniteSpace, target: FiniteSpace, n: int, labels
) -> tuple:
    """Step n's `size` rows on `target`, one per depth-n prefix in order;
    `last` is X_n.  A tuple, which the chain's Kernel keeps, not copies."""
    kind = entry.get("kind")
    where = f"step {n}"
    if kind == "const":
        row = entry.get("row")
        if not isinstance(row, Mapping):
            raise ModelFormatError(f'{where}: "const" needs a "row" object')
        return (_dist_from_mapping(target, row, where),) * size
    if kind == "last-state":
        by_last = _keyed_rows(entry, kind, last.labels, target, where)
        # The last coordinate is the least significant, so prefix i ends in
        # state i % |X_n| and the rows repeat with that period.
        return by_last * (size // last.size)
    if kind == "table":
        return _keyed_rows(entry, kind, labels(n), target, where)
    raise ModelFormatError(f'{where}: unknown kind {kind!r}')


def _keyed_rows(entry: Mapping, kind: str, keys, target: FiniteSpace, where: str) -> tuple:
    """One Dist per key, in key order, read from the step's "rows" object,
    which must hold a row object for every key and nothing else.  Rows
    written identically share one Dist, parsed at the first of them."""
    rows = entry.get("rows")
    if not isinstance(rows, Mapping):
        raise ModelFormatError(f'{where}: "{kind}" needs a "rows" object')
    dists = []
    parsed: dict = {}  # a row's (label, text) pairs -> its accepted Dist
    for key in keys:
        row = rows.get(key)
        if not isinstance(row, Mapping):
            raise ModelFormatError(f"{where}: row {key!r} is missing or not an object")
        literal = tuple(row.items())
        try:
            dist = parsed.get(literal)
        except TypeError:  # an unhashable weight, which the parse rejects
            literal = dist = None
        if dist is None:
            dist = _dist_from_mapping(target, row, f"{where}, row {key!r}")
            if literal is not None:
                parsed[literal] = dist
        dists.append(dist)
    if len(rows) > len(dists):
        raise ModelFormatError(f"{where}: {len(rows)} rows for {len(dists)} keys")
    return tuple(dists)
