"""Brute-force path enumeration over model documents.

The oracle reads the JSON model document itself and multiplies step weights
along every path, so it shares no code with the library it checks: no
kernels, no Dist, no cylinders.  Prefixes are tuples of state labels, as on
the command line; a prefix of depth n has n + 1 entries.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


class Oracle:
    """Step rows and path laws of one chain or product model document."""

    def __init__(self, doc: dict):
        if doc.get("kind") == "product":
            factors = doc["factors"]
            self.labels = [list(f) for f in factors]
            self._rows = [_parse_row(self.labels[n], f) for n, f in enumerate(factors)]
            self._step = lambda n, prefix: self._rows[n + 1]
            self.kind = "product"
        else:
            depth = doc["maxDepth"]
            spaces = doc["spaces"]
            if len(spaces) == 1:
                spaces = spaces * (depth + 1)
            self.labels = [list(s["states"]) for s in spaces]
            steps = {s["n"]: s for s in doc["steps"]}
            self._steps = [self._parse_step(steps[n], n) for n in range(depth)]
            self._step = lambda n, prefix: self._steps[n](prefix)
            self.kind = "chain"
        self.max_depth = len(self.labels) - 1
        self._order = [{s: i for i, s in enumerate(ls)} for ls in self.labels]

    def _parse_step(self, step: dict, n: int):
        target = self.labels[n + 1]
        if step["kind"] == "const":
            row = _parse_row(target, step["row"])
            return lambda prefix: row
        rows = {key: _parse_row(target, r) for key, r in step["rows"].items()}
        if step["kind"] == "last-state":
            return lambda prefix: rows[prefix[-1]]
        return lambda prefix: rows["|".join(prefix)]

    def row(self, n: int, prefix: tuple) -> list:
        """Nonzero (state, weight) pairs of the step from a depth-n prefix."""
        return self._step(n, prefix)

    def sizes(self) -> list:
        return [len(ls) for ls in self.labels]

    def sort_key(self, prefix: tuple) -> tuple:
        """Position of a prefix in the lexicographic enumeration."""
        return tuple(self._order[i][s] for i, s in enumerate(prefix))

    def prefixes(self, depth: int):
        """All depth-`depth` prefixes, in enumeration order."""
        return itertools.product(*self.labels[: depth + 1])

    def law(self, prefix: tuple, b: int) -> dict:
        """Law of the depth-b prefix started from `prefix`, by enumeration."""
        a = len(prefix) - 1
        if b <= a:
            return {prefix[: b + 1]: Fraction(1)}
        acc = {prefix: Fraction(1)}
        for n in range(a, b):
            nxt: dict = {}
            for p, w in acc.items():
                for s, ws in self.row(n, p):
                    nxt[p + (s,)] = w * ws
            acc = nxt
        return acc

    def content(self, prefix: tuple, constraints: dict) -> Fraction:
        """Probability of {x_i in allowed_i for all i} started from `prefix`."""
        depth = max(len(prefix) - 1, max(constraints))
        return sum(
            (w for t, w in self.law(prefix, depth).items()
             if all(t[i] in ok for i, ok in constraints.items())),
            Fraction(0),
        )

    def path_weight(self, traj: tuple, start_depth: int) -> Fraction:
        """Probability of the path `traj` given its depth-`start_depth` prefix."""
        w = Fraction(1)
        for n in range(start_depth, len(traj) - 1):
            w *= dict(self.row(n, traj[: n + 1])).get(traj[n + 1], Fraction(0))
        return w

    def positive_extension(self, rng, prefix: tuple) -> tuple:
        """Extend `prefix` to full depth through steps of positive weight."""
        p = tuple(prefix)
        for n in range(len(p) - 1, self.max_depth):
            p = p + (rng.choice([s for s, _ in self.row(n, p)]),)
        return p


def _parse_row(labels: list, mapping: dict) -> list:
    weights = {s: Fraction(w) for s, w in mapping.items()}
    return [(s, weights[s]) for s in labels if weights.get(s)]


def satisfies(traj: tuple, constraints: dict) -> bool:
    return all(i < len(traj) and traj[i] in ok for i, ok in constraints.items())


def fmt(prefix: tuple) -> str:
    return "|".join(prefix)
