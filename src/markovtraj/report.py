"""Deterministic check reports.

A report is a fixed header plus one line per check:

    CHECK <id> PASS|FAIL <lhs> <rhs>

A check passes iff its two values are equal under the library's own `==`,
the comparison the `check_*` functions make.  Each column is the value
rendered by the check's render function: scalar checks print the rational,
structural checks (distributions, kernels, tables) print a short
fingerprint of a canonical text form.  Equal values render equal text,
so a passing check renders one side and shows it in both columns:
`add_compared` renders its left value, and a caller that already holds
the text of one side (`verify`, for the model's memoized kernels and
tables) passes that text to `add` and renders the other side only when
the check fails.  Rendering depends only on the compared values, never
on timing or identity, so a report is stable byte for byte across runs.
"""
from __future__ import annotations

import hashlib
from typing import Callable, Mapping, NamedTuple

from .measure import dist_lines


def fingerprint(text: str) -> str:
    """Short stable digest of a canonical text form."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def table_lines(space, table: Mapping, sep: str):
    """Each entry of a {point: rational} table as `label<sep>value`.

    Entries come in enumeration order; this renders `condexp` output and
    the canonical form of tables.
    """
    return (
        f"{space.label_at(i)}{sep}{table[p]}"
        for i, p in enumerate(space.points())
        if p in table
    )


def canonical_dist(d) -> str:
    return " ".join(dist_lines(d, "="))


def canonical_kernel(k) -> str:
    label_at = k.source.label_at
    rows = (f"{label_at(i)}:{canonical_dist(row)}" for i, row in enumerate(k.rows))
    return "; ".join(rows)


def canonical_table(space, table: Mapping) -> str:
    """Canonical form of a {point: rational} table, in enumeration order."""
    return " ".join(table_lines(space, table, "="))


class CheckLine(NamedTuple):
    check_id: str
    ok: bool
    lhs: str
    rhs: str

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"CHECK {self.check_id} {status} {self.lhs} {self.rhs}"


class Report:
    def __init__(self, header: str):
        self.header = header
        self.lines: list = []

    def add(self, check_id: str, ok: bool, lhs: str, rhs: str) -> None:
        self.lines.append(CheckLine(check_id, ok, lhs, rhs))

    def add_compared(self, check_id: str, lhs, rhs, render: Callable) -> None:
        """Add a check that passes iff lhs == rhs, with columns render(side).

        A passing check renders lhs once for both columns; rhs is rendered
        only when the check fails.
        """
        ok = lhs == rhs
        text = render(lhs)
        self.add(check_id, ok, text, text if ok else render(rhs))

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        failed = sum(1 for line in self.lines if not line.ok)
        if failed:
            summary = f"RESULT FAIL failed={failed} checks={len(self.lines)}"
        else:
            summary = f"RESULT PASS checks={len(self.lines)}"
        parts = [self.header]
        parts.extend(line.render() for line in self.lines)
        parts.append(summary)
        return "\n".join(parts)
