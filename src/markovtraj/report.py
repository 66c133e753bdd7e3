"""Deterministic check reports.

A report is a fixed header plus one line per check:

    CHECK <id> PASS|FAIL <lhs> <rhs>

Each column is a value rendered by the check's render function: scalar
checks print the rational, structural checks (distributions, kernels,
tables) print a short fingerprint of a canonical text form.  `verify`
decides each line and writes its columns by one rule (see `verify._add`):
a PASS shows one rendering in both columns, and a FAIL shows the freshly
built side first and the reference side second.  A `Report` only keeps
the rendered lines and counts the failures.  Rendering depends only on
the compared values, never on timing or identity, so a report is stable
byte for byte across runs.
"""
from __future__ import annotations

import hashlib
from typing import Mapping

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


class Report:
    def __init__(self, header: str):
        self.header = header
        self.lines: list = []
        self.failed = 0

    def add(self, check_id: str, ok: bool, lhs: str, rhs: str) -> None:
        self.lines.append(f"CHECK {check_id} {'PASS' if ok else 'FAIL'} {lhs} {rhs}")
        if not ok:
            self.failed += 1

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        if self.failed:
            summary = f"RESULT FAIL failed={self.failed} checks={len(self.lines)}"
        else:
            summary = f"RESULT PASS checks={len(self.lines)}"
        return "\n".join([self.header, *self.lines, summary])
