"""Deterministic check reports.

A report is a fixed header plus one line per check:

    CHECK <id> PASS|FAIL <lhs> <rhs>

Each column is a value rendered by the check's render function: scalar
checks print the rational, structural checks (distributions, kernels,
tables) print a short fingerprint of a canonical text form.  `verify`
decides each line and writes its columns by one rule (see `verify._line`):
a PASS shows one rendering in both columns, and a FAIL shows the freshly
built side first and the reference side second.  A `Report` only keeps
the rendered lines and counts the failures.  Rendering depends only on
the compared values, never on timing or identity, so a report is stable
byte for byte across runs.

Every canonical form and table line is written by prefix number, each
label read by `label_at`: distributions by `measure.dist_lines`, tables
by `table_lines`, the one renderer of table lines, which the command
line's `condexp` and `sample` listings share.  `verify` writes the
`canonical_kernel` text of its kernel-comp, restrict and split lines
straight from flat integer lists (`verify._flat_texts`).
"""
from __future__ import annotations

import hashlib

from .measure import dist_lines


def fingerprint(text: str) -> str:
    """Short stable digest of a canonical text form."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def table_lines(space, entries, sep: str):
    """Each (prefix number, value) pair of `entries` as `label<sep>value`,
    in the order given, the label read by number (`label_at`).

    The one renderer of table lines: `condexp` and `sample` write their
    listings through it and `canonical_table` joins it, so no point of
    `space` is built or looked up.
    """
    label_at = space.label_at
    return (f"{label_at(i)}{sep}{value}" for i, value in entries)


def canonical_dist(d) -> str:
    return " ".join(dist_lines(d, "="))


def canonical_kernel(k) -> str:
    label_at = k.source.label_at
    rows = (f"{label_at(i)}:{canonical_dist(row)}" for i, row in enumerate(k.rows))
    return "; ".join(rows)


def canonical_table(space, table) -> str:
    """Canonical form of a table by point number: a list with one rational
    per point of `space`, or a {point number: rational} dict in increasing
    order of its keys, written as the "="-lines of `table_lines` joined by
    spaces; so the text is that of the table keyed by point, in
    enumeration order."""
    entries = table.items() if isinstance(table, dict) else enumerate(table)
    return " ".join(table_lines(space, entries, "="))


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
