"""Exact rational scalars and their text form.

Every probability this package returns is a `fractions.Fraction`; nothing is
ever rounded, so identities can be tested as literal equality.  Inside,
hot loops carry integer numerators over one common denominator and build a
`Fraction` only for the value they hand out.  The wire format is "p/q" with
gcd(p, q) = 1 and q > 0; integers may drop the "/1".
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DomainError

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)

# Fraction() would also take decimals like "0.75" and non-ASCII digits like
# "١/2"; the wire format takes neither.
_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


def parse_ratio(text: str) -> tuple:
    """Parse "p/q" or "p" into the integers (p, q), not reduced.

    Raises ValueError on anything else: decimals, empty strings, zero
    denominators, stray characters.
    """
    text = text.strip()
    if not _LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def ratio_of(value) -> tuple:
    """(numerator, denominator) of an exact rational: an int, a Fraction, or
    a "p/q" string by parse_ratio's rule.  Anything else, a float, a Decimal
    or None, raises DomainError, as a malformed literal does."""
    if type(value) is int:
        return value, 1
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    if isinstance(value, str):
        try:
            return parse_ratio(value)
        except ValueError as exc:
            raise DomainError(str(exc)) from None
    raise DomainError(f"not an exact rational: {value!r}")


def sum_of_ratios(by_denominator: dict, scale: int = 1) -> Rat:
    """sum(p / q for q, p in by_denominator.items()) / scale, as one Fraction.

    Callers add integer numerators into one slot per denominator, so a sum
    of many terms costs one lcm and one gcd instead of one per term.
    """
    common = math.lcm(*by_denominator)
    total = sum(p * (common // q) for q, p in by_denominator.items())
    return Rat(total, common * scale)


def format_ratio(numerator: int, denominator: int) -> str:
    """Render numerator/denominator (denominator > 0) as "p/q", or "p"."""
    g = math.gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"

