"""Exact rational scalars and their text form.

Every probability in this package is a `fractions.Fraction`; nothing is ever
rounded, so identities can be tested as literal equality.  The wire format is
"p/q" with gcd(p, q) = 1 and q > 0; integers may drop the "/1".
"""
from __future__ import annotations

import re
from fractions import Fraction

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)

# Fraction() would also take decimals like "0.75" and non-ASCII digits like
# "١/2"; the wire format takes neither.
_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


def parse_rational(text: str) -> Rat:
    """Parse "p/q" or "p" into an exact rational.

    Raises ValueError on anything else: decimals, empty strings, zero
    denominators, stray characters.
    """
    text = text.strip()
    if not _LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Rat(text)


def format_rational(value) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(Rat(value))
