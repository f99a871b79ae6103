"""Exact rational scalars: the base ring of every linear combination.

A coefficient or coordinate is an ``int`` whenever it is integral and a
canonical `fractions.Fraction` otherwise (gcd(|p|, q) = 1, q >= 2);
:func:`exact` brings any rational into that form.  The textual form is
`p/q` with the denominator omitted when it equals 1, e.g. `3`, `-2/5`,
which is what ``str`` prints for both representations.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?\Z")


def exact(c):
    """``c`` as an ``int`` when it is integral, otherwise as a ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:  # a Fraction is already in lowest terms
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def parse_coefficient(text: str) -> Fraction:
    """Parse `p/q` or `p`; raises ValueError on anything else (incl. q = 0)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
