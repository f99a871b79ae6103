"""Exact rationals, the base ring of every linear combination, and the one numeral reader.

A coefficient or coordinate is an ``int`` whenever it is integral and a
canonical `fractions.Fraction` otherwise (gcd(|p|, q) = 1, q >= 2);
:func:`exact` brings any rational into that form.  The textual form is
`p/q` with the denominator omitted when it equals 1, e.g. `3`, `-2/5`,
which is what ``str`` prints for both representations.  Every numeral of a
file, an option or a term is read here, in ASCII digits only: an integer
``[+-]?[0-9]+`` or a rational ``-?[0-9]+(/[0-9]+)?``, whitespace around it
stripped.  A digit run past Python's int-to-str limit, read at each call, is
refused before ``int()`` sees it; a refusal names the field, never the numeral.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

_INTEGER_RE = re.compile(r"[+-]?([0-9]+)")
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def exact(c):
    """``c`` as an ``int`` when it is integral, otherwise as a ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:  # a Fraction is already in lowest terms
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def digit_limit() -> int:
    """Python's int-to-str digit limit as it is now; 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def parse_integer(text: str, field: str, error: type = ValueError) -> int:
    """The integer numeral ``text``, read for ``field``; ``error`` naming it otherwise."""
    match = _INTEGER_RE.fullmatch(text.strip())
    if match is None:
        raise error(f"{field} must be an integer")
    if (limit := digit_limit()) and len(match[1]) > limit:
        raise error(f"{field} has more than {limit} digits")
    return int(match[0])


def parse_coefficient(text: str, field: str = "coefficient") -> Fraction:
    """The rational ``p/q`` or ``p`` (q nonzero) of ``text``; ValueError naming ``field`` else."""
    if not _RATIONAL_RE.fullmatch(text.strip()):
        raise ValueError(f"{field} must be a rational")
    p, _, q = text.partition("/")
    p, q = parse_integer(p, field), parse_integer(q or "1", field)
    if not q:
        raise ValueError(f"{field} has a zero denominator")
    return Fraction(p, q)
