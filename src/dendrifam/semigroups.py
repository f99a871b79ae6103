"""The index semigroup and the monoid obtained by adjoining a formal identity.

Three kinds of semigroup are supported:

* ``free``   -- nonempty words over a finite generator set, product is
  concatenation (infinite); the generators must be uniquely decodable,
  so that every word is a product of generators in only one way;
* ``cyclic`` -- integers 0..n-1 under addition mod n, named by their
  canonical decimal numerals (``0``, ``7``, not ``07``) and never listed
  unless :meth:`Semigroup.elements` is asked for them;
* ``table``  -- an explicit finite Cayley table, rows in element order,
  checked for its shape, closure and associativity when the semigroup is
  built; it is then the product cache.

Elements are plain string tokens, and no other value is one.  A fresh
identity is always adjoined: the singleton :data:`IDENTITY`, printed ``1``
but distinct from every token (also from an element literally named ``1``)
and from every semigroup unit.  An element of the extended monoid, the
type of a tree edge, is therefore a token or ``IDENTITY``; only leaf
edges of basis trees carry ``IDENTITY``.
"""

from __future__ import annotations

import re
import sys
from itertools import product
from typing import Iterable, Optional

from .errors import InfiniteSemigroup, InvalidElement, SemigroupViolation, shown

# the token rule of element names, decoration symbols and the term grammar
TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


def content_lines(text: str):
    """The nonblank lines of a definition file, each stripped of its ``#``
    comment and of surrounding whitespace."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


class _Identity:
    """The identity adjoined to the semigroup, written ``1``."""

    __slots__ = ()

    def __str__(self) -> str:
        return "1"

    def __repr__(self) -> str:
        return "IDENTITY"


IDENTITY = _Identity()


def _uniquely_decodable(code) -> bool:
    """Sardinas-Patterson test: no word splits into codewords in two ways.

    Follows the dangling suffixes left when one factorisation runs ahead
    of another; the code is ambiguous exactly when one of them is empty.
    """
    pending = [y[len(x):] for x in code for y in code if x != y and y.startswith(x)]
    seen = set()
    while pending:
        suffix = pending.pop()
        if not suffix:
            return False
        if suffix in seen:
            continue
        seen.add(suffix)
        for c in code:
            if suffix.startswith(c):
                pending.append(suffix[len(c):])
            elif c.startswith(suffix):
                pending.append(c[len(suffix):])
    return True


def _check_token(token: str) -> str:
    if not (isinstance(token, str) and TOKEN_RE.fullmatch(token)):
        raise SemigroupViolation(f"bad element token: {shown(token)}")
    return token


class Semigroup:
    """An index semigroup with a declared, deterministic element order, checked
    when it is built (a Cayley table for its shape, closure and associativity)."""

    def __init__(self, kind, *, generators=None, order=None, elements=None, rows=None):
        self.kind = kind
        self._mul_cache: dict = {}
        self._ranks: dict = {}  # element -> its sort key, kept once found
        if kind == "free":
            gens = tuple(_check_token(g) for g in generators)
            if not gens or len(set(gens)) != len(gens):
                raise SemigroupViolation("free semigroup needs distinct nonempty generators")
            if not _uniquely_decodable(gens):
                raise SemigroupViolation(
                    f"free generators {list(gens)} are not uniquely decodable: "
                    "some word is a product of generators in two ways")
            self.generators = gens
        elif kind == "cyclic":
            if type(order) is not int:
                raise SemigroupViolation(
                    f"cyclic semigroup order must be an int, got {shown(order)}")
            if order < 1:
                raise SemigroupViolation("cyclic semigroup needs order >= 1")
            limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where there is no limit
            if limit and order >= 10 ** limit:
                raise SemigroupViolation(f"cyclic semigroup order has more than {limit} digits")
            self.order = order
        elif kind == "table":
            elems, rows = list(elements), [list(row) for row in rows]
            if len(rows) != len(elems):
                raise SemigroupViolation("Cayley table must have one row per element")
            for a, row in zip(elems, rows):
                if len(row) != len(elems):
                    raise SemigroupViolation(f"row for {a} has wrong length")
            elems = tuple(_check_token(e) for e in elems)
            if not elems or len(set(elems)) != len(elems):
                raise SemigroupViolation("table semigroup needs distinct nonempty elements")
            self._elements = elems
            self._ranks = {e: (i,) for i, e in enumerate(elems)}
            cache = self._mul_cache
            for a, row in zip(elems, rows):
                for b, c in zip(elems, row):  # membership in the tuple: an unhashable product too
                    if c not in elems:
                        raise SemigroupViolation(f"closure fails: {a}*{b} = {shown(c)}",
                                                 witness=(a, b))
                    cache[a, b] = c
            for a, b, c in product(elems, repeat=3):
                left, right = cache[cache[a, b], c], cache[a, cache[b, c]]
                if left != right:
                    raise SemigroupViolation(
                        f"associativity fails: ({a}{b}){c} = {left} but {a}({b}{c}) = {right}",
                        witness=(a, b, c))
        else:
            raise SemigroupViolation(f"unknown semigroup kind: {shown(kind)}")

    # -- constructors -------------------------------------------------

    @classmethod
    def free(cls, generators: Iterable[str]) -> "Semigroup":
        return cls("free", generators=list(generators))

    @classmethod
    def cyclic(cls, order: int) -> "Semigroup":
        return cls("cyclic", order=order)

    @classmethod
    def trivial(cls) -> "Semigroup":
        return cls.cyclic(1)

    @classmethod
    def table(cls, elements: Iterable[str], rows: Iterable[Iterable[str]]) -> "Semigroup":
        """Build from a Cayley table given as rows in element order, checked when built."""
        return cls("table", elements=elements, rows=rows)

    # -- the product and membership ------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind != "free"

    def contains(self, a: str) -> bool:
        try:
            return a in self._ranks or self._rank(a) is not None
        except TypeError:  # an unhashable value names no element
            return False

    def _rank(self, a):
        """The sort key of ``a``: (position,) in a table, (value,) in a cyclic
        semigroup, (length, word) in a free one; None for a non-element."""
        if not isinstance(a, str):  # every element is a string token
            return None
        rank = self._ranks.get(a)
        if rank is None:  # found once, then kept
            if self.kind == "free" and self._segmentable(a):
                rank = self._ranks[a] = (len(a), a)
            # a cyclic element is its canonical numeral; the length test keeps
            # int() away from long digit strings
            elif (self.kind == "cyclic" and a.isascii() and a.isdigit()
                    and (a == "0" or a[0] != "0") and len(a) <= len(str(self.order))
                    and int(a) < self.order):
                rank = self._ranks[a] = (int(a),)
        return rank

    def _segmentable(self, word: str) -> bool:
        # membership in the free semigroup: the word must split into generators
        if not word:
            return False
        ok = [True] + [False] * len(word)
        for i in range(1, len(word) + 1):
            for g in self.generators:
                if i >= len(g) and ok[i - len(g)] and word[i - len(g):i] == g:
                    ok[i] = True
                    break
        return ok[len(word)]

    def require(self, a: str) -> str:
        self.element_key(a)
        return a

    def mul(self, a: str, b: str) -> str:
        """Semigroup product of two elements, kept once computed (a table's from the start)."""
        cached = self._mul_cache.get((a, b))
        if cached is not None:
            return cached
        self.require(a)
        self.require(b)
        value = a + b if self.kind == "free" else str((int(a) + int(b)) % self.order)
        self._mul_cache[(a, b)] = value
        return value

    def mul_ext(self, a, b):
        """Product in the extended monoid; the identity is neutral."""
        if a is IDENTITY:
            return b
        if b is IDENTITY:
            return a
        return self.mul(a, b)

    # -- enumeration and ordering --------------------------------------

    def elements(self, max_word: Optional[int] = None) -> list[str]:
        """All elements, in canonical order.

        For a free semigroup a word-length bound is required; the words of
        at most ``max_word`` generator factors are returned.
        """
        if self.kind == "cyclic":
            return [str(i) for i in range(self.order)]
        if self.kind == "table":
            return list(self._elements)
        if max_word is None:
            raise InfiniteSemigroup("free semigroup has infinitely many elements")
        if max_word < 1:
            raise ValueError(f"word-length bound must be at least 1, got {max_word}")
        # distinct factor lists make distinct words: the generators are uniquely decodable
        words = ["".join(combo) for length in range(1, max_word + 1)
                 for combo in product(self.generators, repeat=length)]
        return sorted(words, key=lambda w: (len(w), w))

    def element_key(self, a: str):
        """Sort key realising the configured element order; InvalidElement for a non-element."""
        rank = self._rank(a)
        if rank is None:
            raise InvalidElement(f"{shown(a)} is not an element of the semigroup")
        return rank

    def ext_key(self, e):
        """Sort key on the extended monoid: identity before everything."""
        if e is IDENTITY:
            return (0,)
        return (1, *self.element_key(e))

    def __repr__(self):
        if self.kind == "free":
            return f"Semigroup.free({list(self.generators)})"
        if self.kind == "cyclic":
            return f"Semigroup.cyclic({self.order})"
        return f"Semigroup.table({list(self._elements)}, ...)"


def from_config_text(text: str) -> Semigroup:
    """Parse the line-oriented semigroup config format.

    ``kind=free|cyclic|table`` first, then the one line ``generators=a,b`` or
    ``order=n``, or a CSV Cayley table whose header row and column list element
    names.  Blank lines and ``#`` comments, also after content, are ignored;
    any other line is refused.
    """
    lines = list(content_lines(text))
    if not lines or not lines[0].startswith("kind="):
        raise SemigroupViolation("config must start with kind=free|cyclic|table")
    kind = lines[0][len("kind="):].strip()
    body = lines[1:]
    if kind in ("free", "cyclic"):  # the body is the one generators= or order= line
        key = "generators=" if kind == "free" else "order="
        for ln in body:
            if not ln.startswith(key):
                raise SemigroupViolation(f"unrecognised line in semigroup config: {ln!r}")
        if not body:
            raise SemigroupViolation(f"{kind} semigroup config needs {key}")
        if len(body) > 1:
            raise SemigroupViolation(f"{key} may be declared only once")
        value = body[0][len(key):]
        if kind == "free":
            return Semigroup.free([g.strip() for g in value.split(",") if g.strip()])
        try:
            return Semigroup.cyclic(int(value))
        except ValueError:
            raise SemigroupViolation("order= must be an integer")
    if kind == "table":
        rows = [[cell.strip() for cell in ln.split(",")] for ln in body]
        if not rows or rows[0][0] != "":
            raise SemigroupViolation("Cayley table header row must start with an empty cell")
        names = rows[0][1:]
        data = []
        for row in rows[1:]:
            if not row or row[0] not in names:
                raise SemigroupViolation(f"unexpected table row: {row!r}")
            data.append((row[0], row[1:]))
        by_name = dict(data)
        if len(by_name) != len(names) or len(data) != len(names):  # a row missing or repeated
            raise SemigroupViolation("Cayley table rows do not match the header")
        return Semigroup.table(names, [by_name[n] for n in names])
    raise SemigroupViolation(f"unknown semigroup kind: {kind!r}")
