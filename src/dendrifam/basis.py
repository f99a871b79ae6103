"""Shared basis machinery: the leaf tree, decoration alphabets, spans,
the ranked canonical order and the enumeration of basis trees.

A span (:class:`LinComb`) is a finite formal rational-linear combination
of basis trees, stored as a map from tree to nonzero coefficient.  Spans
compare as maps, so term order never affects equality or arithmetic.
Coefficients are ``int`` whenever they are integral and ``Fraction``
otherwise; the free products of integral spans only produce integers.
A span carries the order of its algebra, and the canonical term order
is imposed only when it is read (:meth:`LinComb.ordered`, which the
printers call).  The bare leaf is representable as a tree but is never
a span term.  A free product is a span whose terms its bilinear lift
builds when first read (:class:`dendrifam.family._Product`).

Trees are ordered by ranks, per collection: a tree module walks the
nodes reachable from the collection once, without recursion, giving
each its leaf count, and :func:`rank_levels` ranks them by level.
:func:`enumerate_trees` lists the basis trees of both free families; a
binary vertex is the case of one decoration over two typed children.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, product
from typing import Any, Callable, Iterable, Mapping, Optional, Tuple

from .errors import InfiniteSemigroup, InvalidElement, LeafOperand, TypingViolation
from .rationals import exact
from .semigroups import IDENTITY, TOKEN_RE


class Leaf:
    """The unique tree with a single leaf, written ``|``; not a basis element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Leaf"


LEAF = Leaf()


def edge_violation(edge: str, etype, child) -> TypingViolation:
    """The error for an edge whose type breaks the typing invariant; it names
    the kind of child, never its repr, which is as deep as the child."""
    kind = "a leaf" if child is LEAF else "a vertex"
    return TypingViolation(f"{edge} {etype} inconsistent with {kind} child")


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of decoration symbols (term-grammar tokens); declaration
    order is canonical."""

    symbols: Tuple[str, ...]

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        if not symbols:
            raise InvalidElement("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise InvalidElement("alphabet symbols must be distinct")
        for x in symbols:
            if not (isinstance(x, str) and TOKEN_RE.fullmatch(x)):
                raise InvalidElement(f"bad decoration symbol: {x!r}")
        object.__setattr__(self, "symbols", symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, x):
        return x in self.symbols

    def index(self, x: str) -> int:
        try:
            return self.symbols.index(x)
        except ValueError:
            raise InvalidElement(f"{x!r} is not a declared decoration symbol")


class LinComb:
    """A span: a map from basis tree to nonzero coefficient.

    ``map`` holds the terms and must not be mutated; ``order`` is the
    algebra's canonical order (or ``None``): called on the span's keys and
    an optional set ``repeated``, it returns a mapping from each key to its
    place, and a tree order adds to ``repeated`` the subtrees it reached
    more than once.  ``LinComb(pairs, order)`` builds a span from
    (coefficient, tree) pairs: duplicates merged, zeros dropped, the leaf
    rejected, nothing sorted.  A free product sets ``map`` when first read.
    """

    __slots__ = ("map", "order")

    def __init__(self, terms: Iterable[Tuple[Any, Any]] = (), order: Optional[Callable] = None):
        acc: dict = {}
        for coeff, tree in terms:
            if tree is LEAF:
                raise LeafOperand("the leaf | is not a basis element of the free algebra")
            acc[tree] = acc.get(tree, 0) + coeff
        self.map = clean(acc)
        self.order = order

    @classmethod
    def from_map(cls, m: Mapping, order) -> "LinComb":
        # trusted constructor: ``m`` is already free of zeros and duplicates
        span = cls.__new__(cls)
        span.map = m
        span.order = order
        return span

    def ordered(self, repeated: Optional[set] = None) -> list:
        """(coefficient, tree) pairs in the canonical order, ranked afresh;
        ``repeated`` is handed to the order."""
        items = [(c, t) for t, c in self.map.items()]
        if self.order is not None:
            rank = self.order(self.map, repeated)
            items.sort(key=lambda item: rank[item[1]])
        return items

    @property
    def terms(self) -> Tuple[Tuple[Any, Any], ...]:
        """(coefficient, tree) pairs in the canonical order."""
        return tuple(self.ordered())

    def is_zero(self) -> bool:
        return not self.map

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.map == other.map

    def __hash__(self):
        return hash(frozenset(self.map.items()))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.map)

    def __repr__(self):
        return f"LinComb({self.terms!r})"

    def trees(self):
        return [t for _, t in self.terms]

    def scaled(self, c) -> "LinComb":
        c = exact(c)
        if c == 0:
            return ZERO_SPAN
        if c == 1:
            return self
        return LinComb.from_map({t: exact(c * v) for t, v in self.map.items()}, self.order)


def clean(acc: dict) -> dict:
    """``acc`` without its cancelled terms, integral coefficients as ints."""
    return {t: c if type(c) is int else exact(c) for t, c in acc.items() if c}


ZERO_SPAN = LinComb()


def span_single(tree, coeff=1) -> LinComb:
    if tree is LEAF:
        raise LeafOperand("the leaf | is not a basis element of the free algebra")
    coeff = exact(coeff)
    if coeff == 0:
        return ZERO_SPAN
    return LinComb.from_map({tree: coeff}, None)


def normalize(pairs: Iterable[Tuple[Any, Any]], order: Optional[Callable] = None) -> LinComb:
    """Span of (coefficient, tree) pairs: duplicates merged, zeros dropped.

    The terms are not sorted; ``order`` is kept for the ordered view.
    """
    return LinComb(pairs, order)


def merge(maps: Iterable[Mapping]) -> Mapping:
    """Sum of span maps: coefficients of equal trees added, zeros dropped.

    The result may be one of the arguments itself, so it must not be mutated.
    """
    maps = [m for m in maps if m]
    if len(maps) <= 1:
        return maps[0] if maps else {}
    acc = dict(maps[0])
    for m in maps[1:]:
        for t, c in m.items():
            acc[t] = acc.get(t, 0) + c
    return clean(acc)


def rank_levels(rank: dict, flat: Callable) -> dict:
    """Turn a map from tree to leaf count into ranks, in place, level by
    level in increasing leaf count.  A level is sorted by ``flat(t)``,
    which reads from ``rank`` the ranks of ``t``'s children, ranked
    already as they have fewer leaves.  The leaf gets rank 0."""
    levels: dict = {}
    for t, n in rank.items():
        level = levels.get(n)
        if level is None:
            levels[n] = [t]
        else:
            level.append(t)
    r = 0
    for n in sorted(levels):
        level = levels.pop(n)
        level.sort(key=flat if n > 1 else None)
        for t in level:
            rank[t] = r
            r += 1
    return rank


def enumerate_trees(n: int, alphabet: Alphabet, semigroup, max_word, max_decs, make, order):
    """All basis trees with n+1 leaves, each once, in the order ``order``.

    A vertex has k decorations, 1 <= k <= ``max_decs``, over k+1 typed
    children and is built by ``make(decorations, (edge type, child)
    pairs)``.  A free semigroup needs a word-length bound.
    """
    if not semigroup.is_finite and max_word is None:
        raise InfiniteSemigroup("cannot enumerate trees over an infinite semigroup")
    # listed when an internal edge needs them; a free semigroup's at once, to check its bound
    omega = cache(partial(semigroup.elements, max_word))
    if not semigroup.is_finite:
        omega()
    edges = [[(IDENTITY, LEAF)]]  # size s -> the typed edges to the trees with s+1 leaves
    for size in range(1, n + 1):
        trees = []
        for k in range(1, min(size, max_decs) + 1):
            words = list(product(alphabet, repeat=k))
            # the k cuts split the other size - k leaves among the k+1 children
            for cuts in combinations(range(size), k):
                bounds = (-1,) + cuts + (size,)
                for children in product(*[edges[b - a - 1] for a, b in zip(bounds, bounds[1:])]):
                    trees.extend([make(decs, children) for decs in words])
        if size < n:
            edges.append([(a, t) for t in trees for a in omega()])
    trees.sort(key=order(trees).__getitem__)
    return trees
