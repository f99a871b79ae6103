"""Shared basis machinery: the leaf tree, frozen values (:class:`Value`), alphabets,
spans and their sums (:class:`Spans`), the ranked canonical order and enumeration.

A span (:class:`LinComb`) is a finite formal rational-linear combination
of basis trees, stored as a map from tree to nonzero coefficient.  The
constructor wraps a finished map; :func:`normalize` builds one from
(coefficient, tree) pairs and is the one sum of spans (``add``, scaling,
``span``) but for the two bilinear kernel lifts, kept apart for speed; a
free family lifts each basis pair it reads once and shares the map, as
no span mutates its map.  Spans compare as maps, so term order never
affects equality or arithmetic.
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

from functools import cache, partial
from itertools import combinations, product
from typing import Any, Callable, Iterable, Optional, Tuple

from .errors import InfiniteSemigroup, InvalidElement, LeafOperand, TypingViolation, shown
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


class Value:
    """A frozen value, its constructor call over ``_fields`` (the first of its ``__slots__``):
    pickled, copied, compared, hashed and shown as that call."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        values = args + tuple([kwargs.pop(n) for n in self._fields[len(args):] if n in kwargs])
        if kwargs or len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError  # only here: importing it slows start-up
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = type(other) is type(self)
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class Alphabet(Value):
    """Ordered set of decoration symbols (term-grammar tokens); declaration
    order is canonical."""

    __slots__ = _fields = ("symbols",)

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        if not symbols:
            raise InvalidElement("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise InvalidElement("alphabet symbols must be distinct")
        for x in symbols:
            if not (isinstance(x, str) and TOKEN_RE.fullmatch(x)):
                raise InvalidElement(f"bad decoration symbol: {shown(x)}")
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
            raise InvalidElement(f"{shown(x)} is not a declared decoration symbol")


class LinComb:
    """A span: a map from basis tree to nonzero coefficient.

    ``LinComb(m, order)`` wraps the finished dict ``m``, which holds the
    terms, free of zeros, duplicates and the leaf, and must not be mutated;
    :func:`normalize` builds a span from (coefficient, tree) pairs.
    ``order`` is the algebra's canonical order (or ``None``): called on
    the span's keys and an optional set ``repeated``, it returns a mapping
    from each key to its place, and a tree order adds to ``repeated`` the
    subtrees it reached more than once.  A free product sets ``map`` when
    first read.
    """

    __slots__ = ("map", "order")

    def __init__(self, m: dict, order: Optional[Callable] = None):
        if not isinstance(m, dict):
            raise TypeError(f"a span wraps a dict, not {type(m).__name__}")
        self.map = m
        self.order = order

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

    def scaled(self, c) -> "LinComb":
        c = exact(c)
        if c == 1:
            return self
        return normalize([(c * v, t) for t, v in self.map.items()], self.order)


def clean(acc: dict) -> dict:
    """``acc`` without its cancelled terms, integral coefficients as ints."""
    return {t: c if type(c) is int else exact(c) for t, c in acc.items() if c}


ZERO_SPAN = LinComb({})


def span_single(tree) -> LinComb:
    if tree is LEAF:
        raise LeafOperand("the leaf | is not a basis element of the free algebra")
    return LinComb({tree: 1})


def normalize(pairs: Iterable[Tuple[Any, Any]], order: Optional[Callable] = None) -> LinComb:
    """Span of (coefficient, tree) pairs: duplicates merged, zeros dropped,
    ints where integral, the leaf rejected; every sum of spans but the two
    bilinear kernel lifts.  The terms are not sorted; ``order`` is kept for
    the ordered view."""
    acc: dict = {}
    for coeff, tree in pairs:
        acc[tree] = acc.get(tree, 0) + coeff
    if LEAF in acc:
        raise LeafOperand("the leaf | is not a basis element of the free algebra")
    return LinComb(clean(acc), order)


class Spans:
    """The linear structure of spans, shared by the free families and the tensor spans:
    a subclass sets ``order``, and its ``_own`` may check a summand of another order."""

    def zero(self) -> LinComb:
        return ZERO_SPAN

    def _own(self, s: LinComb) -> LinComb:
        return s

    def add(self, *spans: LinComb) -> LinComb:
        order = self.order
        spans = [s if s.order is order else self._own(s) for s in spans if s.map]
        if len(spans) == 1:
            return spans[0]
        return normalize([(c, t) for s in spans for t, c in s.map.items()], order)

    def scale(self, c, s: LinComb) -> LinComb:
        return s.scaled(c)


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
