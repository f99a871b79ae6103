"""Shared basis machinery: the leaf tree, frozen values (:class:`Value`), alphabets,
spans and their sums (:class:`Spans`), the ranked canonical order and enumeration.

A span (:class:`LinComb`) is a finite formal rational-linear combination
of basis trees, stored as a map from tree to nonzero coefficient.  The
constructor wraps a finished map; :func:`normalize` builds one from
(coefficient, tree) pairs and is the one sum of spans (``add``, scaling, ``span``,
``rotabaxter.TensorRB``) but for the bilinear product kept apart for speed,
:class:`dendrifam.family._Product`, the lazy product of both families and their
tensor products, which shares the map of each basis pair it reads, as no span
mutates its map.  Spans compare as maps, so term order never affects equality
or arithmetic.
Coefficients are ``int`` whenever they are integral and ``Fraction``
otherwise; the free products of integral spans only produce integers.
A span carries the order of its algebra, and the canonical term order
is imposed only when it is read (:meth:`LinComb.ordered`, which the
printers call).  The bare leaf is representable as a tree but is never
a span term.

Trees are ordered by ranks, per collection: every node keeps its leaf count,
set when it is interned, so one iterative :func:`walk` groups the nodes
reachable from the collection by leaf count, and :func:`rank_levels` ranks
them level by level.  :func:`enumerate_trees` lists the basis trees of both
free families; a binary vertex is one decoration over two typed children.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache, partial
from itertools import combinations, product
from typing import Any, Callable, Iterable, Optional, Tuple

from .errors import InfiniteSemigroup, InvalidElement, LeafOperand, TypingViolation, shown
from .rationals import exact
from .semigroups import IDENTITY, TOKEN_RE


class Leaf:
    """The unique tree with a single leaf, written ``|``; not a basis element."""

    _instance = None
    leaves = 1

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Leaf"


LEAF = Leaf()


def edge_violation(edge: str, etype, child, node_type: type) -> Exception:
    """The error for a child that breaks the typing invariant, a TypeError if it is
    no tree of ``node_type``; it names the kind of child, never its deep repr."""
    if type(child) is not node_type and child is not LEAF:
        return TypeError(f"not a {node_type.__name__} tree: a {type(child).__name__}")
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
        m = self.map
        trees = m if self.order is None else sorted(m, key=self.order(m, repeated).__getitem__)
        return [(m[t], t) for t in trees]

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


def normalize(pairs: Iterable[Tuple[Any, Any]], order: Optional[Callable] = None) -> LinComb:
    """Span of (coefficient, tree) pairs: duplicates merged, zeros dropped,
    ints where integral, the leaf rejected; every sum of spans but
    ``family._Product``.  The terms are not sorted; ``order`` is kept for the
    ordered view."""
    acc: dict = {}
    for coeff, tree in pairs:
        acc[tree] = acc.get(tree, 0) + coeff
    if LEAF in acc:
        raise LeafOperand("the leaf | is not a basis element of the free algebra")
    return LinComb(clean(acc), order)


class Spans:
    """The linear structure of spans, shared by the free families and the tensor spans.
    A subclass sets ``order``, its canonical order, and ``_terms``, what its spans hold;
    :meth:`_own` is the one gate for a span that enters from outside the algebra."""

    def zero(self) -> LinComb:
        return ZERO_SPAN

    def _own(self, s) -> LinComb:
        """``s``, if a span of this algebra: anything else is a TypeError that names its
        type.  A span of ``order``, or of an equal ``functools.partial`` (the same ranks
        over equal alphabet and semigroup, as the parser builds), is trusted unread; any
        other is ranked once by ``order``, which refuses a foreign term."""
        if not isinstance(s, LinComb):
            raise TypeError(f"not a span of {self._terms}: a {type(s).__name__}")
        mine, theirs = self.order, s.order
        if theirs is not mine and not (type(theirs) is type(mine) is partial
                                       and theirs.func is mine.func and theirs.args == mine.args):
            mine(s.map)
        return s

    def add(self, *spans: LinComb) -> LinComb:
        order = self.order  # each summand passes the gate (``_own`` returns it); zeros drop out
        spans = [s for s in spans if (
            s if isinstance(s, LinComb) and s.order is order else self._own(s)).map]
        if len(spans) == 1:
            return spans[0]
        return normalize([(c, t) for s in spans for t, c in s.map.items()], order)

    def scale(self, c, s: LinComb) -> LinComb:
        return self._own(s).scaled(c)


class Keyed(dict):
    """A dict that fills a missed key ``k`` with ``fn(k)``; an error of ``fn`` stores nothing."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __missing__(self, k):
        value = self[k] = self.fn(k)
        return value


def walk(node_type: type, kids: Optional[Callable], roots, repeated: Optional[set] = None) -> dict:
    """The nodes reachable from ``roots`` by leaf count (``leaves``), each once, by one
    iterative walk that adds every further reach of a node to the set ``repeated``.
    ``kids(t)`` lists a node's children but the leaf (None: binary nodes).  A root that
    is no tree of ``node_type`` raises TypeError; the constructors checked the rest."""
    stack = list(roots)
    for t in stack:
        if type(t) is not node_type and t is not LEAF:
            raise edge_violation("root", None, t, node_type)  # the TypeError of a non-tree
    levels, seen, pop, push = defaultdict(list), {LEAF}, stack.pop, stack.append
    see, add = seen.add, (set() if repeated is None else repeated).add
    while stack:
        t = pop()
        if t in seen:
            add(t)
            continue
        see(t)
        levels[t.leaves].append(t)
        if kids:
            stack += kids(t)
        else:  # pushed inline, and the leaf not at all: a third of the walk's time
            if t.left is not LEAF:
                push(t.left)
            if t.right is not LEAF:
                push(t.right)
    return levels


def rank_levels(levels: dict, rank: dict, flat: Callable) -> dict:
    """Rank the nodes of ``levels`` (from :func:`walk`) into ``rank``, which holds the
    leaf at 0, level by level in increasing leaf count; a level is sorted by ``flat(t)``,
    which reads from ``rank`` the ranks of t's children, which have fewer leaves."""
    for n in sorted(levels):
        level = levels[n]
        level.sort(key=flat)
        rank.update(zip(level, range(len(rank), len(rank) + len(level))))
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
