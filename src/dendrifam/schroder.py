"""Typed valently decorated Schröder trees, the basis of the free
tridendriform family algebra.

An internal vertex of arity k+1 carries k decoration symbols and k+1
typed edges to its children, ordered left to right.  Edge typing obeys
the same invariant as for binary trees: identity type iff leaf child.
Trees are hash-consed in the module table ``_INTERNED``, as binary
trees are, so equal trees are the same object; :func:`sort_key` orders them.
:func:`enumerate_sch` lists them through :func:`dendrifam.basis.enumerate_trees`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence, Tuple, Union

from .basis import LEAF, Alphabet, Leaf, enumerate_trees
from .errors import ArityMismatch, TypingViolation
from .pbtrees import graft_binary
from .semigroups import IDENTITY, Semigroup

SchTree = Union[Leaf, "SchNode"]


@dataclass(frozen=True, eq=False, init=False, slots=True)
class SchNode:
    """Internal vertex: k decorations and k+1 (edge type, child) pairs, k >= 1.

    Hash-consed like :class:`~dendrifam.pbtrees.BinNode`: ``SchNode(...)``
    returns the one node with these fields, checked when first made.
    """

    decs: Tuple[str, ...]
    children: Tuple[Tuple[object, SchTree], ...]

    def __new__(cls, decs, children):
        key = (decs, children)
        return _INTERNED.get(key) or _intern(key)

    @property
    def arity(self) -> int:
        return len(self.children)


_INTERNED: dict = {}
# the slots' own setters, as for BinNode
_set_decs, _set_children = (SchNode.__dict__[name].__set__ for name in SchNode.__slots__)


def _intern(key: tuple) -> SchNode:
    """Check, make and store the node with the fields ``key``, on a table miss."""
    decs, children = key
    if len(decs) < 1:
        raise ArityMismatch("a vertex needs at least one decoration")
    if len(children) != len(decs) + 1:
        raise ArityMismatch(
            f"{len(decs)} decorations require {len(decs) + 1} children, got {len(children)}")
    for etype, child in children:
        if (etype is IDENTITY) != (child is LEAF):
            raise TypingViolation(f"edge {etype} inconsistent with child {child!r}")
    node = _INTERNED[key] = object.__new__(SchNode)
    _set_decs(node, decs)
    _set_children(node, children)
    return node


def intern_node(decs: Tuple[str, ...], children: Tuple[Tuple[object, SchTree], ...]) -> SchNode:
    """Construct a vertex; structurally equal trees are one object."""
    key = (decs, children)
    return _INTERNED.get(key) or _intern(key)


def graft_nary(children: Sequence[SchTree], decs: Sequence[str],
               types: Sequence) -> SchNode:
    """Join k+1 trees under a fresh vertex decorated by k symbols."""
    children = tuple(children)
    types = tuple(types)
    if len(children) != len(types):
        raise ArityMismatch(f"{len(children)} children but {len(types)} edge types")
    return intern_node(tuple(decs), tuple(zip(types, children)))


def single_vertex(dec: str) -> SchNode:
    return intern_node((dec,), ((IDENTITY, LEAF), (IDENTITY, LEAF)))


def vertex(t: SchNode):
    """The root vertex as (decorations, (edge type, child) pairs)."""
    return t.decs, t.children


def last_edge(t: SchNode):
    """The (edge type, child) pair of the last child of the root."""
    return t.children[-1]


def first_edge(t: SchNode):
    """The (edge type, child) pair of the first child of the root."""
    return t.children[0]


def regraft_last(t: SchNode, a, inner: tuple) -> tuple:
    """The trees ``inner``, each put as the last child of ``t``'s root on
    an edge typed ``a``, in place of the old last child, as a tuple."""
    decs, head = t.decs, t.children[:-1]
    return tuple([intern_node(decs, head + ((a, s),)) for s in inner])


def regraft_first(t: SchNode, a, inner: tuple) -> tuple:
    """Like :func:`regraft_last`, on the first child."""
    decs, tail = t.decs, t.children[1:]
    return tuple([intern_node(decs, ((a, s),) + tail) for s in inner])


def sort_key(alphabet: Alphabet, semigroup: Semigroup):
    """Like :func:`dendrifam.pbtrees.sort_key`: leaf count, arity, decorations,
    edge types, children."""
    dec, edge = cache(alphabet.index), cache(semigroup.ext_key)  # rank tables
    memo = {LEAF: (1,)}

    def key(t: SchTree):
        k = memo.get(t)
        if k is None:
            children = tuple([key(child) for _, child in t.children])
            k = memo[t] = (sum([c[0] for c in children]), len(children),
                           tuple([dec(x) for x in t.decs]),
                           tuple([edge(etype) for etype, _ in t.children]), children)
        return k

    return key


def tree_key(t: SchTree, alphabet: Alphabet, semigroup: Semigroup):
    return sort_key(alphabet, semigroup)(t)


def enumerate_sch(n: int, alphabet: Alphabet, semigroup: Semigroup,
                  max_word: Optional[int] = None) -> list[SchNode]:
    """All basis trees with n+1 leaves, each exactly once, canonically ordered:
    those of :func:`~dendrifam.basis.enumerate_trees` with any arity."""
    if n < 1:
        raise ValueError("basis trees need at least two leaves")
    return enumerate_trees(n, alphabet, semigroup, max_word, n, intern_node,
                           sort_key(alphabet, semigroup))


def from_binary(t) -> SchTree:
    """Embed a planar binary tree as the Schröder tree with all vertices binary."""
    if t is LEAF:
        return LEAF
    return intern_node((t.dec,), ((t.left_type, from_binary(t.left)),
                                  (t.right_type, from_binary(t.right))))


def to_binary(t: SchTree):
    """Inverse of the embedding; requires every vertex to be binary."""
    if t is LEAF:
        return LEAF
    if t.arity != 2:
        raise ArityMismatch(f"vertex of arity {t.arity} has no binary counterpart")
    (a1, left), (a2, right) = t.children
    return graft_binary(to_binary(left), t.decs[0], a1, a2, to_binary(right))
