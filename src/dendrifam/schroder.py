"""Typed valently decorated Schröder trees, the basis of the free
tridendriform family algebra.

An internal vertex of arity k+1 carries k decoration symbols and k+1
typed edges to its children, ordered left to right.  Edge typing obeys
the same invariant as for binary trees: identity type iff leaf child.
Trees are hash-consed in the module table ``_INTERNED`` and frozen, and keep
their leaf count, as binary trees do, so equal trees are the same object.
:func:`walk`, :func:`ranks` and :func:`tree_key` work as in
:mod:`dendrifam.pbtrees`; :func:`enumerate_sch` lists the trees through
:func:`dendrifam.basis.enumerate_trees`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple, Union

from .basis import LEAF, Alphabet, Keyed, Leaf, Value, edge_violation, enumerate_trees, rank_levels
from .basis import walk as walk_levels
from .errors import ArityMismatch
from .semigroups import IDENTITY, Semigroup

SchTree = Union[Leaf, "SchNode"]


class SchNode:
    """Internal vertex: k decorations and k+1 (edge type, child) pairs, k >= 1.

    Hash-consed, with its leaf count in the slot ``leaves``, like
    :class:`~dendrifam.pbtrees.BinNode`.
    """

    _fields = ("decs", "children")
    __slots__ = _fields + ("leaves",)
    __setattr__ = __delattr__ = Value.__setattr__
    __repr__ = Value.__repr__

    def __new__(cls, decs, children):
        key = (decs, children)
        return _INTERNED.get(key) or _intern(key)

    @property
    def arity(self) -> int:
        return len(self.children)


_INTERNED: dict = {}
# the slots' own setters, as for BinNode
_set_decs, _set_children, _set_leaves = (
    SchNode.__dict__[name].__set__ for name in SchNode.__slots__)


def _intern(key: tuple) -> SchNode:
    """Check, make and store the node with the fields ``key``, on a table miss."""
    decs, children = key
    if len(decs) < 1:
        raise ArityMismatch("a vertex needs at least one decoration")
    if len(children) != len(decs) + 1:
        raise ArityMismatch(
            f"{len(decs)} decorations require {len(decs) + 1} children, got {len(children)}")
    leaves = 0
    for etype, child in children:  # the leaf on the identity, a vertex on any other type
        if not ((child is LEAF) if etype is IDENTITY else type(child) is SchNode):
            raise edge_violation("edge", etype, child, SchNode)
        leaves += child.leaves
    node = _INTERNED[key] = object.__new__(SchNode)
    _set_decs(node, decs)
    _set_children(node, children)
    _set_leaves(node, leaves)
    return node


def intern_node(decs: Tuple[str, ...], children: Tuple[Tuple[object, SchTree], ...]) -> SchNode:
    """Construct a vertex; structurally equal trees are one object."""
    key = (decs, children)
    return _INTERNED.get(key) or _intern(key)


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


def graft_last(t: SchNode, a, s: SchTree) -> SchNode:
    """``t`` with ``s`` as the last child of its root, on an edge typed
    ``a``, in place of the old last child."""
    return intern_node(t.decs, t.children[:-1] + ((a, s),))


def graft_first(t: SchNode, a, s: SchTree) -> SchNode:
    """Like :func:`graft_last`, on the first child."""
    return intern_node(t.decs, ((a, s),) + t.children[1:])


def regraft_last(t: SchNode, a, inner: tuple) -> tuple:
    """The trees ``inner``, each put as the last child of ``t``'s root on
    an edge typed ``a``, in place of the old last child, as a tuple."""
    decs, head = t.decs, t.children[:-1]
    return tuple([intern_node(decs, head + ((a, s),)) for s in inner])


def regraft_first(t: SchNode, a, inner: tuple) -> tuple:
    """Like :func:`regraft_last`, on the first child."""
    decs, tail = t.decs, t.children[1:]
    return tuple([intern_node(decs, ((a, s),) + tail) for s in inner])


def fuse(t: SchNode, u: SchNode, a, inner: tuple) -> tuple:
    """The roots of t and u fused over t's children but the last, a tree of
    ``inner`` on the edge ``a``, and u's children but the first, as a tuple."""
    decs, head, tail = t.decs + u.decs, t.children[:-1], u.children[1:]
    return tuple([intern_node(decs, head + ((a, s),) + tail) for s in inner])


def last_keys(t: SchNode, a, inner: tuple) -> list:
    """The keys in ``_INTERNED``, (decs, children), of regraft_last's trees."""
    decs, head = t.decs, t.children[:-1]
    return [(decs, head + ((a, s),)) for s in inner]


def first_keys(t: SchNode, a, inner: tuple) -> list:
    """Like :func:`last_keys`, on the first child."""
    decs, tail = t.decs, t.children[1:]
    return [(decs, ((a, s),) + tail) for s in inner]


def fuse_keys(t: SchNode, u: SchNode, a, inner: tuple) -> list:
    """Like :func:`last_keys`, for the trees of :func:`fuse`."""
    decs, head, tail = t.decs + u.decs, t.children[:-1], u.children[1:]
    return [(decs, head + ((a, s),) + tail) for s in inner]


walk = partial(walk_levels, SchNode, lambda t: [c for _, c in t.children if c is not LEAF])


def ranks(alphabet: Alphabet, semigroup: Semigroup, roots, repeated=None) -> dict:
    """Like :func:`dendrifam.pbtrees.ranks`: leaf count, arity, decorations,
    edge types, children.  A level is sorted by the flat tuple of the arity,
    the decorations, the edge types and the ranks of the children."""
    rank, dec, edge = {LEAF: 0}, Keyed(alphabet.index), Keyed(semigroup.ext_key)

    def flat(t):
        children = t.children
        return (len(children), *[dec[x] for x in t.decs], *[edge[etype] for etype, _ in children],
                *[rank[child] for _, child in children])

    return rank_levels(walk(roots, repeated), rank, flat)


def tree_key(t: SchTree, alphabet: Alphabet, semigroup: Semigroup) -> tuple:
    """Like :func:`dendrifam.pbtrees.tree_key`: the flat preorder sequence of
    leaf count, arity, decorations and edge types, then the children's."""
    if type(t) is not SchNode:
        walk((t,))  # the leaf passes, anything else raises TypeError
    dec, edge = Keyed(alphabet.index), Keyed(semigroup.ext_key)
    key, stack = [], [t]
    while stack:
        s = stack.pop()
        if s is LEAF:
            key.append(1)
        else:
            key += (s.leaves, s.arity, tuple([dec[x] for x in s.decs]),
                    tuple([edge[etype] for etype, _ in s.children]))
            stack += [child for _, child in reversed(s.children)]
    return tuple(key)


def enumerate_sch(n: int, alphabet: Alphabet, semigroup: Semigroup,
                  max_word: Optional[int] = None) -> list[SchNode]:
    """All basis trees with n+1 leaves, each exactly once, canonically ordered:
    those of :func:`~dendrifam.basis.enumerate_trees` with any arity."""
    if n < 1:
        raise ValueError("basis trees need at least two leaves")
    return enumerate_trees(n, alphabet, semigroup, max_word, n, intern_node,
                           partial(ranks, alphabet, semigroup))

