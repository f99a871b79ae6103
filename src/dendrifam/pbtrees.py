"""Typed decorated planar binary trees, the basis of the free dendriform
family algebra.

Every internal vertex carries one decoration symbol; every edge carries
an element of the extended monoid (a semigroup token, or
:data:`~dendrifam.semigroups.IDENTITY`), with the invariant that an
edge is typed by the identity exactly when the child below it is a leaf.

Trees are hash-consed: structurally equal trees are the same object, kept in
the module table ``_INTERNED``, so trees compare and hash by identity.  Nodes
are frozen: ``_intern`` sets their slots by the slots' own setters, and
assignment raises as on a :class:`~dendrifam.basis.Value`.  :func:`ranks` gives
their canonical order per collection of trees, and stores nothing on the shared
nodes: another alphabet orders them differently.  :func:`tree_key` gives the
same order as one flat tuple per tree.  :func:`enumerate_bin` lists them
through :func:`dendrifam.basis.enumerate_trees`.
"""

from __future__ import annotations

from functools import cache, partial
from operator import attrgetter
from typing import Optional, Union

from .basis import LEAF, Alphabet, Leaf, Value, edge_violation, enumerate_trees, rank_levels
from .semigroups import IDENTITY, Semigroup

BinTree = Union[Leaf, "BinNode"]


class BinNode:
    """Internal vertex with a decorated symbol and two typed children.

    Hash-consed: ``BinNode(...)`` returns the one node with these fields,
    checking the typing only when it is first made, so equality and
    hashing are those of the object.
    """

    __slots__ = _fields = ("dec", "left_type", "left", "right_type", "right")
    __setattr__ = __delattr__ = Value.__setattr__
    __repr__ = Value.__repr__

    def __new__(cls, dec, left_type, left, right_type, right):
        key = (dec, left_type, left, right_type, right)
        return _INTERNED.get(key) or _intern(key)


_INTERNED: dict = {}
# the slots' own setters, which store a new node's fields past the frozen __setattr__
_set_dec, _set_left_type, _set_left, _set_right_type, _set_right = (
    BinNode.__dict__[name].__set__ for name in BinNode.__slots__)


def _intern(key: tuple) -> BinNode:
    """Check, make and store the node with the fields ``key``, on a table miss."""
    dec, left_type, left, right_type, right = key
    if (left_type is IDENTITY) != (left is LEAF):
        raise edge_violation("left edge", left_type, left)
    if (right_type is IDENTITY) != (right is LEAF):
        raise edge_violation("right edge", right_type, right)
    node = _INTERNED[key] = object.__new__(BinNode)
    _set_dec(node, dec)
    _set_left_type(node, left_type)
    _set_left(node, left)
    _set_right_type(node, right_type)
    _set_right(node, right)
    return node


def graft_binary(left: BinTree, dec: str, left_type, right_type, right: BinTree) -> BinNode:
    """Join two trees under a fresh decorated vertex via two typed edges."""
    key = (dec, left_type, left, right_type, right)
    return _INTERNED.get(key) or _intern(key)


def single_vertex(dec: str) -> BinNode:
    return graft_binary(LEAF, dec, IDENTITY, IDENTITY, LEAF)


def vertex(t: BinNode):
    """The root vertex as (decorations, (edge type, child) pairs), the view
    of :func:`dendrifam.schroder.vertex`: a binary vertex has arity 2."""
    return (t.dec,), ((t.left_type, t.left), (t.right_type, t.right))


# the (edge type, child) pair of the last and of the first child of the root
last_edge, first_edge = attrgetter("right_type", "right"), attrgetter("left_type", "left")


def graft_last(t: BinNode, a, s: BinTree) -> BinNode:
    """``t`` with ``s`` as the last child of its root, on an edge typed
    ``a``, in place of the old last child."""
    return graft_binary(t.left, t.dec, t.left_type, a, s)


def graft_first(t: BinNode, a, s: BinTree) -> BinNode:
    """Like :func:`graft_last`, on the first child."""
    return graft_binary(s, t.dec, a, t.right_type, t.right)


def regraft_last(t: BinNode, a, inner: tuple) -> tuple:
    """The trees ``inner``, each grafted as the last child of ``t``'s root
    on an edge typed ``a``, in place of the old last child, as a tuple."""
    left, dec, a1 = t.left, t.dec, t.left_type
    return tuple([graft_binary(left, dec, a1, a, s) for s in inner])


def regraft_first(t: BinNode, a, inner: tuple) -> tuple:
    """Like :func:`regraft_last`, on the first child."""
    dec, a2, right = t.dec, t.right_type, t.right
    return tuple([graft_binary(s, dec, a, a2, right) for s in inner])


def last_keys(t: BinNode, a, inner: tuple) -> list:
    """The keys in ``_INTERNED`` (fields in slot order) of regraft_last's trees."""
    left, dec, a1 = t.left, t.dec, t.left_type
    return [(dec, a1, left, a, s) for s in inner]


def first_keys(t: BinNode, a, inner: tuple) -> list:
    """Like :func:`last_keys`, on the first child."""
    dec, a2, right = t.dec, t.right_type, t.right
    return [(dec, a, s, a2, right) for s in inner]


def leaf_counts(roots, repeated=None) -> dict:
    """Each tree reachable from ``roots``, the leaf too, mapped to its leaf
    count by one iterative post-order walk: a node is counted when popped
    the second time, after its children.  A tree reached more than once,
    the leaf too, goes into the set ``repeated``.  A non-tree raises
    TypeError."""
    count = {LEAF: 1}
    get, add = count.get, (set() if repeated is None else repeated).add
    stack = list(roots)
    pop = stack.pop
    while stack:
        t = pop()
        n = get(t)
        if n is None:
            if type(t) is not BinNode:
                raise TypeError(f"not a binary tree: a {type(t).__name__}")
            count[t] = 0
            stack += (t, t.right, t.left)
        elif n:
            add(t)
        else:
            count[t] = count[t.left] + count[t.right]
    return count


def ranks(alphabet: Alphabet, semigroup: Semigroup, roots, repeated=None) -> dict:
    """Each tree reachable from ``roots`` mapped to its rank in the canonical
    order: leaf count, decoration, left edge type, left subtree, right edge
    type, right subtree.  A level of equal leaf count is sorted by the flat
    tuple (decoration, left edge type, left rank, right edge type, right rank)."""
    rank = leaf_counts(roots, repeated)
    dec, edge = cache(alphabet.index), cache(semigroup.ext_key)
    return rank_levels(rank, lambda t: (dec(t.dec), edge(t.left_type), rank[t.left],
                                        edge(t.right_type), rank[t.right]))


def tree_key(t: BinTree, alphabet: Alphabet, semigroup: Semigroup) -> tuple:
    """The canonical order as a key: the fields of :func:`ranks` in
    preorder, each subtree in place of its rank.  A key starts with its
    leaf count, so none is a prefix of another, and flat keys compare as
    the nested ones would."""
    count = leaf_counts((t,))
    dec, edge = cache(alphabet.index), cache(semigroup.ext_key)
    key, stack = [], [t]
    while stack:
        s = stack.pop()
        if type(s) is tuple:  # the key of a right edge, between the subtrees
            key.append(s)
        elif s is LEAF:
            key.append(1)
        else:
            key += (count[s], dec(s.dec), edge(s.left_type))
            stack += (s.right, edge(s.right_type), s.left)
    return tuple(key)


def enumerate_bin(n: int, alphabet: Alphabet, semigroup: Semigroup,
                  max_word: Optional[int] = None) -> list[BinNode]:
    """All basis trees with n internal vertices (n+1 leaves), canonically ordered.

    The count is Catalan(n) * |X|^n * |Omega|^(n-1).  A free semigroup needs
    a word-length bound, otherwise InfiniteSemigroup is raised.  The trees are
    those of :func:`~dendrifam.basis.enumerate_trees` with one decoration per vertex.
    """
    if n < 1:
        raise ValueError("basis trees need at least one internal vertex")

    def make(decs, children):
        (a1, left), (a2, right) = children
        return graft_binary(left, decs[0], a1, a2, right)

    return enumerate_trees(n, alphabet, semigroup, max_word, 1, make,
                           partial(ranks, alphabet, semigroup))
