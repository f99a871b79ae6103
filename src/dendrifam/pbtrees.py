"""Typed decorated planar binary trees, the basis of the free dendriform
family algebra.

Every internal vertex carries one decoration symbol; every edge carries
an element of the extended monoid (a semigroup token, or
:data:`~dendrifam.semigroups.IDENTITY`), with the invariant that an
edge is typed by the identity exactly when the child below it is a leaf.

Trees are hash-consed: structurally equal trees are the same object, kept in
the module table ``_INTERNED``, so trees compare and hash by identity.  Nodes
are frozen: ``_intern`` checks that the children are trees and sets the slots,
the leaf count ``leaves`` too, by their own setters.  :func:`walk` finds the
nodes below a collection of trees and :func:`ranks` their canonical order, kept
on no node (another alphabet orders them differently); :func:`tree_key` gives it
as one flat tuple per tree.  :func:`enumerate_bin` lists the trees.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Optional, Union

from .basis import LEAF, Alphabet, Keyed, Leaf, Value, edge_violation, enumerate_trees, rank_levels
from .basis import walk as walk_levels
from .semigroups import IDENTITY, Semigroup

BinTree = Union[Leaf, "BinNode"]


class BinNode:
    """Internal vertex with a decorated symbol and two typed children.

    Hash-consed: ``BinNode(...)`` returns the one node with these fields, checked
    when first made, so equality and hashing are those of the object.  The slot
    ``leaves``, outside the fields, holds its leaf count.
    """

    _fields = ("dec", "left_type", "left", "right_type", "right")
    __slots__ = _fields + ("leaves",)
    __setattr__ = __delattr__ = Value.__setattr__
    __repr__ = Value.__repr__

    def __new__(cls, dec, left_type, left, right_type, right):
        key = (dec, left_type, left, right_type, right)
        return _INTERNED.get(key) or _intern(key)


_INTERNED: dict = {}
# the slots' own setters, which store a new node's fields past the frozen __setattr__
_set_dec, _set_left_type, _set_left, _set_right_type, _set_right, _set_leaves = (
    BinNode.__dict__[name].__set__ for name in BinNode.__slots__)


def _intern(key: tuple) -> BinNode:
    """Check, make and store the node with the fields ``key``, on a table miss."""
    dec, left_type, left, right_type, right = key
    # an edge typed by the identity has the leaf below it, any other a binary vertex
    if not ((left is LEAF) if left_type is IDENTITY else type(left) is BinNode):
        raise edge_violation("left edge", left_type, left, BinNode)
    if not ((right is LEAF) if right_type is IDENTITY else type(right) is BinNode):
        raise edge_violation("right edge", right_type, right, BinNode)
    node = _INTERNED[key] = object.__new__(BinNode)
    _set_dec(node, dec)
    _set_left_type(node, left_type)
    _set_left(node, left)
    _set_right_type(node, right_type)
    _set_right(node, right)
    _set_leaves(node, left.leaves + right.leaves)
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


walk = partial(walk_levels, BinNode, None)


def ranks(alphabet: Alphabet, semigroup: Semigroup, roots, repeated=None) -> dict:
    """Each tree reachable from ``roots`` mapped to its rank in the canonical order: leaf
    count, decoration, left edge type, left subtree, right edge type, right subtree.  A level
    of equal leaf count is sorted by the flat tuple of these fields, subtrees by their ranks."""
    rank, dec, edge = {LEAF: 0}, Keyed(alphabet.index), Keyed(semigroup.ext_key)
    return rank_levels(walk(roots, repeated), rank, lambda t: (
        dec[t.dec], edge[t.left_type], rank[t.left], edge[t.right_type], rank[t.right]))


def tree_key(t: BinTree, alphabet: Alphabet, semigroup: Semigroup) -> tuple:
    """The canonical order as a key: the fields of :func:`ranks` in
    preorder, each subtree in place of its rank.  A key starts with its
    leaf count, so none is a prefix of another, and flat keys compare as
    the nested ones would."""
    if type(t) is not BinNode:
        walk((t,))  # the leaf passes, anything else raises TypeError
    dec, edge = Keyed(alphabet.index), Keyed(semigroup.ext_key)
    key, stack = [], [t]
    while stack:
        s = stack.pop()
        if type(s) is tuple:  # the key of a right edge, between the subtrees
            key.append(s)
        elif s is LEAF:
            key.append(1)
        else:
            key += (s.leaves, dec[s.dec], edge[s.left_type])
            stack += (s.right, edge[s.right_type], s.left)
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
