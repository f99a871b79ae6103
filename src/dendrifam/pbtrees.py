"""Typed decorated planar binary trees, the basis of the free dendriform
family algebra.

Every internal vertex carries one decoration symbol; every edge carries
an element of the extended monoid, with the invariant that an edge is
typed by the identity exactly when the child below it is a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .basis import LEAF, Alphabet, Leaf
from .errors import InfiniteSemigroup, TypingViolation
from .semigroups import IDENTITY, ExtElem, Semigroup

BinTree = Union[Leaf, "BinNode"]


@dataclass(frozen=True, eq=False)
class BinNode:
    """Internal vertex with a decorated symbol and two typed children."""

    dec: str
    left_type: ExtElem
    left: BinTree
    right_type: ExtElem
    right: BinTree

    def __post_init__(self):
        if self.left_type.is_identity != (self.left is LEAF):
            raise TypingViolation(
                f"left edge {self.left_type} inconsistent with child {self.left!r}")
        if self.right_type.is_identity != (self.right is LEAF):
            raise TypingViolation(
                f"right edge {self.right_type} inconsistent with child {self.right!r}")
        object.__setattr__(self, "_hash", hash(
            (self.dec, self.left_type, self.left, self.right_type, self.right)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BinNode):
            return NotImplemented
        return (self._hash == other._hash
                and self.dec == other.dec
                and self.left_type == other.left_type
                and self.right_type == other.right_type
                and self.left == other.left
                and self.right == other.right)


_INTERNED: dict = {}


def graft_binary(left: BinTree, dec: str, left_type: ExtElem,
                 right_type: ExtElem, right: BinTree) -> BinNode:
    """Join two trees under a fresh decorated vertex via two typed edges.

    Structurally equal trees are shared, which keeps the memoised product
    recursions and span normalization cheap.
    """
    key = (dec, left_type, left, right_type, right)
    node = _INTERNED.get(key)
    if node is None:
        node = BinNode(dec, left_type, left, right_type, right)
        _INTERNED[key] = node
    return node


def single_vertex(dec: str) -> BinNode:
    return graft_binary(LEAF, dec, IDENTITY, IDENTITY, LEAF)


def decompose(t: BinNode):
    """The unique decomposition (left, dec, a1, a2, right); inverse of grafting."""
    return t.left, t.dec, t.left_type, t.right_type, t.right


@lru_cache(maxsize=None)
def leaves(t: BinTree) -> int:
    if t is LEAF:
        return 1
    return leaves(t.left) + leaves(t.right)


@lru_cache(maxsize=None)
def depth(t: BinTree) -> int:
    """Maximal vertex-chain length from the root to a leaf; the leaf has depth 0."""
    if t is LEAF:
        return 0
    return 1 + max(depth(t.left), depth(t.right))


def tree_key(t: BinTree, alphabet: Alphabet, semigroup: Semigroup):
    """Canonical total order: leaf count first, then structure recursively."""
    if t is LEAF:
        return (1,)
    return (
        leaves(t),
        alphabet.index(t.dec),
        semigroup.ext_key(t.left_type),
        tree_key(t.left, alphabet, semigroup),
        semigroup.ext_key(t.right_type),
        tree_key(t.right, alphabet, semigroup),
    )


def enumerate_bin(n: int, alphabet: Alphabet, semigroup: Semigroup,
                  max_word: Optional[int] = None) -> list[BinNode]:
    """All basis trees with n internal vertices (n+1 leaves), canonically ordered.

    The count is Catalan(n) * |X|^n * |Omega|^(n-1).  A free semigroup needs
    a word-length bound, otherwise InfiniteSemigroup is raised.
    """
    if n < 1:
        raise ValueError("basis trees need at least one internal vertex")
    if not semigroup.is_finite and max_word is None:
        raise InfiniteSemigroup("cannot enumerate trees over an infinite semigroup")
    omega = [ExtElem(a) for a in semigroup.elements(max_word)]
    memo: dict[int, list[BinTree]] = {0: [LEAF]}

    def build(size: int) -> list[BinTree]:
        if size in memo:
            return memo[size]
        out = []
        for left_size in range(size):
            for left in build(left_size):
                left_types = [IDENTITY] if left is LEAF else omega
                for right in build(size - 1 - left_size):
                    right_types = [IDENTITY] if right is LEAF else omega
                    for x in alphabet:
                        for a1 in left_types:
                            for a2 in right_types:
                                out.append(graft_binary(left, x, a1, a2, right))
        memo[size] = out
        return out

    trees = build(n)
    trees.sort(key=lambda t: tree_key(t, alphabet, semigroup))
    return trees
