from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import comb

import pytest

from dendrifam.basis import LEAF, Alphabet, LinComb, normalize
from dendrifam.errors import InfiniteSemigroup, LeafOperand, TypingViolation
from dendrifam.pbtrees import (BinNode, enumerate_bin, first_edge,
                               graft_binary, last_edge, ranks, single_vertex,
                               tree_key, vertex)
from dendrifam.semigroups import IDENTITY, Semigroup

from helpers import depth, leaves

X1 = Alphabet(["x"])
X2 = Alphabet(["x", "y"])
TRIVIAL = Semigroup.trivial()
Z2 = Semigroup.cyclic(2)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_graft_single_vertex():
    t = graft_binary(LEAF, "x", IDENTITY, IDENTITY, LEAF)
    assert t == single_vertex("x")
    assert leaves(t) == 2 and depth(t) == 1


def test_graft_with_subtree():
    inner = single_vertex("y")
    t = graft_binary(LEAF, "x", IDENTITY, "a", inner)
    assert t.right is inner and t.right_type == "a"
    assert leaves(t) == 3


def test_graft_typing_violations():
    with pytest.raises(TypingViolation):
        graft_binary(LEAF, "x", "a", IDENTITY, LEAF)
    with pytest.raises(TypingViolation):
        graft_binary(LEAF, "x", IDENTITY, "a", LEAF)
    with pytest.raises(TypingViolation):
        graft_binary(single_vertex("x"), "x", IDENTITY, IDENTITY, LEAF)


def test_vertex_examples():
    assert vertex(single_vertex("x")) == (("x",), ((IDENTITY, LEAF), (IDENTITY, LEAF)))
    t = graft_binary(single_vertex("z"), "x", "0", "1", single_vertex("u"))
    assert vertex(t) == (("x",), (("0", single_vertex("z")), ("1", single_vertex("u"))))
    assert first_edge(t) == ("0", single_vertex("z"))
    assert last_edge(t) == ("1", single_vertex("u"))


def test_vertex_round_trip_exhaustive():
    for t in enumerate_bin(3, X1, Z2):
        (dec,), ((a1, left), (a2, right)) = vertex(t)
        assert BinNode(dec, a1, left, a2, right) is t
        assert (first_edge(t), last_edge(t)) == vertex(t)[1]


def test_depth():
    assert depth(LEAF) == 0
    assert depth(single_vertex("x")) == 1
    t = graft_binary(single_vertex("y"), "x", "0", IDENTITY, LEAF)
    assert depth(t) == 2


@pytest.mark.parametrize("n,alphabet,semigroup,count", [
    (1, X1, TRIVIAL, 1),
    (2, X2, Z2, 16),
    (3, X1, TRIVIAL, 5),
])
def test_enumerate_counts(n, alphabet, semigroup, count):
    assert len(enumerate_bin(n, alphabet, semigroup)) == count


@pytest.mark.parametrize("alphabet,semigroup", [(X1, TRIVIAL), (X2, Z2)])
def test_enumerate_matches_closed_form(alphabet, semigroup):
    x, o = len(alphabet), len(semigroup.elements())
    for n in range(1, 5):
        trees = enumerate_bin(n, alphabet, semigroup)
        assert len(trees) == catalan(n) * x ** n * o ** (n - 1)
        assert len(set(trees)) == len(trees)


def test_enumerate_typing_invariant_and_order():
    trees = enumerate_bin(3, X2, Z2)
    keys = [tree_key(t, X2, Z2) for t in trees]
    assert keys == sorted(keys)

    def check(t):
        if t is LEAF:
            return
        assert (t.left_type is IDENTITY) == (t.left is LEAF)
        assert (t.right_type is IDENTITY) == (t.right is LEAF)
        check(t.left)
        check(t.right)

    for t in trees:
        check(t)


def test_enumerate_free_semigroup_requires_bound():
    free = Semigroup.free(["a"])
    with pytest.raises(InfiniteSemigroup):
        enumerate_bin(2, X1, free)
    assert len(enumerate_bin(2, X1, free, max_word=1)) == 2


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_bin(0, X1, TRIVIAL)


def key(t):
    return tree_key(t, X2, Z2)


ORDER = partial(ranks, X2, Z2)


def test_lincomb_cancellation():
    t = single_vertex("x")
    s = normalize([(Fraction(1), t), (Fraction(-1), t)], ORDER)
    assert s.is_zero() and s == LinComb({})


def test_lincomb_ordering_and_merge():
    t, u = single_vertex("x"), single_vertex("y")
    s = normalize([(Fraction(1), u), (Fraction(1), t), (Fraction(1), u)], ORDER)
    assert [term for _, term in s.terms] == [t, u]
    assert s.terms[1][0] == Fraction(2)


def test_lincomb_zero_scale():
    t = single_vertex("x")
    assert LinComb({t: 1}).scaled(Fraction(0)).is_zero()


def test_lincomb_rejects_leaf():
    t = single_vertex("x")
    # also a cancelled leaf, and one that a one-shot iterator yields last
    for pairs in ([(Fraction(1), LEAF)], [(1, t), (0, LEAF)],
                  (pair for pair in [(1, t), (2, t), (1, LEAF)])):
        with pytest.raises(LeafOperand):
            normalize(pairs, ORDER)


def test_lincomb_refuses_pairs():
    # pairs are merged by normalize; the constructor only wraps a finished map
    with pytest.raises(TypeError):
        LinComb([(1, single_vertex("x"))], ORDER)


def test_tree_order_is_strict_total_order():
    trees = enumerate_bin(1, X2, Z2) + enumerate_bin(2, X2, Z2)
    keys = {t: key(t) for t in trees}
    for a, b in combinations(trees, 2):
        assert (keys[a] < keys[b]) != (keys[b] < keys[a])
    for a, b, c in product(trees[:8], repeat=3):
        if keys[a] < keys[b] and keys[b] < keys[c]:
            assert keys[a] < keys[c]
    for t in trees:
        rebuilt = graft_binary(t.left, t.dec, t.left_type, t.right_type, t.right)
        assert keys[t] == key(rebuilt)


def test_leaf_sorts_before_everything():
    assert tree_key(LEAF, X2, Z2) < key(single_vertex("x"))


def test_smaller_leaf_count_sorts_first():
    small = single_vertex("y")
    big = graft_binary(single_vertex("x"), "x", "0", IDENTITY, LEAF)
    assert key(small) < key(big)
