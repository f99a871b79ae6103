from itertools import product

import pytest

from dendrifam.basis import LEAF, Alphabet
from dendrifam.errors import ArityMismatch, InfiniteSemigroup, TypingViolation
from dendrifam.pbtrees import enumerate_bin, graft_binary
from dendrifam.pbtrees import single_vertex as bin_vertex
from dendrifam.pbtrees import tree_key as bin_tree_key
from dendrifam.pbtrees import vertex as bin_root
from dendrifam.schroder import (SchNode, enumerate_sch, first_edge, last_edge,
                                single_vertex, tree_key, vertex)
from dendrifam.semigroups import IDENTITY, Semigroup

from helpers import corolla, decoration_count, depth, from_binary, leaves, to_binary

X1 = Alphabet(["x"])
X2 = Alphabet(["x", "y"])
TRIVIAL = Semigroup.trivial()
Z2 = Semigroup.cyclic(2)

# little Schröder numbers: trees with n+1 leaves, one decoration alphabet
LITTLE_SCHRODER = {1: 1, 2: 3, 3: 11, 4: 45}


def test_graft_corolla():
    t = SchNode(("x", "y"), ((IDENTITY, LEAF), (IDENTITY, LEAF), (IDENTITY, LEAF)))
    assert t == corolla(["x", "y"])
    assert t.arity == 3 and leaves(t) == 3 and depth(t) == 1


def test_graft_three_subtrees():
    sx, sy, sz = single_vertex("x"), single_vertex("y"), single_vertex("z")
    alphabet = Alphabet(["x", "y", "z", "u", "v"])
    t = SchNode(("u", "v"), (("a", sx), ("b", sy), ("c", sz)))
    assert t.decs == ("u", "v")
    assert t.children == (("a", sx), ("b", sy), ("c", sz))
    assert leaves(t) == 6 and depth(t) == 2
    assert tree_key(t, alphabet, Semigroup.free(["a", "b", "c"]))


def test_graft_typing_and_arity_errors():
    with pytest.raises(TypingViolation):
        SchNode(("x",), (("a", LEAF), (IDENTITY, LEAF)))
    with pytest.raises(ArityMismatch):
        SchNode(("x", "y"), ((IDENTITY, LEAF), (IDENTITY, LEAF)))
    with pytest.raises(ArityMismatch):
        SchNode((), ((IDENTITY, LEAF),))


def test_vertex_round_trip():
    t = corolla(["x", "y"])
    assert vertex(t) == (("x", "y"), ((IDENTITY, LEAF),) * 3)
    for t in enumerate_sch(3, X1, Z2):
        decs, children = vertex(t)
        assert SchNode(decs, children) is t
        assert (first_edge(t), last_edge(t)) == (children[0], children[-1])
    for t in enumerate_bin(2, X2, Z2):  # a binary vertex is the arity-2 case
        decs, children = bin_root(t)
        assert vertex(from_binary(t)) == (
            decs, tuple((a, from_binary(child)) for a, child in children))


def test_arity_examples():
    assert corolla(["x", "y"]).arity == 3
    assert single_vertex("x").arity == 2
    t = SchNode(("x", "z"), ((IDENTITY, LEAF), ("0", single_vertex("y")),
                             ("1", single_vertex("u"))))
    assert t.arity == 3 == len(vertex(t)[1])


@pytest.mark.parametrize("n,alphabet,semigroup,count", [
    (1, X1, TRIVIAL, 1),
    (1, X2, Z2, 2),
    (2, X1, TRIVIAL, 3),
    (2, X2, Z2, 20),
])
def test_enumerate_counts(n, alphabet, semigroup, count):
    assert len(enumerate_sch(n, alphabet, semigroup)) == count


def shape_count(n, x_size, omega_size):
    """Independent counting oracle: sum over undecorated shapes of
    |X|^n * |Omega|^(internal vertices - 1)."""
    def shapes(m):
        if m == 0:
            return [None]
        out = []
        for k in range(1, m + 1):
            parts = [[]]
            for _ in range(k + 1):
                parts = [p + [q] for p in parts for q in range(m - k + 1)]
            for split in parts:
                if sum(split) != m - k:
                    continue
                for kids in product(*[shapes(q) for q in split]):
                    out.append(tuple(kids))
        return out

    def vertices(shape):
        if shape is None:
            return 0
        return 1 + sum(vertices(child) for child in shape)

    total = 0
    for shape in shapes(n):
        total += x_size ** n * omega_size ** (vertices(shape) - 1)
    return total


def test_little_schroder_numbers():
    for n, expected in LITTLE_SCHRODER.items():
        assert shape_count(n, 1, 1) == expected
        assert len(enumerate_sch(n, X1, TRIVIAL)) == expected


@pytest.mark.parametrize("alphabet,semigroup", [(X1, TRIVIAL), (X2, Z2)])
def test_enumerate_matches_shape_oracle(alphabet, semigroup):
    x, o = len(alphabet), len(semigroup.elements())
    for n in range(1, 5):
        trees = enumerate_sch(n, alphabet, semigroup)
        assert len(trees) == shape_count(n, x, o)
        assert len(set(trees)) == len(trees)
        keys = [tree_key(t, alphabet, semigroup) for t in trees]
        assert keys == sorted(keys)


def test_decoration_count_identity():
    for n in range(1, 5):
        for t in enumerate_sch(n, X2, Z2):
            assert decoration_count(t) == n
            assert leaves(t) == n + 1


def test_enumerate_free_needs_bound():
    with pytest.raises(InfiniteSemigroup):
        enumerate_sch(2, X1, Semigroup.free(["a"]))


def test_binary_embedding_agrees_with_bintree_enumeration():
    # the two canonical orders interleave fields differently, so compare
    # after re-sorting under the target order
    for n in range(1, 4):
        binary = enumerate_bin(n, X2, Z2)
        embedded = [t for t in enumerate_sch(n, X2, Z2) if all_binary(t)]
        assert sorted((to_binary(t) for t in embedded),
                      key=lambda t: bin_tree_key(t, X2, Z2)) == binary
        assert sorted((from_binary(t) for t in binary),
                      key=lambda t: tree_key(t, X2, Z2)) == embedded


def all_binary(t):
    if t is LEAF:
        return True
    return t.arity == 2 and all(all_binary(child) for _, child in t.children)


def test_to_binary_rejects_wide_vertices():
    wide = corolla(["x", "y"])
    for t in (wide, SchNode(("x",), ((IDENTITY, LEAF), ("0", wide)))):
        with pytest.raises(ArityMismatch, match="arity 3"):
            to_binary(t)


def test_binary_embedding_round_trip_on_a_deep_comb():
    # far deeper than the recursion limit allows: both directions walk a stack
    comb = bin_vertex("x")
    for _ in range(9_999):
        comb = graft_binary(LEAF, "y", IDENTITY, "1", comb)
    embedded = from_binary(comb)
    assert vertex(embedded)[0] == ("y",) and to_binary(embedded) is comb
