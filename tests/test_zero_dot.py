"""A dendriform algebra is a tridendriform algebra with zero middle product
(Loday & Ronco, "Trialgebras and families of polytopes", 2004).

On the free objects: the dendriform ``prec``/``succ`` of two binary trees,
embedded by ``from_binary``, is exactly the part of the tridendriform
product of the embedded trees whose vertices are all binary.  The terms
with a vertex of higher arity are the ones a middle product made.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifam.basis import LEAF, Alphabet
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.pbtrees import enumerate_bin, graft_binary
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.tridendriform import FreeTridendriformFamily

from helpers import from_binary

X2 = Alphabet(["x", "y"])
Z2 = Semigroup.cyclic(2)
FREE = Semigroup.free(["a", "b"])
WORDS = FREE.elements(max_word=2)


def all_binary(t):
    return t is LEAF or (t.arity == 2 and all(all_binary(c) for _, c in t.children))


def assert_binary_part_is_dendriform(dend, tri, t, u, omega):
    for op in ("prec", "succ"):
        expected = {from_binary(s): c for s, c in getattr(dend, op)(t, u, omega).map.items()}
        product_map = getattr(tri, op)(from_binary(t), from_binary(u), omega).map
        assert {s: c for s, c in product_map.items() if all_binary(s)} == expected, op


def test_zero_dot_exhaustive_up_to_two_vertices():
    dend, tri = FreeDendriformFamily(X2, Z2), FreeTridendriformFamily(X2, Z2)
    trees = enumerate_bin(1, X2, Z2) + enumerate_bin(2, X2, Z2)
    for t, u in product(trees, repeat=2):
        for omega in Z2.elements():
            assert_binary_part_is_dendriform(dend, tri, t, u, omega)


@st.composite
def binary_trees(draw, size):
    if size == 0:
        return LEAF
    left_size = draw(st.integers(min_value=0, max_value=size - 1))
    left = draw(binary_trees(left_size))
    right = draw(binary_trees(size - 1 - left_size))

    def edge(child):
        return IDENTITY if child is LEAF else draw(st.sampled_from(WORDS))

    return graft_binary(left, draw(st.sampled_from(["x", "y"])), edge(left), edge(right), right)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(binary_trees), st.integers(1, 3).flatmap(binary_trees),
       st.sampled_from(WORDS))
def test_zero_dot_on_random_trees_over_a_free_semigroup(t, u, omega):
    dend, tri = FreeDendriformFamily(X2, FREE), FreeTridendriformFamily(X2, FREE)
    assert_binary_part_is_dendriform(dend, tri, t, u, omega)
