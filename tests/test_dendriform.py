from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifam.axioms import DENDRIFORM, search
from dendrifam.basis import LEAF, Alphabet, LinComb
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.errors import (AxiomFailure, IdentityMisuse, InvalidElement,
                              LeafOperand)
from dendrifam.exprs import Gen, Prec, Succ, evaluate
from dendrifam.pbtrees import enumerate_bin, graft_binary, single_vertex, tree_key
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.termio import print_span
from dendrifam.tridendriform import FreeTridendriformFamily

from helpers import leaves, scaled_identity_matrix, validate_dendriform_ops
from tamari import interval
from untyped_free import b_span_prec, b_span_succ

X2 = Alphabet(["x", "y"])
Z2 = Semigroup.cyclic(2)
FREE = Semigroup.free(["a", "b", "w"])
WORDS_X = Alphabet(["x", "y", "z", "u"])


@pytest.fixture
def words():
    return FreeDendriformFamily(WORDS_X, FREE)


@pytest.fixture
def z2():
    return FreeDendriformFamily(X2, Z2)


def sv(x):
    return single_vertex(x)


# -- the worked products from the construction ------------------------------

def test_single_vertex_prec(words):
    result = words.prec(sv("x"), sv("y"), "w")
    assert print_span(result) == "1*B[x;1:|,w:B[y;1:|,1:|]]"


def test_single_vertex_succ(words):
    result = words.succ(sv("x"), sv("y"), "w")
    assert print_span(result) == "1*B[y;w:B[x;1:|,1:|],1:|]"


def test_depth_two_prec(words):
    t = graft_binary(sv("z"), "x", "a", "b", sv("u"))
    result = words.prec(t, sv("y"), "w")
    assert print_span(result) == (
        "1*B[x;a:B[z;1:|,1:|],bw:B[y;b:B[u;1:|,1:|],1:|]]"
        " + 1*B[x;a:B[z;1:|,1:|],bw:B[u;1:|,w:B[y;1:|,1:|]]]")


def test_depth_two_succ(words):
    t = graft_binary(sv("z"), "x", "a", "b", sv("u"))
    result = words.succ(t, sv("y"), "w")
    assert print_span(result) == "1*B[y;w:B[x;a:B[z;1:|,1:|],b:B[u;1:|,1:|]],1:|]"


# -- base cases, conventions and misuse ---------------------------------------

def test_leaf_neutrality(z2):
    t = LinComb({sv("x"): 1})
    assert z2.prec(t, LEAF, "0") == t
    assert z2.succ(LEAF, t, "0") == t
    assert z2.prec(LEAF, t, "0").is_zero()
    assert z2.succ(t, LEAF, "0").is_zero()


def test_both_leaves_rejected(z2):
    with pytest.raises(LeafOperand):
        z2.prec(LEAF, LEAF, "0")
    with pytest.raises(LeafOperand):
        z2.succ(LEAF, LEAF, "0")


def test_identity_misuse(z2):
    t, u = sv("x"), sv("y")
    with pytest.raises(IdentityMisuse):
        z2.prec(t, u, IDENTITY)
    with pytest.raises(IdentityMisuse):
        z2.succ(t, u, IDENTITY)
    # Z2 = {0, 1} contains the token "1", so it is a genuine family index here
    assert not z2.prec(t, u, "1").is_zero()


def test_identity_token_without_element(words):
    with pytest.raises(IdentityMisuse):
        words.prec(sv("x"), sv("y"), "1")
    with pytest.raises(InvalidElement):
        words.prec(sv("x"), sv("y"), "nope")


@pytest.mark.parametrize("family", [FreeDendriformFamily, FreeTridendriformFamily])
@pytest.mark.parametrize("semigroup, element", [(Z2, "0"), (FREE, "ab")])
def test_unhashable_index_is_no_element(family, semigroup, element):
    # an index once checked is remembered; an unhashable or foreign one is
    # still refused as no element, before and after
    alg = family(X2, semigroup)
    x, y = alg.gen("x"), alg.gen("y")
    for _ in range(2):
        for op in alg.prec, alg.succ:
            for omega in ["0"], "nope":
                with pytest.raises(InvalidElement):
                    op(x, y, omega)
            assert not op(x, y, element).is_zero()


@pytest.mark.parametrize("family", [FreeDendriformFamily, FreeTridendriformFamily])
@pytest.mark.parametrize("semigroup, omega, error", [
    (Semigroup.free(["a"]), "b", InvalidElement),
    (Semigroup.free(["a"]), IDENTITY, IdentityMisuse),
    (Semigroup.trivial(), "1", IdentityMisuse),
], ids=["foreign", "identity", "identity-token"])
def test_bad_index_next_to_a_leaf_operand_is_refused(family, semigroup, omega, error):
    # the leaf rules used to answer first, with the other operand or zero, for any index
    alg = family(Alphabet(["x"]), semigroup)
    for t in alg.gen("x"), alg.nodes.single_vertex("x"):
        for op in alg.prec, alg.succ:
            for a, b in (t, LEAF), (LEAF, t):
                with pytest.raises(error):
                    op(a, b, omega)


def test_bilinearity(z2):
    t, u, w = sv("x"), sv("y"), graft_binary(sv("x"), "y", "1", IDENTITY, LEAF)
    span = z2.add(z2.span(t), z2.span(u).scaled(Fraction(2)))
    single = z2.span(w)
    expected = z2.add(z2.prec(t, w, "1"), z2.prec(u, w, "1").scaled(Fraction(2)))
    assert z2.prec(span, single, "1") == expected
    assert z2.prec(z2.zero(), single, "1").is_zero()
    assert z2.succ(z2.zero(), single, "1").is_zero()


def test_grading(z2):
    trees = enumerate_bin(1, X2, Z2) + enumerate_bin(2, X2, Z2)
    for t, u in product(trees[:6], trees[:6]):
        for op in (z2.prec, z2.succ):
            for _, term in op(t, u, "1").terms:
                assert leaves(term) == leaves(t) + leaves(u) - 1


def test_product_outputs_are_normalized(z2):
    # the recursion grafts a fixed context around an already-normalized span
    # and skips re-sorting; check the output really is canonical
    trees = enumerate_bin(1, X2, Z2) + enumerate_bin(2, X2, Z2)
    for t, u in product(trees, repeat=2):
        for omega in "01":
            for span in (z2.prec(t, u, omega), z2.succ(t, u, omega)):
                keys = [tree_key(term, X2, Z2) for _, term in span.terms]
                assert keys == sorted(keys)
                assert len(set(keys)) == len(keys)
                assert all(c != 0 for c, _ in span.terms)


# -- axioms -------------------------------------------------------------------

def test_axioms_single_vertices_z2(z2):
    for t, u, w in product([sv("x"), sv("y")], repeat=3):
        for alpha, beta in product("01", repeat=2):
            assert z2.axiom_residuals(t, u, w, alpha, beta) == \
                (LinComb({}), LinComb({}), LinComb({}))


def test_axioms_trivial_semigroup_all_small_triples():
    trivial = Semigroup.trivial()
    alg = FreeDendriformFamily(X2, trivial)
    trees = enumerate_bin(1, X2, trivial) + enumerate_bin(2, X2, trivial)
    for t, u, w in product(trees, repeat=3):
        assert alg.axioms_hold(t, u, w, "0", "0")


def test_axioms_over_free_semigroup(words):
    trees = [sv("x"), sv("y"),
             graft_binary(sv("x"), "y", "a", IDENTITY, LEAF),
             graft_binary(LEAF, "z", IDENTITY, "b", sv("u"))]
    for t, u, w in product(trees, repeat=3):
        for alpha, beta in product(["a", "b"], repeat=2):
            assert all(r.is_zero()
                       for r in words.axiom_residuals(t, u, w, alpha, beta))


def test_axioms_on_deep_trees(z2):
    # the exhaustive sweeps stop at depth two; exercise depth-three chains
    from helpers import depth

    deep = [t for t in enumerate_bin(3, X2, Z2) if depth(t) == 3]
    sample = deep[::23][:6]
    assert sample
    for t, u, w in product(sample, repeat=3):
        for alpha, beta in product("01", repeat=2):
            assert z2.axioms_hold(t, u, w, alpha, beta)


def test_axioms_free_semigroup_truncated_sweep():
    # noncommutative indices: words up to length two as family indices,
    # generator-typed edges on the trees
    free = Semigroup.free(["a", "b"])
    alg = FreeDendriformFamily(X2, free)
    trees = enumerate_bin(1, X2, free, max_word=1) + \
        enumerate_bin(2, X2, free, max_word=1)
    words = ["a", "b", "ab", "ba"]
    for t, u, w in product(trees[:6], repeat=3):
        for alpha, beta in product(words, repeat=2):
            assert alg.axioms_hold(t, u, w, alpha, beta)


class _SwappedSucc(FreeDendriformFamily):
    """``_succ_step`` writing the new left edge as b1*w instead of w*b1, so
    every succ step, inner and outermost, has the swapped type."""

    def _succ_step(self, t, u, w):
        b, first = self.nodes.first_edge(u)
        if first is LEAF:
            return w, (t,)
        inner = self._succ_trees(t, first, w) + self._prec_trees(t, first, b) + \
            self._dot_trees(t, first)
        return self.semigroup.mul_ext(b, w), inner


def test_swapped_index_mutant_breaks_an_axiom():
    mutant = _SwappedSucc(Alphabet(["x", "y", "z"]), Semigroup.free(["a", "b"]))
    x, y, z = single_vertex("x"), single_vertex("y"), single_vertex("z")
    failures = [
        (alpha, beta)
        for alpha, beta in product(["a", "b"], repeat=2)
        if any(not r.is_zero() for r in mutant.axiom_residuals(x, y, z, alpha, beta))
    ]
    assert failures  # noncommutative indices expose the swap
    assert not any(mutant.axioms_hold(x, y, z, alpha, beta) for alpha, beta in failures)


# -- generators -----------------------------------------------------------------

def test_express_generator(z2):
    assert z2.express(sv("x")) == Gen("x")


def test_express_right_comb_structure(z2):
    t = graft_binary(LEAF, "x", IDENTITY, "0", sv("y"))
    assert z2.express(t) == Prec("0", Gen("x"), Gen("y"))
    u = graft_binary(sv("y"), "x", "1", IDENTITY, LEAF)
    assert z2.express(u) == Succ("1", Gen("y"), Gen("x"))


def test_express_round_trip(z2):
    for n in range(1, 4):
        for t in enumerate_bin(n, X2, Z2):
            assert evaluate(z2.express(t), z2, z2.gen) == z2.span(t)


# -- the universal morphism --------------------------------------------------------

def test_extend_identity_oracle(z2):
    images = {x: z2.gen(x) for x in X2}
    for t in enumerate_bin(2, X2, Z2):
        assert z2.extend(images, z2, z2.span(t)) == z2.span(t)


def test_extend_linearity(z2):
    images = {x: z2.gen(x) for x in X2}
    a, b = sv("x"), sv("y")
    span = z2.add(z2.span(a), z2.span(b).scaled(Fraction(3)))
    assert z2.extend(images, z2, span) == span


def test_extend_fixes_generator_images(z2):
    # the extension composed with the generator embedding is the given map
    from dendrifam.rotabaxter import RBFamily, eta, pointwise_algebra

    algebra = pointwise_algebra(2)
    rb = RBFamily(algebra, Fraction(1),
                  {w: scaled_identity_matrix(2, Fraction(-1)) for w in ("0", "1")})
    ops = eta(rb)
    images = {"x": algebra.basis_vector(0), "y": algebra.basis_vector(1)}
    for symbol in X2:
        assert z2.extend(images, ops, z2.gen(symbol)) == images[symbol]


def test_extend_is_morphism_into_rb_induced_structure(z2):
    from dendrifam.rotabaxter import (RBFamily, cascading_sum_matrix, eta,
                                      pointwise_algebra)

    algebra = pointwise_algebra(3)
    rb = RBFamily(algebra, Fraction(1),
                  {w: cascading_sum_matrix(3, Fraction(1)) for w in ("0", "1")})
    ops = eta(rb)
    basis = [algebra.basis_vector(i) for i in range(3)]
    validate_dendriform_ops(ops, basis, [(a, b, Z2.mul(a, b))
                                         for a in "01" for b in "01"])
    images = {"x": basis[0], "y": basis[1]}
    trees = enumerate_bin(1, X2, Z2)
    for t, u in product(trees, repeat=2):
        for omega in "01":
            left = z2.extend(images, ops, z2.prec(t, u, omega))
            right = ops.prec(z2.extend(images, ops, z2.span(t)),
                             z2.extend(images, ops, z2.span(u)), omega)
            assert left == right
            left = z2.extend(images, ops, z2.succ(t, u, omega))
            right = ops.succ(z2.extend(images, ops, z2.span(t)),
                             z2.extend(images, ops, z2.span(u)), omega)
            assert left == right


def test_validate_dendriform_ops_flags_broken_oracle():
    class Broken:
        # prec = sum, succ = 0 violates the middle axiom: (x succ y) prec z = z
        # while x succ (y prec z) = 0
        def prec(self, a, b, w):
            return a + b

        def succ(self, a, b, w):
            return Fraction(0)

        def add(self, *values):
            return sum(values)

        def scale(self, c, v):
            return c * v

        def zero(self):
            return Fraction(0)

    broken = Broken()
    elements = [Fraction(1), Fraction(2)]
    failure = search(DENDRIFORM, broken, product(elements, elements, elements, [("0", "0", "0")]))
    assert failure is not None
    with pytest.raises(AxiomFailure):
        validate_dendriform_ops(broken, [Fraction(1), Fraction(2)],
                                [("0", "0", "0")])


# -- classical specialization ----------------------------------------------------

def strip_types(t):
    if t is LEAF:
        return None
    return (t.dec, strip_types(t.left), strip_types(t.right))


def to_untyped_span(span):
    return {strip_types(t): c for c, t in span.terms}


def test_trivial_semigroup_matches_untyped_construction():
    trivial = Semigroup.trivial()
    alg = FreeDendriformFamily(X2, trivial)
    trees = []
    for n in range(1, 3):
        trees.extend(enumerate_bin(n, X2, trivial))
    for t, u in product(trees, repeat=2):
        st, su = {strip_types(t): Fraction(1)}, {strip_types(u): Fraction(1)}
        assert to_untyped_span(alg.prec(t, u, "0")) == b_span_prec(st, su)
        assert to_untyped_span(alg.succ(t, u, "0")) == b_span_succ(st, su)


def shape(t):
    return None if t is LEAF else (shape(t.left), shape(t.right))


def test_trivial_semigroup_sum_is_a_tamari_interval():
    # Loday-Ronco: t < u + t > u is the Tamari interval [over(t, u), under(t, u)],
    # each tree once; an oracle that never runs the recursion of the products
    x, trivial = Alphabet(["x"]), Semigroup.trivial()
    alg = FreeDendriformFamily(x, trivial)
    trees = [t for n in range(1, 5) for t in enumerate_bin(n, x, trivial)]
    assert len(trees) ** 2 == 484
    for t, u in product(trees, repeat=2):
        terms = alg.add(alg.prec(t, u, "0"), alg.succ(t, u, "0")).terms
        assert {c for c, _ in terms} == {1}
        got, want = [shape(v) for _, v in terms], interval(shape(t), shape(u))
        assert len(got) == len(want) and set(got) == want


TAMARI_FAMILIES = [FreeDendriformFamily(X2, Semigroup.cyclic(3)),
                   FreeDendriformFamily(X2, Semigroup.free(["a", "b"]))]


@st.composite
def typed_trees(draw, size, indices):
    """A binary tree with ``size`` vertices over x, y, each internal edge typed from ``indices``."""
    left_size = draw(st.integers(0, size - 1))
    (a, left), (b, right) = [
        (draw(st.sampled_from(indices)), draw(typed_trees(n, indices))) if n else (IDENTITY, LEAF)
        for n in (left_size, size - 1 - left_size)]
    return graft_binary(left, draw(st.sampled_from(list(X2))), a, b, right)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_typed_sum_is_a_tamari_interval(data):
    # prec_w(T, U) + succ_w'(T, U) on typed decorated trees: types and decorations
    # forgotten, its terms are the Tamari interval of the shapes, one to one
    alg = data.draw(st.sampled_from(TAMARI_FAMILIES))
    indices = alg.semigroup.elements(2)
    n = data.draw(st.integers(1, 6))
    t = data.draw(typed_trees(n, indices))
    u = data.draw(typed_trees(data.draw(st.integers(1, min(6, 10 - n))), indices))
    w, w2 = data.draw(st.sampled_from(indices)), data.draw(st.sampled_from(indices))
    terms = [*alg.prec(t, u, w).map.items(), *alg.succ(t, u, w2).map.items()]
    assert {c for _, c in terms} == {1}
    got, want = [shape(v) for v, _ in terms], interval(shape(t), shape(u))
    assert len(got) == len(want) and set(got) == want
