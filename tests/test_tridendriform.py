from fractions import Fraction
from itertools import product

import pytest

from dendrifam.axioms import DENDRIFORM, TRIDENDRIFORM, search
from dendrifam.basis import LEAF, Alphabet, LinComb
from dendrifam.errors import AxiomFailure, IdentityMisuse, LeafOperand
from dendrifam.exprs import Dot, Gen, Prec, Succ, evaluate
from dendrifam.schroder import enumerate_sch, intern_node, single_vertex, tree_key
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.termio import print_span
from dendrifam.tridendriform import FreeTridendriformFamily, gamma

from helpers import central_factors, corolla, leaves, validate_tridendriform_ops
from untyped_free import t_dot, t_prec, t_span_op, t_succ

X2 = Alphabet(["x", "y"])
Z2 = Semigroup.cyclic(2)
TRIVIAL = Semigroup.trivial()


@pytest.fixture
def words():
    return FreeTridendriformFamily(Alphabet(["x", "y", "z"]),
                                   Semigroup.free(["a", "b"]))


@pytest.fixture
def z2():
    return FreeTridendriformFamily(X2, Z2)


def sv(x):
    return single_vertex(x)


# -- the worked products from the construction ---------------------------------

def test_single_vertex_products(words):
    assert print_span(words.prec(sv("x"), sv("y"), "a")) == \
        "1*S[x;1:|,a:S[y;1:|,1:|]]"
    assert print_span(words.succ(sv("x"), sv("y"), "a")) == \
        "1*S[y;a:S[x;1:|,1:|],1:|]"
    assert print_span(words.dot(sv("x"), sv("y"))) == "1*S[x,y;1:|,1:|,1:|]"


def test_depth_two_products(words):
    t = intern_node(("x",), (("a", sv("y")), (IDENTITY, LEAF)))
    assert print_span(words.succ(t, sv("z"), "b")) == \
        "1*S[z;b:S[x;a:S[y;1:|,1:|],1:|],1:|]"
    assert print_span(words.prec(t, sv("z"), "b")) == \
        "1*S[x;a:S[y;1:|,1:|],b:S[z;1:|,1:|]]"
    assert print_span(words.dot(sv("z"), t)) == \
        "1*S[z,x;1:|,a:S[y;1:|,1:|],1:|]"


# -- base cases and misuse ------------------------------------------------------

def test_leaf_behaviour(z2):
    t = LinComb({sv("x"): 1})
    assert z2.prec(t, LEAF, "0") == t
    assert z2.succ(LEAF, t, "0") == t
    assert z2.prec(LEAF, t, "0").is_zero()
    assert z2.succ(t, LEAF, "0").is_zero()
    assert z2.dot(t, LEAF).is_zero()
    assert z2.dot(LEAF, t).is_zero()
    with pytest.raises(LeafOperand):
        z2.dot(LEAF, LEAF)


def test_identity_misuse(z2):
    with pytest.raises(IdentityMisuse):
        z2.prec(sv("x"), sv("y"), IDENTITY)
    with pytest.raises(IdentityMisuse):
        z2.succ(sv("x"), sv("y"), IDENTITY)


def test_dot_bilinearity(z2):
    a, b = sv("x"), sv("y")
    span = z2.add(z2.span(a), z2.span(b).scaled(Fraction(-2)))
    expected = z2.add(z2.dot(a, a), z2.dot(b, a).scaled(Fraction(-2)))
    assert z2.dot(span, a) == expected
    assert z2.dot(z2.zero(), z2.span(a)).is_zero()


def test_grading(z2):
    trees = enumerate_sch(1, X2, Z2) + enumerate_sch(2, X2, Z2)
    for t, u in product(trees[:8], trees[:8]):
        spans = [z2.prec(t, u, "1"), z2.succ(t, u, "1"), z2.dot(t, u)]
        for span in spans:
            for _, term in span.terms:
                assert leaves(term) == leaves(t) + leaves(u) - 1


def test_product_outputs_are_normalized(z2):
    trees = enumerate_sch(1, X2, Z2) + enumerate_sch(2, X2, Z2)
    for t, u in product(trees, repeat=2):
        spans = [z2.dot(t, u)]
        for omega in "01":
            spans.append(z2.prec(t, u, omega))
            spans.append(z2.succ(t, u, omega))
        for span in spans:
            keys = [tree_key(term, X2, Z2) for _, term in span.terms]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            assert all(c != 0 for c, _ in span.terms)


# -- the seven axioms ------------------------------------------------------------

def test_axioms_two_leaves_z2(z2):
    trees = enumerate_sch(1, X2, Z2)
    for t, u, w in product(trees, repeat=3):
        for alpha, beta in product("01", repeat=2):
            residuals = z2.axiom_residuals(t, u, w, alpha, beta)
            assert all(r.is_zero() for r in residuals)


def test_axioms_three_leaves_trivial():
    alg = FreeTridendriformFamily(Alphabet(["x"]), TRIVIAL)
    trees = enumerate_sch(1, alg.alphabet, TRIVIAL) + \
        enumerate_sch(2, alg.alphabet, TRIVIAL)
    for t, u, w in product(trees, repeat=3):
        assert alg.axioms_hold(t, u, w, "0", "0")


def test_axioms_over_free_semigroup(words):
    trees = [sv("x"), corolla(["x", "y"]),
             intern_node(("y",), (("a", sv("z")), (IDENTITY, LEAF)))]
    for t, u, w in product(trees, repeat=3):
        for alpha, beta in product(["a", "b"], repeat=2):
            assert words.axioms_hold(t, u, w, alpha, beta)


def test_axioms_on_deep_trees(z2):
    from helpers import depth

    deep = [t for t in enumerate_sch(3, X2, Z2) if depth(t) >= 2]
    sample = deep[::17][:5]
    assert sample
    for t, u, w in product(sample, repeat=3):
        for alpha, beta in product("01", repeat=2):
            assert z2.axioms_hold(t, u, w, alpha, beta)


def test_dot_associativity(z2):
    trees = enumerate_sch(1, X2, Z2)
    for t, u, w in product(trees, repeat=3):
        assert z2.dot(z2.dot(t, u), z2.span(w)) == z2.dot(z2.span(t), z2.dot(u, w))


# -- the leaf-fuse convention  -----------------------------------------------------

def test_fuse_convention_is_local(z2):
    # fusing two leaf boundary children gives coefficient exactly one
    assert z2.dot(sv("x"), sv("y")) == z2.span(corolla(["x", "y"]))
    # a non-leaf boundary child never triggers it
    t = intern_node(("x",), ((IDENTITY, LEAF), ("0", sv("y"))))
    result = z2.dot(t, sv("x"))
    assert all(c == 1 for c, _ in result.terms)


class _DroppedFuse(FreeTridendriformFamily):
    """Naive reading without the fuse rule: the merged leaf child of every
    fuse of two leaf boundary children, inner and outermost, comes out
    twice, with coefficient two."""

    def _dot_step(self, t, u):
        if t.children[-1][1] is LEAF and u.children[0][1] is LEAF:
            return IDENTITY, (LEAF, LEAF)
        return super()._dot_step(t, u)


def test_dropped_fuse_mutant_detected_by_generation_round_trip(z2):
    # the doubled fuse cannot violate the seven axioms (both sides of every
    # axiom fuse the same boundary pairs), so the detection is through the
    # generator decomposition: the corolla no longer evaluates to itself
    mutant = _DroppedFuse(X2, Z2)
    trees = enumerate_sch(1, X2, Z2)
    for t, u, w in product(trees, repeat=3):
        for alpha, beta in product("01", repeat=2):
            assert mutant.axioms_hold(t, u, w, alpha, beta)
    cor = corolla(["x", "y"])
    assert evaluate(mutant.express(cor), mutant, mutant.gen) == \
        mutant.span(cor).scaled(Fraction(2))
    assert evaluate(z2.express(cor), z2, z2.gen) == z2.span(cor)


# -- generators ----------------------------------------------------------------------

def test_express_corolla(z2):
    assert z2.express(corolla(["x", "y"])) == Dot(Gen("x"), Gen("y"))


def test_express_breadth_two_cases(z2):
    t = intern_node(("x",), (("0", sv("y")), ("1", sv("x"))))
    assert z2.express(t) == Prec("1", Succ("0", Gen("y"), Gen("x")), Gen("x"))


def test_express_round_trip(z2):
    for n in range(1, 4):
        for t in enumerate_sch(n, X2, Z2):
            assert evaluate(z2.express(t), z2, z2.gen) == z2.span(t)


def test_factorization_order_agreement(z2):
    # left-to-right is the canonical factorization; evaluating the factors
    # joined right-to-left must agree because dot is associative
    for n in range(1, 4):
        for t in enumerate_sch(n, X2, Z2):
            factors = central_factors(z2, t)
            right = evaluate(factors[-1], z2, z2.gen)
            for factor in reversed(factors[:-1]):
                right = z2.dot(evaluate(factor, z2, z2.gen), right)
            assert right == z2.span(t)


# -- the universal morphism ------------------------------------------------------------

def test_extend_identity_oracle(z2):
    images = {x: z2.gen(x) for x in X2}
    for n in range(1, 3):
        for t in enumerate_sch(n, X2, Z2):
            assert z2.extend(images, z2, z2.span(t)) == z2.span(t)


def test_extend_linearity(z2):
    images = {x: z2.gen(x) for x in X2}
    span = z2.add(z2.span(sv("x")), z2.span(corolla(["x", "y"])).scaled(Fraction(5)))
    assert z2.extend(images, z2, span) == span


def test_extend_is_morphism_into_rb_induced_structure(z2):
    from dendrifam.rotabaxter import (RBFamily, cascading_sum_matrix, epsilon,
                                      pointwise_algebra)

    algebra = pointwise_algebra(3)
    rb = RBFamily(algebra, Fraction(1),
                  {w: cascading_sum_matrix(3, Fraction(1)) for w in ("0", "1")})
    ops = epsilon(rb, Z2, ["0", "1"])
    images = {"x": algebra.basis_vector(0), "y": algebra.basis_vector(1)}
    trees = enumerate_sch(1, X2, Z2)

    def img(t):
        return z2.extend(images, ops, z2.span(t))

    for t, u in product(trees, repeat=2):
        for omega in "01":
            assert z2.extend(images, ops, z2.prec(t, u, omega)) == \
                ops.prec(img(t), img(u), omega)
            assert z2.extend(images, ops, z2.succ(t, u, omega)) == \
                ops.succ(img(t), img(u), omega)
        assert z2.extend(images, ops, z2.dot(t, u)) == ops.dot(img(t), img(u))


# -- gamma ---------------------------------------------------------------------------

def test_gamma_preserves_succ(z2):
    g = gamma(z2)
    a, b = z2.span(sv("x")), z2.span(sv("y"))
    assert g.succ(a, b, "1") == z2.succ(a, b, "1")


def test_gamma_of_free_tridendriform_is_dendriform(z2):
    g = gamma(z2)
    elements = [z2.span(t) for t in enumerate_sch(1, X2, Z2)]
    triples = [(a, b, Z2.mul(a, b)) for a in "01" for b in "01"]
    assert search(DENDRIFORM, g, product(elements, elements, elements, triples)) is None


def test_validate_tridendriform_ops_flags_broken_oracle():
    class Broken:
        def prec(self, a, b, w):
            return a + b

        def succ(self, a, b, w):
            return Fraction(0)

        def dot(self, a, b):
            return a * b

        def add(self, *values):
            return sum(values)

        def scale(self, c, v):
            return c * v

        def zero(self):
            return Fraction(0)

    broken = Broken()
    elements = [Fraction(1), Fraction(2)]
    assert search(TRIDENDRIFORM, broken,
                  product(elements, elements, elements, [("0", "0", "0")])) is not None
    with pytest.raises(AxiomFailure):
        validate_tridendriform_ops(broken, [Fraction(1), Fraction(2)],
                                   [("0", "0", "0")])


# -- classical specialization ------------------------------------------------------------

def strip_types(t):
    if t is LEAF:
        return None
    return (t.decs, tuple(strip_types(child) for _, child in t.children))


def to_untyped_span(span):
    return {strip_types(t): c for c, t in span.terms}


def test_trivial_semigroup_matches_untyped_construction():
    alg = FreeTridendriformFamily(X2, TRIVIAL)
    trees = []
    for n in range(1, 3):
        trees.extend(enumerate_sch(n, X2, TRIVIAL))
    for t, u in product(trees, repeat=2):
        st = {strip_types(t): Fraction(1)}
        su = {strip_types(u): Fraction(1)}
        assert to_untyped_span(alg.prec(t, u, "0")) == t_span_op(t_prec, st, su)
        assert to_untyped_span(alg.succ(t, u, "0")) == t_span_op(t_succ, st, su)
        assert to_untyped_span(alg.dot(t, u)) == t_span_op(t_dot, st, su)
