"""The Rota-Baxter vector layer against a dense ``Fraction`` reference, and
``extend`` into the induced structures of random Rota-Baxter families."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifam import exprs
from dendrifam.basis import Alphabet
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.pbtrees import enumerate_bin
from dendrifam.rotabaxter import (FiniteAlgebra, RBFamily, cascading_sum_matrix,
                                  epsilon, eta, pointwise_algebra,
                                  rb_family_counterexample, scaled_identity_matrix,
                                  vec_add, vec_scale)
from dendrifam.schroder import enumerate_sch
from dendrifam.semigroups import Semigroup
from dendrifam.tridendriform import FreeTridendriformFamily

X = Alphabet(["x", "y"])
Z2 = Semigroup.cyclic(2)
SAMPLE = ["0", "1"]
DEND = FreeDendriformFamily(X, Z2)
TRI = FreeTridendriformFamily(X, Z2)
BINARY = [t for n in range(1, 5) for t in enumerate_bin(n, X, Z2)]
SCHRODER = [t for n in range(1, 4) for t in enumerate_sch(n, X, Z2)]

# Fraction values, integral ones included, so the tests cover callers who pass
# Fraction coordinates; zero often, so the sparse paths are exercised
rationals = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-4, max_value=4, max_denominator=3))
weights = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def dense_mul(structure, u, v):
    dim = len(structure)
    out = [Fraction(0)] * dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                out[k] += Fraction(u[i]) * Fraction(v[j]) * Fraction(structure[i][j][k])
    return tuple(out)


def dense_apply(matrix, v):
    return tuple(sum((Fraction(row[j]) * Fraction(v[j]) for j in range(len(v))), Fraction(0))
                 for row in matrix)


def assert_exact(vector):
    for c in vector:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def vectors(dim):
    return st.tuples(*[rationals] * dim)


def matrices(dim):
    return st.tuples(*[vectors(dim)] * dim)


@given(st.data(), st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_mul_matches_dense_reference(data, dim):
    structure = data.draw(st.tuples(*[matrices(dim)] * dim))
    u, v = data.draw(vectors(dim)), data.draw(vectors(dim))
    product = FiniteAlgebra(structure).mul(u, v)
    assert product == dense_mul(structure, u, v)
    assert_exact(product)


@given(st.data(), st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_apply_matches_dense_reference(data, dim):
    operators = {w: data.draw(matrices(dim)) for w in SAMPLE}
    v = data.draw(vectors(dim))
    rb = RBFamily(pointwise_algebra(dim), data.draw(weights), operators)
    for w in SAMPLE:
        image = rb.apply(w, v)
        assert image == dense_apply(operators[w], v)
        assert_exact(image)


@given(st.data(), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_vector_arithmetic_is_exact(data, dim):
    u, v = data.draw(vectors(dim)), data.draw(vectors(dim))
    c = data.draw(rationals)
    total, scaled = vec_add(u, v), vec_scale(c, u)
    assert total == tuple(a + b for a, b in zip(u, v))
    assert scaled == tuple(c * a for a in u)
    assert_exact(total)
    assert_exact(scaled)


@st.composite
def rb_families(draw):
    """A constant family of a Rota-Baxter operator of a random nonzero weight."""
    dim = draw(st.integers(min_value=1, max_value=4))
    weight = draw(weights)
    matrix = draw(st.sampled_from([cascading_sum_matrix(dim, weight),
                                   scaled_identity_matrix(dim, -weight)]))
    return RBFamily(pointwise_algebra(dim), weight, {w: matrix for w in SAMPLE})


def images(data, dim):
    return {x: data.draw(vectors(dim)) for x in X}


@given(st.data(), rb_families())
@settings(max_examples=40, deadline=None)
def test_extend_into_eta_is_a_morphism(data, rb):
    assert rb_family_counterexample(rb, Z2, SAMPLE) is None
    ops = eta(rb)
    f = images(data, rb.algebra.dim)
    s, t = data.draw(st.sampled_from(BINARY)), data.draw(st.sampled_from(BINARY))
    es, et = DEND.extend(f, ops, s), DEND.extend(f, ops, t)
    assert es == exprs.evaluate(DEND.express(s), ops, f.__getitem__)
    assert_exact(es)
    for w in SAMPLE:
        assert DEND.extend(f, ops, DEND.prec(s, t, w)) == ops.prec(es, et, w)
        assert DEND.extend(f, ops, DEND.succ(s, t, w)) == ops.succ(es, et, w)


@given(st.data(), rb_families())
@settings(max_examples=25, deadline=None)
def test_extend_into_epsilon_is_a_morphism(data, rb):
    ops = epsilon(rb, Z2, SAMPLE)
    f = images(data, rb.algebra.dim)
    s, t = data.draw(st.sampled_from(SCHRODER)), data.draw(st.sampled_from(SCHRODER))
    es, et = TRI.extend(f, ops, s), TRI.extend(f, ops, t)
    assert es == exprs.evaluate(TRI.express(s), ops, f.__getitem__)
    assert_exact(es)
    assert TRI.extend(f, ops, TRI.dot(s, t)) == ops.dot(es, et)
    for w in SAMPLE:
        assert TRI.extend(f, ops, TRI.prec(s, t, w)) == ops.prec(es, et, w)
        assert TRI.extend(f, ops, TRI.succ(s, t, w)) == ops.succ(es, et, w)
