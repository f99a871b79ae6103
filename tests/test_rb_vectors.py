"""The Rota-Baxter vector layer against a dense ``Fraction`` reference, and
``extend`` into the induced structures of random Rota-Baxter families."""

import itertools
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendrifam import exprs
from dendrifam.basis import Alphabet
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.errors import InvalidElement
from dendrifam.pbtrees import enumerate_bin
from dendrifam.rotabaxter import (EpsilonOps, EtaOps, FiniteAlgebra, RBFamily, TensorRB, _walk,
                                  cascading_sum_matrix, epsilon, eta, pointwise_algebra,
                                  rb_family_counterexample, vec_add, vec_scale)
from dendrifam.schroder import enumerate_sch
from dendrifam.semigroups import Semigroup
from dendrifam.tridendriform import FreeTridendriformFamily

from helpers import scaled_identity_matrix

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
# int and Fraction coordinates mixed, as callers may pass either
coordinates = st.one_of(rationals, st.integers(min_value=-4, max_value=4))


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


def group_algebra_family(d=3, weight=Fraction(1, 3), mul=None):
    """k[G] for the group G on 0, ..., d-1 with product ``mul``, Z_d by default:
    e_i e_j = e_{mul(i, j)}, with minus ``weight`` times the projection onto the
    augmentation ideal, a Rota-Baxter operator with no zero entry, for each index."""
    mul = mul or (lambda i, j: (i + j) % d)
    structure = tuple(tuple(tuple(int(k == mul(i, j)) for k in range(d)) for j in range(d))
                      for i in range(d))
    projection = tuple(tuple(-weight * (int(r == c) - Fraction(1, d)) for c in range(d))
                       for r in range(d))
    return RBFamily(FiniteAlgebra(structure), weight, {w: projection for w in SAMPLE})


@st.composite
def tensor_rb_inputs(draw):
    """A family over pointwise k^3, k[Z_3], a random non-associative algebra, or
    pointwise k^2 over the free semigroup on a with the sample a, aa, which is not
    product-closed; its semigroup and sample; and two lists of (index, element,
    coefficient) terms, repeats allowed."""
    kind = draw(st.sampled_from(["pointwise", "group", "random", "free"]))
    semigroup, sample = (Semigroup.free(["a"]), ["a", "aa"]) if kind == "free" else (Z2, SAMPLE)
    if kind == "group":
        rb = group_algebra_family()
    else:
        dim = {"pointwise": 3, "free": 2}.get(kind) or draw(st.integers(1, 3))
        algebra = (FiniteAlgebra(draw(st.tuples(*[matrices(dim)] * dim))) if kind == "random"
                   else pointwise_algebra(dim))
        rb = RBFamily(algebra, draw(weights), {w: draw(matrices(dim)) for w in sample})
    term = st.tuples(st.integers(0, rb.algebra.dim - 1), st.sampled_from(sample), rationals)
    return rb, semigroup, draw(st.lists(term, max_size=4)), draw(st.lists(term, max_size=4))


@given(tensor_rb_inputs())
@settings(max_examples=80, deadline=None)
def test_tensor_rb_matches_dense_formulas(inputs):
    """``TensorRB.mul`` against (e_i (x) a)(e_j (x) b) = e_i e_j (x) ab and ``apply``
    against P(e_i (x) w) = P_w(e_i) (x) w, summed densely over ``Fraction``."""
    rb, semigroup, u_terms, v_terms = inputs
    op, structure = TensorRB(rb, semigroup), rb.algebra.structure

    def dense(pairs):
        out: dict = {}
        for c, key in pairs:
            out[key] = out.get(key, Fraction(0)) + Fraction(c)
        return {key: c for key, c in out.items() if c}

    u, v = dense((c, (i, w)) for i, w, c in u_terms), dense((c, (i, w)) for i, w, c in v_terms)
    u_span, v_span = (op.add(*[op.scale(c, op.element(i, w)) for i, w, c in terms])
                      for terms in (u_terms, v_terms))
    assert (u_span.map, v_span.map) == (u, v)
    expected = dense((cu * cv * c, (k, semigroup.mul(a, b)))
                     for (i, a), cu in u.items() for (j, b), cv in v.items()
                     for k, c in enumerate(structure[i][j]))
    product = op.mul(u_span, v_span)
    assert product.map == expected
    assert_exact(product.map.values())
    for span, x in ((u_span, u), (v_span, v)):
        image = op.apply(span)
        assert image.map == dense((rb.operators[w][r][i] * c, (r, w))
                                  for (i, w), c in x.items() for r in range(rb.algebra.dim))
        assert_exact(image.map.values())


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


@pytest.mark.parametrize("u, v", [((1, 2), (1, 1, 1)), ((1, 1, 1), (1, 2)),
                                  ((), (Fraction(1, 2),))])
def test_vec_add_rejects_vectors_of_different_lengths(u, v):
    with pytest.raises(InvalidElement,
                       match=f"expected a vector of dimension {len(u)}, got {len(v)} coordinates"):
        vec_add(u, v)


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


def mixed_vectors(dim):
    return st.tuples(*[coordinates] * dim)


@st.composite
def induced_inputs(draw):
    """A family of random operators over a random, not necessarily
    associative, algebra (the induced products are formulas that need no
    validated family), and two vectors of mixed int and Fraction coordinates."""
    dim = draw(st.integers(min_value=1, max_value=4))
    structure = draw(st.tuples(*[matrices(dim)] * dim))
    operators = {w: draw(matrices(dim)) for w in SAMPLE}
    rb = RBFamily(FiniteAlgebra(structure), draw(weights), operators)
    return rb, draw(mixed_vectors(dim)), draw(mixed_vectors(dim))


@given(induced_inputs())
@settings(max_examples=60, deadline=None)
def test_eta_prec_is_x_times_the_shifted_operator(inputs):
    rb, x, y = inputs
    ops = eta(rb)
    for w in SAMPLE:
        shifted = vec_add(rb.apply(w, y), vec_scale(rb.weight, y))
        product = ops.prec(x, y, w)
        assert product == rb.algebra.mul(x, shifted)
        assert_exact(product)
        assert_exact(ops.succ(x, y, w))


@given(induced_inputs())
@settings(max_examples=40, deadline=None)
def test_epsilon_dot_is_the_weighted_product(inputs):
    rb, x, y = inputs
    ops = EpsilonOps(rb)
    product = ops.dot(x, y)
    assert product == vec_scale(rb.weight, rb.algebra.mul(x, y))
    assert_exact(product)


@given(st.data(), induced_inputs())
@settings(max_examples=40, deadline=None)
def test_induced_add_is_the_fold_of_vec_add(data, inputs):
    rb = inputs[0]
    for ops in (eta(rb), EpsilonOps(rb)):
        for n in (0, 1, 2, 5):
            values = [data.draw(mixed_vectors(rb.algebra.dim)) for _ in range(n)]
            expected = ops.zero()
            for v in values:
                expected = vec_add(expected, v)
            total = ops.add(*values)
            assert total == expected
            assert_exact(total)
        c, v = data.draw(coordinates), data.draw(mixed_vectors(rb.algebra.dim))
        assert ops.scale(c, v) == vec_scale(c, v)
        assert_exact(ops.scale(c, v))
        assert_exact(ops.scale(1, v))


@given(rb_families())
@settings(max_examples=20, deadline=None)
def test_extend_of_the_zero_span_is_zero(rb):
    f = {x: (Fraction(1),) * rb.algebra.dim for x in X}
    assert DEND.extend(f, eta(rb), DEND.zero()) == eta(rb).zero()
    ops = epsilon(rb, Z2, SAMPLE)
    assert TRI.extend(f, ops, TRI.zero()) == ops.zero()


@given(st.data(), rb_families())
@settings(max_examples=30, deadline=None)
def test_extend_of_a_span_is_the_weighted_sum_of_its_terms(data, rb):
    """A span of Fraction coefficients, built with a pair of opposite terms
    that cancel, maps to the coefficient-weighted sum of the term images."""
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    f = images(data, rb.algebra.dim)
    for alg, ops, trees in ((DEND, eta(rb), BINARY), (TRI, epsilon(rb, Z2, SAMPLE), SCHRODER)):
        s, t, u = (data.draw(st.sampled_from(trees)) for _ in range(3))
        c, q = data.draw(fractions), data.draw(fractions)
        terms = [(c, s), (Fraction(1, 2), t), (q, u), (-q, u)]
        span = alg.add(*[alg.scale(k, alg.span(tree)) for k, tree in terms])
        expected = ops.zero()
        for k, tree in terms:
            value = exprs.evaluate(alg.express(tree), ops, f.__getitem__)
            expected = vec_add(expected, vec_scale(k, value))
        value = alg.extend(f, ops, span)
        assert value == expected
        assert_exact(value)


@given(induced_inputs(), st.one_of(weights, st.integers(min_value=-2, max_value=2)))
@settings(max_examples=80, deadline=None)
def test_products_match_their_defining_formulas(inputs, weight):
    """``mul`` and the five induced products against their definitions,
    evaluated densely over ``Fraction``, on random operators over a random,
    not necessarily associative, algebra, with int, Fraction and zero weights."""
    rb, x, y = inputs
    rb = RBFamily(rb.algebra, weight, rb.operators)
    structure = rb.algebra.structure

    def times(u, v):
        return dense_mul(structure, u, v)

    def plus(u, v, c=1):
        return tuple(a + c * b for a, b in zip(u, v))

    assert rb.algebra.mul(x, y) == times(x, y)
    assert_exact(rb.algebra.mul(x, y))
    eta_ops, eps_ops = eta(rb), EpsilonOps(rb)
    for w in SAMPLE:
        px, py = dense_apply(rb.operators[w], x), dense_apply(rb.operators[w], y)
        for product, expected in ((eta_ops.prec(x, y, w), plus(times(x, py), times(x, y), weight)),
                                  (eta_ops.succ(x, y, w), times(px, y)),
                                  (eps_ops.prec(x, y, w), times(x, py)),
                                  (eps_ops.succ(x, y, w), times(px, y))):
            assert product == expected
            assert_exact(product)
    dot = eps_ops.dot(x, y)
    assert dot == tuple(weight * c for c in times(x, y))
    assert_exact(dot)


def folded(rb):
    """For the compiled prec and succ of each index of eta and of epsilon over ``rb``,
    whether it walks one table with the operator folded in."""
    return [getattr(product, "func", None) is _walk for ops in (EtaOps(rb), EpsilonOps(rb))
            for products in (ops._prec, ops._succ) for product in products.values()]


def test_sparse_operators_stay_folded_into_the_tables():
    # k^5 with cascading sums: each folded table has no more terms than the operator
    # and the algebra's table together, so each product is one walk of its own table
    rb = RBFamily(pointwise_algebra(5), 1, {w: cascading_sum_matrix(5, 1) for w in SAMPLE})
    assert all(folded(rb))


# the symmetric group on three points, composed right to left: not commutative
S3 = list(itertools.permutations(range(3)))


def s3_mul(i, j):
    return S3.index(tuple(S3[i][k] for k in S3[j]))


@pytest.mark.parametrize("d, mul", [(15, None), (6, s3_mul)], ids=["Z15", "S3"])
def test_dense_operators_are_applied_before_the_algebra_product(d, mul):
    """On k[Z_15] the augmentation-ideal operator has no zero entry, and folded into the
    225 structure constants it would give tables of 3,375 terms: each induced product
    applies the operator's columns and then multiplies in the algebra, exactly as the
    formulas x (P_w + lambda)(y) and P_w(x) y say.  k[S_3] is not commutative, so it
    also tells the operands apart."""
    weight = Fraction(1, 3)
    rb = group_algebra_family(d, weight, mul)
    assert not any(folded(rb))
    alg, eta_ops, eps_ops = rb.algebra, EtaOps(rb), EpsilonOps(rb)
    dense = tuple(Fraction(i % 5 - 2, 1 + i % 3) for i in range(d))
    vectors = [alg.basis_vector(0), alg.basis_vector(d // 2), alg.basis_vector(d - 1), dense,
               tuple(i % 2 for i in range(d))]
    for x in vectors:
        for y in vectors:
            for w in SAMPLE:
                px, py = rb.apply(w, x), rb.apply(w, y)
                for product, expected in (
                        (eta_ops.prec(x, y, w), alg.mul(x, vec_add(py, vec_scale(weight, y)))),
                        (eta_ops.succ(x, y, w), alg.mul(px, y)),
                        (eps_ops.prec(x, y, w), alg.mul(x, py)),
                        (eps_ops.succ(x, y, w), alg.mul(px, y))):
                    assert product == expected
                    assert_exact(product)


def dense_fold(structure, matrix, right):
    """The folded table of x P(y) (``right``) or P(x) y for the ``structure`` constants and
    the ``matrix`` of P, built densely from every e_i * e_j and counted in full, as the
    compiler decided before it read nonzeros only: the table when it has no more terms
    than P and the structure constants together, else None."""
    d = len(structure)

    def times(i, j):
        if right:  # e_i P(e_j) = sum_r P_rj e_i e_r
            return [sum(Fraction(matrix[r][j]) * structure[i][r][k] for r in range(d))
                    for k in range(d)]
        return [sum(Fraction(matrix[r][i]) * structure[r][j][k] for r in range(d))
                for k in range(d)]

    table = tuple(tuple((j, terms) for j in range(d)
                        if (terms := tuple((k, c) for k, c in enumerate(times(i, j)) if c)))
                  for i in range(d))
    size = sum(len(terms) for row in table for _, terms in row)
    nonzero = sum(1 for row in matrix for c in row if c)
    nonzero += sum(1 for plane in structure for constants in plane for c in constants if c)
    return table if size <= nonzero else None


def sparse_matrices(dim, density):
    entry = st.one_of(st.just(0), st.fractions(min_value=-2, max_value=2, max_denominator=2))
    return st.tuples(*[st.tuples(*[st.one_of(entry, st.just(0)) if density == "sparse"
                                   else entry.filter(bool) if density == "dense" else st.just(0)
                                   for _ in range(dim)]) for _ in range(dim)])


@st.composite
def fold_families(draw):
    """A family over a random, pointwise or cyclic group algebra of dimension 1-4, with a
    zero, sparse or dense operator for each index and a weight that may be zero."""
    dim = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["random", "pointwise", "group"]))
    if kind == "random":
        algebra = FiniteAlgebra(draw(st.tuples(*[sparse_matrices(dim, "sparse")] * dim)))
    else:
        algebra = pointwise_algebra(dim) if kind == "pointwise" else group_algebra_family(dim).algebra
    operators = {w: draw(sparse_matrices(dim, draw(st.sampled_from(["zero", "sparse", "dense"]))))
                 for w in SAMPLE}
    return RBFamily(algebra, draw(st.one_of(st.just(0), weights)), operators)


# on k[Z_d] a fold of P has d * nnz(P) terms, against nnz(P) + d^2: the budget exactly,
# and one term past it
@example(RBFamily(group_algebra_family(2).algebra, 0, {w: ((1, 2), (3, 4)) for w in SAMPLE}))
@example(RBFamily(group_algebra_family(3).algebra, 0, {w: ((1, 1, 0), (1, 0, 1), (1, 0, 0))
                                                       for w in SAMPLE}))
@given(fold_families())
@settings(max_examples=150, deadline=None)
def test_the_fold_decision_and_table_are_the_dense_rule(rb):
    """Each induced product folds its operator in exactly when the dense rule does, into
    the same table: prec_w through P_w + lambda id for eta and P_w for epsilon, succ_w
    through P_w, each at the index it belongs to."""
    structure, d, weight = rb.algebra.structure, rb.algebra.dim, rb.weight
    expected = [dense_fold(structure, tuple(tuple(c + shift * (r == j) for j, c in enumerate(row))
                                            for r, row in enumerate(m)), right)
                for shift, right in ((weight, True), (0, False), (0, True), (0, False))
                for m in rb.operators.values()]
    compiled = [product.args[0] if product.func is _walk else None
                for ops in (EtaOps(rb), EpsilonOps(rb)) for products in (ops._prec, ops._succ)
                for product in products.values() if isinstance(product, partial)]
    assert folded(rb) == [table is not None for table in expected]
    assert compiled == [table for table in expected if table is not None]
    dot = dense_fold(structure, tuple(tuple(weight * (r == j) for j in range(d))
                                      for r in range(d)), True)
    assert EpsilonOps(rb)._dot.args[0] == dot


def test_a_sparse_and_a_dense_index_are_decided_apart():
    """On k[Z_6], -lambda id at 0 folds into tables of 36 terms against a budget of 42;
    -lambda (projection onto the augmentation ideal) at 1 would give 216 against 72,
    and is applied first.  Each product still matches its dense formula."""
    weight = Fraction(1, 3)
    group = group_algebra_family(6, weight)
    rb = RBFamily(group.algebra, weight, {"0": scaled_identity_matrix(6, -weight),
                                          "1": group.operators["1"]})
    assert folded(rb) == [True, False] * 4
    structure, eta_ops, eps_ops = rb.algebra.structure, EtaOps(rb), EpsilonOps(rb)
    vectors = [rb.algebra.basis_vector(0), rb.algebra.basis_vector(5),
               tuple(Fraction(i % 4 - 1, 1 + i % 3) for i in range(6))]
    for x in vectors:
        for y in vectors:
            for w in SAMPLE:
                px, py = (dense_apply(rb.operators[w], v) for v in (x, y))
                shifted = tuple(a + weight * b for a, b in zip(py, y))
                for product, expected in (
                        (eta_ops.prec(x, y, w), dense_mul(structure, x, shifted)),
                        (eta_ops.succ(x, y, w), dense_mul(structure, px, y)),
                        (eps_ops.prec(x, y, w), dense_mul(structure, x, py)),
                        (eps_ops.succ(x, y, w), dense_mul(structure, px, y))):
                    assert product == expected
                    assert_exact(product)


def test_eta_and_epsilon_share_the_family_succ():
    rb = group_algebra_family(4)
    assert EtaOps(rb)._succ is EpsilonOps(rb)._succ is rb._succ
