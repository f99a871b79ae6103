from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifam.axioms import DENDRIFORM, TRIDENDRIFORM, search
from dendrifam.basis import LEAF, Alphabet, LinComb
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.errors import AxiomFailure, InvalidElement, LeafOperand
from dendrifam.pbtrees import enumerate_bin, single_vertex as bin_vertex
from dendrifam.rotabaxter import (EpsilonOps, EtaOps, FiniteAlgebra, RBFamily,
                                  TensorFamily, TensorRB, cascading_sum_matrix, epsilon,
                                  eta, parse_map_text, parse_rb_text,
                                  pointwise_algebra, rb_family_counterexample,
                                  tensor_rb, tensor_rb_counterexample)
from dendrifam.schroder import enumerate_sch, single_vertex as sch_vertex
from dendrifam.semigroups import Semigroup
from dendrifam.termio import parse_tree
from dendrifam.tridendriform import FreeTridendriformFamily, gamma

from helpers import (associativity_counterexample, classical_dendriform_residuals,
                     classical_tridendriform_residuals, mutated, scaled_identity_matrix,
                     validate_rb_family)

Z2 = Semigroup.cyclic(2)
SAMPLE = ["0", "1"]
ONE = Fraction(1)


def constant_family(dim, matrix, weight=ONE, sample=SAMPLE):
    return RBFamily(pointwise_algebra(dim), weight, {w: matrix for w in sample})


@pytest.fixture
def cascading():
    return constant_family(3, cascading_sum_matrix(3, ONE))


def basis(rb):
    return [rb.algebra.basis_vector(i) for i in range(rb.algebra.dim)]


def index_triples(sample=SAMPLE, semigroup=Z2):
    return [(a, b, semigroup.mul(a, b)) for a in sample for b in sample]


# -- the finite algebra ---------------------------------------------------------

def test_pointwise_algebra_is_associative():
    pointwise_algebra(3).validate()


def test_associativity_counterexample_detected():
    # e0*e0 = e1, everything else zero, then (e0 e0) e0 = e1 e0 = 0 but ...
    zero, one = Fraction(0), Fraction(1)
    structure = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    structure[0][0][1] = one
    structure[1][0][0] = one  # e1*e0 = e0, so (e0e0)e0 = e0, e0(e0e0) = 0
    alg = FiniteAlgebra(tuple(tuple(tuple(row) for row in plane)
                              for plane in structure))
    assert alg.associativity_counterexample() is not None
    with pytest.raises(AxiomFailure):
        alg.validate()


@pytest.mark.parametrize("structure, first", [
    # e0 e1 = 0 but e1 e2 = e0: (e0 e1) e2 = 0, e0 (e1 e2) = e0
    ({(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1, (1, 2, 0): 1}, (0, 1, 2)),
    # only e2 e2 = e1 and e1 e2 = e1: (e1 e2) e2 = e1, e1 (e2 e2) = e1 e1 = 0
    ({(2, 2, 1): 1, (1, 2, 1): 1}, (1, 2, 2)),
    # upper triangular 2x2 matrices, E11, E12, E22: associative, not commutative
    ({(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1}, None),
    # k^2 in the basis e0, e0 - e1 (and a null e2): (f1 f1) f1 = (2 f0 - f1) f1 = f1,
    # where the terms 2 f0 and -2 f0 cancel
    ({(0, 0, 0): 1, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 0): 2, (1, 1, 1): -1}, None),
])
def test_associativity_counterexample_is_the_least_failing_triple(structure, first):
    alg = FiniteAlgebra(tuple(tuple(tuple(structure.get((i, j, k), 0) for k in range(3))
                                    for j in range(3)) for i in range(3)))
    assert alg.associativity_counterexample() == associativity_counterexample(alg) == first


ENTRIES = (-1, Fraction(1, 2), 1)


@st.composite
def sparse_algebras(draw):
    """Structure constants in {-1, 0, 1/2, 1} in dimension at most 5, zero with a drawn
    odds, so that the first failing triple is often not (0, 0, 0) and some algebras are
    associative."""
    d, zeros = draw(st.integers(1, 5)), draw(st.integers(0, 40))
    entry = st.sampled_from((0,) * zeros + ENTRIES)
    return FiniteAlgebra(draw(st.tuples(*[st.tuples(*[st.tuples(*[entry] * d)] * d)] * d)))


@given(sparse_algebras())
@settings(max_examples=300, deadline=None)
def test_associativity_check_matches_the_triple_loop(alg):
    # the sparse contractions report the triple the dense loop meets first
    assert alg.associativity_counterexample() == associativity_counterexample(alg)


def test_vector_product():
    alg = pointwise_algebra(2)
    assert alg.mul((ONE, ONE), (ONE, -ONE)) == (ONE, -ONE)


# -- the family identity -----------------------------------------------------------

def test_constant_negative_identity_family_is_rb():
    rb = constant_family(3, scaled_identity_matrix(3, -ONE))
    assert rb_family_counterexample(rb, Z2, SAMPLE) is None


def test_zero_family_is_rb():
    rb = constant_family(3, scaled_identity_matrix(3, Fraction(0)))
    assert rb_family_counterexample(rb, Z2, SAMPLE) is None


def test_cascading_sum_family_is_rb(cascading):
    assert rb_family_counterexample(cascading, Z2, SAMPLE) is None
    validate_rb_family(cascading, Z2, SAMPLE)


@pytest.mark.parametrize("row,col", [(0, 0), (1, 2), (2, 0)])
def test_one_entry_mutations_are_rejected(cascading, row, col):
    mutant = mutated(cascading, "0", row, col, ONE)
    failure = rb_family_counterexample(mutant, Z2, SAMPLE)
    assert failure is not None
    with pytest.raises(AxiomFailure):
        validate_rb_family(mutant, Z2, SAMPLE)


@pytest.mark.parametrize("check,name", [(validate_rb_family, "Rota-Baxter family"),
                                        (tensor_rb, "tensor Rota-Baxter")])
def test_identity_failure_text(cascading, check, name):
    mutant = mutated(cascading, "0", 0, 1, ONE)
    with pytest.raises(AxiomFailure) as failure:
        check(mutant, Z2, SAMPLE)
    assert str(failure.value) == f"{name} identity fails at alpha=0 beta=0 (e_0, e_1)"
    assert {k: failure.value.counterexample[k] for k in ("alpha", "beta", "i", "j")} == \
        {"alpha": "0", "beta": "0", "i": 0, "j": 1}


@pytest.mark.parametrize("check", [rb_family_counterexample, tensor_rb_counterexample])
@pytest.mark.parametrize("late", ["2", "7"])
def test_first_failure_precedes_a_bad_later_sample_element(cascading, check, late):
    # the first failing instance is returned before a later sample element
    # without an operator ("2" in Z3) or outside the semigroup ("7") is reached
    mutant = mutated(cascading, "0", 0, 1, ONE)
    semigroup = Semigroup.cyclic(3)
    failure = check(mutant, semigroup, ["0", late])
    assert {k: failure[k] for k in ("alpha", "beta", "i", "j")} == \
        {"alpha": "0", "beta": "0", "i": 0, "j": 1}
    with pytest.raises(InvalidElement):
        check(cascading, semigroup, ["0", late])


def test_operator_of_the_wrong_size_is_rejected():
    with pytest.raises(InvalidElement):
        RBFamily(pointwise_algebra(2), ONE, {"0": cascading_sum_matrix(3, ONE)})
    with pytest.raises(InvalidElement):
        RBFamily(pointwise_algebra(2), ONE, {"0": ((ONE, ONE), (ONE,))})


@pytest.mark.parametrize("structure", [
    (((1, 0), (0, 0)), ((0, 0),)),
    (((1, 0), (0, 0)), ((0, 0), (0, 1, 0))),
    (((1,),), ((1,),)),
])
def test_structure_constants_of_the_wrong_shape_are_rejected(structure):
    with pytest.raises(InvalidElement):
        FiniteAlgebra(structure)


def test_missing_operator_is_an_error(cascading):
    with pytest.raises(InvalidElement):
        cascading.apply("2", cascading.algebra.basis_vector(0))


K3_XY = Alphabet(["x", "y"])
INDUCED_PRODUCTS = [(eta, "prec"), (eta, "succ"),
                    (EpsilonOps, "prec"), (EpsilonOps, "succ"), (EpsilonOps, "dot")]


def induced_product(ops, name, operands, rb, index="0"):
    """The product ``name`` of ``ops(rb)`` on ``operands``, at ``index``
    unless it is the unindexed dot."""
    return getattr(ops(rb), name)(*operands, *(() if name == "dot" else (index,)))


@pytest.mark.parametrize("call", [
    # a short image reaches the operator, or is the whole value
    lambda rb: FreeDendriformFamily(K3_XY, Z2).extend(
        {"x": (1, 2), "y": (1, 1, 1)}, eta(rb),
        parse_tree("B[y;0:B[x;1:|,1:|],1:|]", "binary", K3_XY, Z2)),
    lambda rb: FreeDendriformFamily(K3_XY, Z2).extend(
        {"x": (1, 2), "y": (1, 1, 1)}, eta(rb), parse_tree("B[x;1:|,1:|]", "binary", K3_XY, Z2)),
    lambda rb: rb.algebra.mul((1, 2), (1, 1, 1)),
    lambda rb: rb.apply("0", (5,)),
    lambda rb: FreeDendriformFamily(K3_XY, Z2).extend(
        {"x": (1, 2, 3, 4), "y": (1, 1, 1)}, eta(rb),
        parse_tree("B[y;0:B[x;1:|,1:|],1:|]", "binary", K3_XY, Z2)),
    lambda rb: eta(rb).add((1, 1, 1), (1, 1)),
    lambda rb: eta(rb).scale(2, (1, 1, 1, 1)),
    # each operand of each induced product, of an unvalidated structure too
    *[partial(induced_product, ops, name, operands) for ops, name in INDUCED_PRODUCTS
      for operands in (((1, 2), (1, 1, 1)), ((1, 1, 1), (1, 2, 3, 4)))],
], ids=["extend-short-operand", "extend-short-value", "mul", "apply", "extend-long-image",
        "add", "scale"] + [f"{ops.__name__}-{name}-{side}"
                           for ops, name in INDUCED_PRODUCTS for side in ("x", "y")])
def test_vectors_of_the_wrong_length_are_rejected(cascading, call):
    with pytest.raises(InvalidElement, match="dimension 3"):
        call(cascading)


@pytest.mark.parametrize("ops, name", INDUCED_PRODUCTS[:4],
                         ids=[f"{ops.__name__}-{name}" for ops, name in INDUCED_PRODUCTS[:4]])
def test_induced_products_reject_an_undeclared_index(cascading, ops, name):
    operands = (cascading.algebra.basis_vector(0), cascading.algebra.basis_vector(2))
    with pytest.raises(InvalidElement, match="no operator declared for index '2'"):
        induced_product(ops, name, operands, cascading, index="2")


# -- the induced dendriform structure ----------------------------------------------

def test_eta_weight_zero_identity_operator_gives_algebra_product():
    rb = constant_family(2, scaled_identity_matrix(2, ONE), weight=Fraction(0))
    ops = eta(rb)
    x, y = rb.algebra.basis_vector(0), (ONE, ONE)
    assert ops.prec(x, y, "0") == rb.algebra.mul(x, y)
    assert ops.succ(x, y, "0") == rb.algebra.mul(x, y)


def test_eta_constant_negative_identity_degenerates():
    rb = constant_family(2, scaled_identity_matrix(2, -ONE))
    ops = eta(rb)
    for x, y in product(basis(rb), repeat=2):
        assert ops.prec(x, y, "0") == rb.algebra.zero()


def test_eta_satisfies_dendriform_axioms(cascading):
    ops = eta(cascading)
    elements = basis(cascading)
    assert search(DENDRIFORM, ops, product(elements, elements, elements, index_triples())) is None


# -- the induced tridendriform structure ----------------------------------------------

def test_epsilon_weight_zero_kills_dot():
    # the zero family is Rota-Baxter of weight 0; its middle product vanishes
    rb = constant_family(2, scaled_identity_matrix(2, Fraction(0)),
                         weight=Fraction(0))
    ops = epsilon(rb, Z2, SAMPLE)
    x, y = basis(rb)[0], (ONE, ONE)
    assert ops.dot(x, y) == rb.algebra.zero()


def test_epsilon_validates_seven_axioms(cascading):
    ops = epsilon(cascading, Z2, SAMPLE)
    elements = basis(cascading)
    assert search(TRIDENDRIFORM, ops,
                  product(elements, elements, elements, index_triples())) is None


def test_epsilon_rejects_non_rb_family(cascading):
    mutant = mutated(cascading, "0", 0, 1, ONE)
    with pytest.raises(AxiomFailure):
        epsilon(mutant, Z2, SAMPLE)


def test_gamma_epsilon_equals_eta(cascading):
    through = gamma(EpsilonOps(cascading))
    direct = EtaOps(cascading)
    for x, y in product(basis(cascading), repeat=2):
        for w in SAMPLE:
            assert through.prec(x, y, w) == direct.prec(x, y, w)
            assert through.succ(x, y, w) == direct.succ(x, y, w)


# -- the theorem the induced structures rest on ---------------------------------------------

WEIGHTS = (ONE, -ONE, Fraction(1, 2), Fraction(-2, 3), Fraction(3))
# matrix units E_rc spanning upper triangular 2x2 matrices, and all of M_2
T2 = ((0, 0), (0, 1), (1, 1))
M2 = ((0, 0), (0, 1), (1, 0), (1, 1))


def group_algebra(d):
    """k[Z_d], e_i e_j = e_{i+j mod d}."""
    return FiniteAlgebra(tuple(tuple(tuple(int(k == (i + j) % d) for k in range(d))
                                     for j in range(d)) for i in range(d)))


def matrix_unit_algebra(units):
    """The span of the matrix units ``units``, closed under E_ab E_ce = [b = c] E_ae."""
    return FiniteAlgebra(tuple(tuple(tuple(int(b == c and unit == (a, e)) for unit in units)
                                     for c, e in units) for a, b in units))


def projection(d, onto, c):
    """c times the projection of k^d onto the span of the basis vectors ``onto``
    along the span of the others."""
    return tuple(tuple(c if r == col and r in onto else 0 for col in range(d)) for r in range(d))


@st.composite
def known_families(draw):
    """A constant Rota-Baxter family of weight lambda over an algebra of dimension at most
    4, from a known construction: cascading sums on k^d; -lambda id; or -lambda times the
    projection of a direct sum of two subalgebras onto one of them, basis vectors of k^d,
    of the upper triangular or of all 2x2 matrices, or the augmentation ideal of k[Z_d] and
    the line of its idempotent."""
    weight, d = draw(st.sampled_from(WEIGHTS)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["cascading", "identity", "split", "augmentation"]))
    if kind == "cascading":
        algebra, matrix = pointwise_algebra(d), cascading_sum_matrix(d, weight)
    elif kind == "identity":
        algebra = draw(st.sampled_from([pointwise_algebra(d), group_algebra(d),
                                        matrix_unit_algebra(T2), matrix_unit_algebra(M2)]))
        matrix = scaled_identity_matrix(algebra.dim, -weight)
    elif kind == "split":
        # any set of basis vectors of k^d or of T2 spans a subalgebra, and so do the others;
        # M2 is the upper triangular matrices plus E_10, or the lower ones plus E_01
        algebra, onto = draw(st.sampled_from([
            (pointwise_algebra(d), st.sets(st.integers(0, d - 1))),
            (matrix_unit_algebra(T2), st.sets(st.integers(0, 2))),
            (matrix_unit_algebra(M2), st.sampled_from([{0, 1, 3}, {2}, {0, 2, 3}, {1}]))]))
        matrix = projection(algebra.dim, draw(onto), -weight)
    else:
        # onto the augmentation ideal along the idempotent's line, or the other way
        algebra, ideal = group_algebra(d), draw(st.booleans())
        matrix = tuple(tuple(-weight * (int(r == c) - Fraction(1, d) if ideal else Fraction(1, d))
                             for c in range(d)) for r in range(d))
    return RBFamily(algebra, weight, {w: matrix for w in SAMPLE})


@given(known_families())
@settings(max_examples=60, deadline=None)
def test_induced_structures_satisfy_the_theorem(rb):
    """A Rota-Baxter family of weight lambda on an associative algebra induces a dendriform
    family eta and a tridendriform family epsilon, with gamma . epsilon = eta: every axiom
    on every triple of basis vectors over the sampled index pairs."""
    assert rb.algebra.associativity_counterexample() is None
    assert rb_family_counterexample(rb, Z2, SAMPLE) is None
    elements = basis(rb)
    instances = list(product(elements, elements, elements, index_triples()))
    assert search(DENDRIFORM, EtaOps(rb), instances) is None
    tri = epsilon(rb, Z2, SAMPLE)
    assert search(TRIDENDRIFORM, tri, instances) is None
    through, direct = gamma(tri), EtaOps(rb)
    for x, y in product(elements, repeat=2):
        for w in SAMPLE:
            assert through.prec(x, y, w) == direct.prec(x, y, w)
            assert through.succ(x, y, w) == direct.succ(x, y, w)


# -- the tensor constructions ------------------------------------------------------------

def test_tensor_rb_one_dimensional_negative_identity():
    rb = constant_family(1, scaled_identity_matrix(1, -ONE))
    assert tensor_rb_counterexample(rb, Z2, SAMPLE) is None
    op = tensor_rb(rb, Z2, SAMPLE)
    u = op.element(0, "1")
    assert op.apply(u) == op.scale(-ONE, u)


def test_tensor_rb_zero_family():
    rb = constant_family(2, scaled_identity_matrix(2, Fraction(0)))
    assert tensor_rb_counterexample(rb, Z2, SAMPLE) is None


def test_tensor_rb_cascading_free_semigroup_truncation():
    free = Semigroup.free(["a"])
    words = ["a", "aa", "aaa", "aaaa"]
    rb = RBFamily(pointwise_algebra(2), ONE,
                  {w: cascading_sum_matrix(2, ONE) for w in words})
    assert tensor_rb_counterexample(rb, free, ["a", "aa"]) is None


def test_induced_structures_on_a_group_algebra():
    # k[Z_3], e_i e_j = e_{i+j mod 3}: every basis pair multiplies to a nonzero
    # vector.  Minus lambda times the projection onto the augmentation ideal
    # (along the idempotent (e_0 + e_1 + e_2)/3) is a Rota-Baxter operator of
    # weight lambda with no zero entry.
    d, weight = 3, Fraction(1, 3)
    structure = tuple(tuple(tuple(int(k == (i + j) % d) for k in range(d)) for j in range(d))
                      for i in range(d))
    projection = tuple(tuple(-weight * (int(r == c) - Fraction(1, d)) for c in range(d))
                       for r in range(d))
    rb = RBFamily(FiniteAlgebra(structure), weight, {w: projection for w in SAMPLE})
    rb.algebra.validate()
    assert rb_family_counterexample(rb, Z2, SAMPLE) is None
    elements = basis(rb)
    instances = list(product(elements, elements, elements, index_triples()))
    assert search(DENDRIFORM, eta(rb), instances) is None
    assert search(TRIDENDRIFORM, epsilon(rb, Z2, SAMPLE), instances) is None
    op = tensor_rb(rb, Z2, SAMPLE)
    for (i, a), (j, b) in product(product(range(d), SAMPLE), repeat=2):
        assert op.mul(op.element(i, a), op.element(j, b)) == op.element((i + j) % d, Z2.mul(a, b))


def test_tensor_rb_flags_broken_family(cascading):
    mutant = mutated(cascading, "1", 2, 2, ONE)
    with pytest.raises(AxiomFailure):
        tensor_rb(mutant, Z2, SAMPLE)


def test_tensor_dendriform_definition():
    X2 = Alphabet(["x", "y"])
    family = FreeDendriformFamily(X2, Z2)
    tensor = TensorFamily(family)
    x = tensor.element(bin_vertex("x"), "0")
    y = tensor.element(bin_vertex("y"), "1")
    result = tensor.prec(x, y)
    inner = family.prec(bin_vertex("x"), bin_vertex("y"), "1")
    assert result.terms == tuple((c, (t, "1")) for c, t in inner.terms)
    assert tensor.dot(x, y) == tensor.zero()  # zero middle product


def test_tensor_dendriform_classical_axioms():
    X2 = Alphabet(["x", "y"])
    family = FreeDendriformFamily(X2, Z2)
    tensor = TensorFamily(family)
    elements = [tensor.element(t, w)
                for t in enumerate_bin(1, X2, Z2) for w in SAMPLE]
    zero = tensor.zero()
    for x, y, z in product(elements, repeat=3):
        for r in classical_dendriform_residuals(tensor, x, y, z):
            assert r == zero


def test_tensor_tridendriform_classical_axioms():
    X2 = Alphabet(["x", "y"])
    family = FreeTridendriformFamily(X2, Z2)
    tensor = TensorFamily(family)
    elements = [tensor.element(t, w)
                for t in enumerate_sch(1, X2, Z2) for w in SAMPLE]
    zero = tensor.zero()
    for x, y, z in product(elements, repeat=3):
        for r in classical_tridendriform_residuals(tensor, x, y, z):
            assert r == zero


def test_tensor_star_products_are_associative():
    # summing the split operations yields an associative product
    X2 = Alphabet(["x", "y"])
    dend = TensorFamily(FreeDendriformFamily(X2, Z2))
    delements = [dend.element(t, w)
                 for t in enumerate_bin(1, X2, Z2) for w in SAMPLE]

    def dstar(u, v):
        return dend.add(dend.prec(u, v), dend.succ(u, v))

    for x, y, z in product(delements, repeat=3):
        assert dstar(dstar(x, y), z) == dstar(x, dstar(y, z))

    tri = TensorFamily(FreeTridendriformFamily(X2, Z2))
    telements = [tri.element(t, w)
                 for t in enumerate_sch(1, X2, Z2) for w in SAMPLE]

    def tstar(u, v):
        return tri.add(tri.prec(u, v), tri.succ(u, v), tri.dot(u, v))

    for x, y, z in product(telements, repeat=3):
        assert tstar(tstar(x, y), z) == tstar(x, tstar(y, z))


@pytest.mark.parametrize("family,tree,error", [
    (FreeDendriformFamily, LEAF, LeafOperand),
    (FreeDendriformFamily, sch_vertex("x"), TypeError),
    (FreeTridendriformFamily, LEAF, LeafOperand),
    (FreeTridendriformFamily, bin_vertex("x"), TypeError),
], ids=["dend-leaf", "dend-schroder", "tri-leaf", "tri-binary"])
def test_tensor_family_element_rejects_non_basis_trees(family, tree, error):
    # the leaf was read as a unit by succ and broke prec; a tree of the other
    # kind died in a product with an AttributeError
    tensor = TensorFamily(family(Alphabet(["x"]), Z2))
    with pytest.raises(error):
        tensor.element(tree, "0")


@pytest.mark.parametrize("family,vertex,other,other_vertex", [
    (FreeDendriformFamily, bin_vertex, FreeTridendriformFamily, sch_vertex),
    (FreeTridendriformFamily, sch_vertex, FreeDendriformFamily, bin_vertex),
], ids=["dend", "tri"])
def test_tensor_family_products_refuse_foreign_operands_at_the_call(
        family, vertex, other, other_vertex):
    # a span of family trees raised a bare TypeError from unpacking, a span of
    # the other tensor kind and an int an AttributeError from the kernel, and
    # the dendriform dot, whose kernel is empty, accepted all three
    X = Alphabet(["x"])
    alg = family(X, Z2)
    tensor, other_tensor = TensorFamily(alg), TensorFamily(other(X, Z2))
    e = tensor.element(vertex("x"), "0")
    node = alg.node_type.__name__
    spans = [alg.gen("x"), other_tensor.element(other_vertex("x"), "0"),
             LinComb({(vertex("x"), "2"): 1}), LinComb({(vertex("x"), "0"): 1, 0: 1})]
    for bad in spans + [3, vertex("x"), LEAF]:
        message = rf"^not a span of \({node}, element\) pairs: a {type(bad).__name__}$"
        for op in (tensor.prec, tensor.succ, tensor.dot):
            for args in ((bad, e), (e, bad)):
                with pytest.raises(TypeError, match=message):
                    op(*args)
        if isinstance(bad, LinComb):
            with pytest.raises(TypeError, match=message):
                tensor.add(e, bad)
    # a span of this kind but another order passes, once its terms are read
    same = TensorFamily(family(X, Z2)).element(vertex("x"), "1")
    assert tensor.add(same, e) == tensor.add(tensor.element(vertex("x"), "1"), e)
    assert tensor.succ(same, e).terms == tensor.succ(tensor.element(vertex("x"), "1"), e).terms


@pytest.mark.parametrize("index", [-1, 3, 7, "0"])
def test_tensor_rb_element_rejects_index_outside_the_basis(cascading, index):
    # an index past the dimension was silently read as zero by mul and apply
    op = tensor_rb(cascading, Z2, SAMPLE)
    with pytest.raises(InvalidElement):
        op.element(index, "0")


def test_tensor_rb_element_names_an_ordinary_index_and_rejects_a_huge_one(cascading):
    op = TensorRB(constant_family(5, cascading_sum_matrix(5, ONE)), Z2)
    with pytest.raises(InvalidElement, match="^no basis element e_7 in dimension 5$"):
        op.element(7, "0")
    # an index past the int-to-str limit used to raise ValueError
    for index in (10**5000, -10**5000):
        with pytest.raises(InvalidElement, match="in dimension 5"):
            op.element(index, "0")


def test_tensor_rb_refuses_foreign_operands_at_the_call(cascading):
    # an index of -1 wrapped to the last row in mul and vanished in apply,
    # an index of 3 raised a bare IndexError and an int an AttributeError
    op = TensorRB(cascading, Z2)
    e = op.element(2, "1")
    tree_tensor = TensorFamily(FreeDendriformFamily(Alphabet(["x"]), Z2))
    spans = [LinComb({(-1, "0"): 1}), LinComb({(3, "0"): 1}), LinComb({(True, "0"): 1}),
             LinComb({("0", "0"): 1}), LinComb({(0, "2"): 1}), LinComb({(0, "0", 1): 1}),
             LinComb({(0, "0"): 1, 0: 1}), tree_tensor.element(bin_vertex("x"), "0")]
    for bad in spans + [3, (0, "0"), None]:
        message = rf"^not a span of \(basis index, element\) pairs: a {type(bad).__name__}$"
        calls = [lambda: op.mul(bad, e), lambda: op.mul(e, bad), lambda: op.apply(bad),
                 lambda: op.add(e, bad), lambda: op.add(bad), lambda: op.scale(2, bad)]
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call()
    # a span of this kind but another order passes, once its terms are read
    same = TensorRB(cascading, Z2).element(0, "1")
    assert op.mul(same, e) == op.mul(op.element(0, "1"), e)
    assert op.apply(same).terms == op.apply(op.element(0, "1")).terms
    assert op.add(same, e) == op.add(op.element(0, "1"), e)


def test_tensor_elements_require_a_semigroup_element(cascading):
    with pytest.raises(InvalidElement):
        tensor_rb(cascading, Z2, SAMPLE).element(0, "2")
    with pytest.raises(InvalidElement):
        TensorFamily(FreeDendriformFamily(Alphabet(["x"]), Z2)).element(bin_vertex("x"), "2")


# -- the definition file format --------------------------------------------------------------

RB_TEXT = """\
dim=2
# pointwise product
sc 0 0 0 1
sc 1 1 1 1
op 0 -1 0 -1 -1
op 1 -1 0 -1 -1
"""


def test_parse_rb_text():
    algebra, operators = parse_rb_text(RB_TEXT)
    assert algebra.dim == 2
    algebra.validate()
    assert operators["0"] == ((-ONE, Fraction(0)), (-ONE, -ONE))
    rb = RBFamily(algebra, ONE, operators)
    assert rb_family_counterexample(rb, Z2, SAMPLE) is None


@pytest.mark.parametrize("text", [
    "",
    "sc 0 0 0 1\n",
    "dim=0\n",
    "dim=2\nsc 0 0 5 1\n",
    "dim=2\nop 0 1 2 3\n",
    "dim=2\nbogus line\n",
    "dim=3\nop 0 1 0 0 0 1 0 0 0 1\ndim=2\n",
    "dim=1\nsc 0 0 0 1\nop 0 5\nop 0 -1\n",
    "dim=1\nsc 0 0 0 1\nsc 0 0 0 2\n",
    "dim=1\nop\n",
    "dim=2\nsc 0 0 0 1\nsc 1 1 1 1\n",  # no operators: nothing to check
])
def test_parse_rb_rejects(text):
    with pytest.raises((InvalidElement, ValueError)):
        parse_rb_text(text)


def test_parse_map_text():
    assert parse_map_text("x 0\ny 2\n", 3) == {"x": 0, "y": 2}
    assert parse_map_text("x 0  # first\n  # none\ny 2\n", 3) == {"x": 0, "y": 2}
    with pytest.raises(InvalidElement):
        parse_map_text("x 5\n", 3)
    with pytest.raises(InvalidElement):
        parse_map_text("", 3)
    with pytest.raises(InvalidElement, match="only once"):
        parse_map_text("x 0\ny 1\nx 2\n", 3)
