"""The axiom tables against an independent statement of the axioms.

The reference below is the hand-written form the axioms had before the
tables, copied verbatim: the family and the classical residuals of both
families.  The tables must give the same residuals, value for value, on
operations objects where they are not zero: the dendriform and
tridendriform structures induced by operator families on k^d that are
perturbed away from Rota-Baxter ones (built directly, since ``eta`` and
``epsilon`` would reject them), and the same objects with the index
fixed for the classical axioms.  The tensor constructions satisfy the
classical axioms, so every residual there is zero and shows nothing.
"""

from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dendrifam import axioms
from dendrifam.rotabaxter import (EpsilonOps, EtaOps, RBFamily, cascading_sum_matrix,
                                  pointwise_algebra)
from dendrifam.semigroups import Semigroup
from dendrifam.tridendriform import gamma

import helpers

Z2 = Semigroup.cyclic(2)
SAMPLE = ["0", "1"]

# -- the reference, verbatim ---------------------------------------------------------

_MINUS_ONE = Fraction(-1)


def _sub(ops, a, b):
    return ops.add(a, ops.scale(_MINUS_ONE, b))




def dendriform_family_residuals(ops, x, y, z, alpha, beta, alphabeta):
    """Residuals of the three dendriform family axioms at (x, y, z, alpha, beta)."""
    r1 = _sub(ops,
              ops.prec(ops.prec(x, y, alpha), z, beta),
              ops.prec(x, ops.add(ops.prec(y, z, beta), ops.succ(y, z, alpha)), alphabeta))
    r2 = _sub(ops,
              ops.prec(ops.succ(x, y, alpha), z, beta),
              ops.succ(x, ops.prec(y, z, beta), alpha))
    r3 = _sub(ops,
              ops.succ(ops.add(ops.prec(x, y, beta), ops.succ(x, y, alpha)), z, alphabeta),
              ops.succ(x, ops.succ(y, z, beta), alpha))
    return r1, r2, r3


def tridendriform_family_residuals(ops, x, y, z, alpha, beta, alphabeta):
    """Residuals of the seven tridendriform family axioms."""
    r1 = _sub(ops,
              ops.prec(ops.prec(x, y, alpha), z, beta),
              ops.prec(x, ops.add(ops.add(ops.prec(y, z, beta), ops.succ(y, z, alpha)),
                                  ops.dot(y, z)), alphabeta))
    r2 = _sub(ops,
              ops.prec(ops.succ(x, y, alpha), z, beta),
              ops.succ(x, ops.prec(y, z, beta), alpha))
    r3 = _sub(ops,
              ops.succ(ops.add(ops.add(ops.prec(x, y, beta), ops.succ(x, y, alpha)),
                               ops.dot(x, y)), z, alphabeta),
              ops.succ(x, ops.succ(y, z, beta), alpha))
    r4 = _sub(ops, ops.dot(ops.succ(x, y, alpha), z), ops.succ(x, ops.dot(y, z), alpha))
    r5 = _sub(ops, ops.dot(ops.prec(x, y, alpha), z), ops.dot(x, ops.succ(y, z, alpha)))
    r6 = _sub(ops, ops.prec(ops.dot(x, y), z, alpha), ops.dot(x, ops.prec(y, z, alpha)))
    r7 = _sub(ops, ops.dot(ops.dot(x, y), z), ops.dot(x, ops.dot(y, z)))
    return r1, r2, r3, r4, r5, r6, r7


def classical_dendriform_residuals(ops, x, y, z):
    """Residuals of the three classical dendriform axioms (no family index)."""
    r1 = _sub(ops,
              ops.prec(ops.prec(x, y), z),
              ops.prec(x, ops.add(ops.prec(y, z), ops.succ(y, z))))
    r2 = _sub(ops, ops.prec(ops.succ(x, y), z), ops.succ(x, ops.prec(y, z)))
    r3 = _sub(ops,
              ops.succ(ops.add(ops.prec(x, y), ops.succ(x, y)), z),
              ops.succ(x, ops.succ(y, z)))
    return r1, r2, r3


def classical_tridendriform_residuals(ops, x, y, z):
    """Residuals of the seven classical tridendriform axioms."""
    star_xy = ops.add(ops.add(ops.prec(x, y), ops.succ(x, y)), ops.dot(x, y))
    star_yz = ops.add(ops.add(ops.prec(y, z), ops.succ(y, z)), ops.dot(y, z))
    r1 = _sub(ops, ops.prec(ops.prec(x, y), z), ops.prec(x, star_yz))
    r2 = _sub(ops, ops.prec(ops.succ(x, y), z), ops.succ(x, ops.prec(y, z)))
    r3 = _sub(ops, ops.succ(star_xy, z), ops.succ(x, ops.succ(y, z)))
    r4 = _sub(ops, ops.dot(ops.succ(x, y), z), ops.succ(x, ops.dot(y, z)))
    r5 = _sub(ops, ops.dot(ops.prec(x, y), z), ops.dot(x, ops.succ(y, z)))
    r6 = _sub(ops, ops.prec(ops.dot(x, y), z), ops.dot(x, ops.prec(y, z)))
    r7 = _sub(ops, ops.dot(ops.dot(x, y), z), ops.dot(x, ops.dot(y, z)))
    return r1, r2, r3, r4, r5, r6, r7


# -- operations objects with nonzero residuals -------------------------------------------

nonzero_rationals = st.sampled_from(
    sorted({Fraction(n, d) for n in range(-3, 4) if n for d in (1, 2, 3)}))


@st.composite
def families(draw):
    """A cascading-sum Rota-Baxter family on k^d, each operator perturbed in
    at least one entry."""
    dim = draw(st.integers(min_value=1, max_value=3))
    weight = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
    operators = {}
    for omega in SAMPLE:
        matrix = [list(row) for row in cascading_sum_matrix(dim, weight)]
        row, col = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        matrix[row][col] += draw(nonzero_rationals)
        operators[omega] = tuple(tuple(r) for r in matrix)
    return RBFamily(pointwise_algebra(dim), weight, operators)


def vectors(dim):
    return st.tuples(*[nonzero_rationals] * dim)


@st.composite
def instances(draw):
    rb = draw(families())
    x, y, z = (draw(vectors(rb.algebra.dim)) for _ in range(3))
    alpha, beta = draw(st.sampled_from(SAMPLE)), draw(st.sampled_from(SAMPLE))
    return rb, (x, y, z, alpha, beta, Z2.mul(alpha, beta))


class FixedIndex:
    """Classical operations: a family's products at one fixed index."""

    def __init__(self, ops, omega):
        self.ops, self.omega = ops, omega

    def prec(self, x, y):
        return self.ops.prec(x, y, self.omega)

    def succ(self, x, y):
        return self.ops.succ(x, y, self.omega)

    def dot(self, x, y):
        return self.ops.dot(x, y)

    def add(self, *values):
        return self.ops.add(*values)

    def scale(self, c, value):
        return self.ops.scale(c, value)

    def zero(self):
        return self.ops.zero()


def nonzero(ops, values):
    return any(v != ops.zero() for v in values)


def reference_first_counterexample(reference, ops, elements, index_triples):
    for x, y, z in product(elements, repeat=3):
        for alpha, beta, alphabeta in index_triples:
            found = reference(ops, x, y, z, alpha, beta, alphabeta)
            for number, residual in enumerate(found, start=1):
                if residual != ops.zero():
                    return number, (x, y, z, alpha, beta), residual
    return None


# -- the tables against the reference ----------------------------------------------------

def test_tables_are_numbered_in_order():
    assert [number for number, _, _ in axioms.DENDRIFORM] == [1, 2, 3]
    assert [number for number, _, _ in axioms.TRIDENDRIFORM] == list(range(1, 8))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_dendriform_family_residuals(case):
    rb, args = case
    for ops in (EtaOps(rb), gamma(EpsilonOps(rb))):
        expected = dendriform_family_residuals(ops, *args)
        assume(nonzero(ops, expected))
        assert axioms.residuals(axioms.DENDRIFORM, ops, *args) == expected
        assert axioms.dendriform_family_hold(ops, *args) is False


@settings(max_examples=40, deadline=None)
@given(instances())
def test_tridendriform_family_residuals(case):
    rb, args = case
    ops = EpsilonOps(rb)
    expected = tridendriform_family_residuals(ops, *args)
    assume(nonzero(ops, expected))
    assert axioms.residuals(axioms.TRIDENDRIFORM, ops, *args) == expected
    assert axioms.tridendriform_family_hold(ops, *args) is False


@settings(max_examples=40, deadline=None)
@given(instances())
def test_classical_residuals(case):
    rb, (x, y, z, alpha, _, _) = case
    dend = FixedIndex(EtaOps(rb), alpha)
    expected = classical_dendriform_residuals(dend, x, y, z)
    assume(nonzero(dend, expected))
    assert helpers.classical_dendriform_residuals(dend, x, y, z) == expected
    tri = FixedIndex(EpsilonOps(rb), alpha)
    expected = classical_tridendriform_residuals(tri, x, y, z)
    assume(nonzero(tri, expected))
    assert helpers.classical_tridendriform_residuals(tri, x, y, z) == expected


@settings(max_examples=25, deadline=None)
@given(families(), st.data())
def test_first_counterexample_reports_the_reference_axiom(rb, data):
    elements = [data.draw(vectors(rb.algebra.dim)) for _ in range(2)]
    triples = [(a, b, Z2.mul(a, b)) for a in SAMPLE for b in SAMPLE]
    for table, reference, ops in (
            (axioms.DENDRIFORM, dendriform_family_residuals, EtaOps(rb)),
            (axioms.TRIDENDRIFORM, tridendriform_family_residuals, EpsilonOps(rb))):
        expected = reference_first_counterexample(reference, ops, elements, triples)
        found = axioms.search(table, ops, product(elements, elements, elements, triples))
        if expected is None:
            assert found is None
            continue
        number, instance, residual = expected
        assert found["axiom"] == number
        assert (found["x"], found["y"], found["z"],
                found["alpha"], found["beta"]) == instance
        assert found["residual"] == residual
