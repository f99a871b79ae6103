"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line on success (visible with -s or -rP);
timed criteria assert their wall-clock budget.
"""

import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from dendrifam.basis import LEAF, Alphabet
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.errors import ArityMismatch, TermSyntaxError, TypingViolation
from dendrifam.exprs import evaluate
from dendrifam.pbtrees import enumerate_bin, graft_binary
from dendrifam.pbtrees import single_vertex as bin_vertex
from dendrifam.rotabaxter import (EpsilonOps, EtaOps, RBFamily, TensorFamily,
                                  cascading_sum_matrix, epsilon, eta,
                                  pointwise_algebra, rb_family_counterexample,
                                  tensor_rb_counterexample)
from dendrifam.schroder import enumerate_sch, intern_node
from dendrifam.schroder import single_vertex as sch_vertex
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.termio import parse_span, parse_tree, print_span
from dendrifam.tridendriform import FreeTridendriformFamily, gamma

from helpers import (classical_dendriform_residuals, classical_tridendriform_residuals,
                     decoration_count, leaves, mutated, scaled_identity_matrix,
                     validate_dendriform_ops)
from untyped_free import (b_span_prec, b_span_succ, t_dot, t_prec, t_span_op,
                          t_succ)

X1 = Alphabet(["x"])
X2 = Alphabet(["x", "y"])
TRIVIAL = Semigroup.trivial()
Z2 = Semigroup.cyclic(2)
Z2_PAIRS = [(a, b) for a in "01" for b in "01"]
ONE = Fraction(1)


def _report(number, detail):
    print(f"ACCEPTANCE criterion {number}: PASS ({detail})")


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# -- criterion 1: the displayed computations reproduce term-for-term -------------

def test_criterion_1_golden_examples():
    X = Alphabet(["x", "y", "z", "u"])
    S = Semigroup.free(["a", "b", "w"])
    dend = FreeDendriformFamily(X, S)
    sx, sy = bin_vertex("x"), bin_vertex("y")
    deep = graft_binary(bin_vertex("z"), "x", "a", "b", bin_vertex("u"))
    binary_cases = [
        (dend.prec(sx, sy, "w"), "1*B[x;1:|,w:B[y;1:|,1:|]]"),
        (dend.succ(sx, sy, "w"), "1*B[y;w:B[x;1:|,1:|],1:|]"),
        (dend.prec(deep, sy, "w"),
         "1*B[x;a:B[z;1:|,1:|],bw:B[y;b:B[u;1:|,1:|],1:|]]"
         " + 1*B[x;a:B[z;1:|,1:|],bw:B[u;1:|,w:B[y;1:|,1:|]]]"),
        (dend.succ(deep, sy, "w"),
         "1*B[y;w:B[x;a:B[z;1:|,1:|],b:B[u;1:|,1:|]],1:|]"),
    ]
    for result, expected in binary_cases:
        assert print_span(result) == expected
        assert result == parse_span(expected, "binary", X, S)

    X3 = Alphabet(["x", "y", "z"])
    S3 = Semigroup.free(["a", "b"])
    tri = FreeTridendriformFamily(X3, S3)
    tx, ty, tz = sch_vertex("x"), sch_vertex("y"), sch_vertex("z")
    tdeep = intern_node(("x",), (("a", ty), (IDENTITY, LEAF)))
    schroder_cases = [
        (tri.prec(tx, ty, "a"), "1*S[x;1:|,a:S[y;1:|,1:|]]"),
        (tri.succ(tx, ty, "a"), "1*S[y;a:S[x;1:|,1:|],1:|]"),
        (tri.dot(tx, ty), "1*S[x,y;1:|,1:|,1:|]"),
        (tri.succ(tdeep, tz, "b"), "1*S[z;b:S[x;a:S[y;1:|,1:|],1:|],1:|]"),
        (tri.prec(tdeep, tz, "b"), "1*S[x;a:S[y;1:|,1:|],b:S[z;1:|,1:|]]"),
        (tri.dot(tz, tdeep), "1*S[z,x;1:|,a:S[y;1:|,1:|],1:|]"),
    ]
    for result, expected in schroder_cases:
        assert print_span(result) == expected
        assert result == parse_span(expected, "schroder", X3, S3)
    _report(1, "10 displayed products reproduced exactly")


# -- criterion 2: dendriform axiom sweep ------------------------------------------

def test_criterion_2_dendriform_axiom_sweep():
    start = time.monotonic()
    algebra = FreeDendriformFamily(X2, Z2)
    trees = enumerate_bin(1, X2, Z2) + enumerate_bin(2, X2, Z2)
    assert len(trees) == 18
    instances = 0
    for t in trees:
        for u in trees:
            for w in trees:
                for alpha, beta in Z2_PAIRS:
                    instances += 1
                    assert algebra.axioms_hold(t, u, w, alpha, beta)
    elapsed = time.monotonic() - start
    assert instances == 18 ** 3 * 4
    assert elapsed < 60.0
    _report(2, f"{instances} instances, exact zero residuals, {elapsed:.1f}s")


# -- criterion 3: tridendriform axiom sweep -----------------------------------------

def test_criterion_3_tridendriform_axiom_sweep():
    start = time.monotonic()
    algebra = FreeTridendriformFamily(X2, Z2)
    small = enumerate_sch(1, X2, Z2)
    instances = 0
    for t in small:
        for u in small:
            for w in small:
                for alpha, beta in Z2_PAIRS:
                    instances += 1
                    residuals = algebra.axiom_residuals(t, u, w, alpha, beta)
                    assert len(residuals) == 7
                    assert all(r.is_zero() for r in residuals)
    classical = FreeTridendriformFamily(X1, TRIVIAL)
    trees = enumerate_sch(1, X1, TRIVIAL) + enumerate_sch(2, X1, TRIVIAL)
    assert len(trees) == 4
    for t in trees:
        for u in trees:
            for w in trees:
                instances += 1
                assert classical.axioms_hold(t, u, w, "0", "0")
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(3, f"{instances} instances over both configurations, {elapsed:.1f}s")


# -- criterion 4: counting oracles -----------------------------------------------------

def _schroder_shape_count(n, x_size, omega_size):
    def shapes(m):
        if m == 0:
            return [None]
        out = []
        for k in range(1, m + 1):
            splits = [[]]
            for _ in range(k + 1):
                splits = [s + [q] for s in splits for q in range(m - k + 1)]
            for split in splits:
                if sum(split) != m - k:
                    continue
                for kids in product(*[shapes(q) for q in split]):
                    out.append(tuple(kids))
        return out

    def vertices(shape):
        if shape is None:
            return 0
        return 1 + sum(vertices(child) for child in shape)

    return sum(x_size ** n * omega_size ** (vertices(s) - 1) for s in shapes(n))


def test_criterion_4_counting_oracles():
    for alphabet, semigroup in [(X1, TRIVIAL), (X2, Z2)]:
        x, o = len(alphabet), len(semigroup.elements())
        for n in range(1, 6):
            trees = enumerate_bin(n, alphabet, semigroup)
            assert len(trees) == catalan(n) * x ** n * o ** (n - 1)
            assert len(set(trees)) == len(trees)
        for n in range(1, 5):
            strees = enumerate_sch(n, alphabet, semigroup)
            assert len(strees) == _schroder_shape_count(n, x, o)
            assert len(set(strees)) == len(strees)
            for t in strees:
                assert decoration_count(t) == n
                assert leaves(t) == n + 1
    _report(4, "binary counts match the closed form for n<=5; "
               "Schröder counts match the shape oracle for n<=4")


# -- criterion 5: classical specialization ------------------------------------------------

def _strip_binary(t):
    if t is LEAF:
        return None
    return (t.dec, _strip_binary(t.left), _strip_binary(t.right))


def _strip_schroder(t):
    if t is LEAF:
        return None
    return (t.decs, tuple(_strip_schroder(child) for _, child in t.children))


def test_criterion_5_classical_specialization():
    pairs_checked = 0
    dend = FreeDendriformFamily(X2, TRIVIAL)
    btrees = enumerate_bin(1, X2, TRIVIAL) + enumerate_bin(2, X2, TRIVIAL)
    for t, u in product(btrees, repeat=2):
        st = {_strip_binary(t): ONE}
        su = {_strip_binary(u): ONE}
        assert {_strip_binary(s): c for c, s in dend.prec(t, u, "0").terms} == \
            b_span_prec(st, su)
        assert {_strip_binary(s): c for c, s in dend.succ(t, u, "0").terms} == \
            b_span_succ(st, su)
        pairs_checked += 1

    tri = FreeTridendriformFamily(X2, TRIVIAL)
    strees = enumerate_sch(1, X2, TRIVIAL) + enumerate_sch(2, X2, TRIVIAL)
    for t, u in product(strees, repeat=2):
        st = {_strip_schroder(t): ONE}
        su = {_strip_schroder(u): ONE}
        spans = {
            "prec": ({_strip_schroder(s): c for c, s in tri.prec(t, u, "0").terms},
                     t_span_op(t_prec, st, su)),
            "succ": ({_strip_schroder(s): c for c, s in tri.succ(t, u, "0").terms},
                     t_span_op(t_succ, st, su)),
            "dot": ({_strip_schroder(s): c for c, s in tri.dot(t, u).terms},
                    t_span_op(t_dot, st, su)),
        }
        for got, expected in spans.values():
            assert got == expected
        pairs_checked += 1
    _report(5, f"{pairs_checked} pairs agree term-by-term with the untyped oracle")


# -- criterion 6: generation and the universal property --------------------------------------

def _rb_instances():
    algebra = pointwise_algebra(3)
    return [
        RBFamily(algebra, ONE, {w: scaled_identity_matrix(3, -ONE) for w in "01"}),
        RBFamily(algebra, ONE, {w: cascading_sum_matrix(3, ONE) for w in "01"}),
    ]


def test_criterion_6_generation_and_universal_property():
    dend = FreeDendriformFamily(X2, Z2)
    for n in range(1, 4):
        for t in enumerate_bin(n, X2, Z2):
            assert evaluate(dend.express(t), dend, dend.gen) == dend.span(t)
    tri = FreeTridendriformFamily(X2, Z2)
    for n in range(1, 4):
        for t in enumerate_sch(n, X2, Z2):
            assert evaluate(tri.express(t), tri, tri.gen) == tri.span(t)

    triples = [(a, b, Z2.mul(a, b)) for a, b in Z2_PAIRS]
    btrees = enumerate_bin(1, X2, Z2)
    strees = enumerate_sch(1, X2, Z2)
    for rb in _rb_instances():
        assert rb_family_counterexample(rb, Z2, ["0", "1"]) is None
        basis = [rb.algebra.basis_vector(i) for i in range(3)]
        images = {"x": basis[0], "y": basis[1]}

        dops = eta(rb)
        validate_dendriform_ops(dops, basis, triples)
        for t, u in product(btrees, repeat=2):
            ft = dend.extend(images, dops, dend.span(t))
            fu = dend.extend(images, dops, dend.span(u))
            for omega in "01":
                assert dend.extend(images, dops, dend.prec(t, u, omega)) == \
                    dops.prec(ft, fu, omega)
                assert dend.extend(images, dops, dend.succ(t, u, omega)) == \
                    dops.succ(ft, fu, omega)

        tops = epsilon(rb, Z2, ["0", "1"])
        for t, u in product(strees, repeat=2):
            ft = tri.extend(images, tops, tri.span(t))
            fu = tri.extend(images, tops, tri.span(u))
            for omega in "01":
                assert tri.extend(images, tops, tri.prec(t, u, omega)) == \
                    tops.prec(ft, fu, omega)
                assert tri.extend(images, tops, tri.succ(t, u, omega)) == \
                    tops.succ(ft, fu, omega)
            assert tri.extend(images, tops, tri.dot(t, u)) == tops.dot(ft, fu)
    _report(6, "round-trips on all trees with <=4 leaves; morphism equations "
               "hold into both induced structures")


# -- criterion 7: Rota-Baxter constructions at desk scale -----------------------------------------

def test_criterion_7_rota_baxter_constructions():
    start = time.monotonic()
    algebra = pointwise_algebra(3)
    families = {
        "constant-neg-identity": RBFamily(
            algebra, ONE, {w: scaled_identity_matrix(3, -ONE) for w in "01"}),
        "zero": RBFamily(
            algebra, ONE, {w: scaled_identity_matrix(3, Fraction(0)) for w in "01"}),
        "cascading-sum": RBFamily(
            algebra, ONE, {w: cascading_sum_matrix(3, ONE) for w in "01"}),
    }
    sample = ["0", "1"]
    for name, rb in families.items():
        assert rb_family_counterexample(rb, Z2, sample) is None, name
        assert tensor_rb_counterexample(rb, Z2, sample) is None, name
    for name, rb in families.items():
        for row, col in [(0, 0), (2, 1)]:
            mutant = mutated(rb, "1", row, col, ONE)
            assert rb_family_counterexample(mutant, Z2, sample) is not None, name

    cascading = families["cascading-sum"]
    through = gamma(EpsilonOps(cascading))
    direct = EtaOps(cascading)
    basis = [algebra.basis_vector(i) for i in range(3)]
    for x, y in product(basis, repeat=2):
        for w in sample:
            assert through.prec(x, y, w) == direct.prec(x, y, w)
            assert through.succ(x, y, w) == direct.succ(x, y, w)

    dend_tensor = TensorFamily(FreeDendriformFamily(X2, Z2))
    delements = [dend_tensor.element(t, w)
                 for t in enumerate_bin(1, X2, Z2) for w in sample]
    for x, y, z in product(delements, repeat=3):
        for r in classical_dendriform_residuals(dend_tensor, x, y, z):
            assert r == dend_tensor.zero()

    tri_tensor = TensorFamily(FreeTridendriformFamily(X2, Z2))
    telements = [tri_tensor.element(t, w)
                 for t in enumerate_sch(1, X2, Z2) for w in sample]
    for x, y, z in product(telements, repeat=3):
        for r in classical_tridendriform_residuals(tri_tensor, x, y, z):
            assert r == tri_tensor.zero()

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(7, f"family identity, tensor constructions and the commuting "
               f"diagram verified, {elapsed:.1f}s")


# -- criterion 8: parser round-trip fuzz ---------------------------------------------------------

MALFORMED_BINARY = [
    "",
    "B[x;1:|,1:|] junk",
    "B[x;1:|]",
    "B[x;1:|,1:|,1:|]",
    "B[q;1:|,1:|]",
    "B[x;zz:B[y;1:|,1:|],1:|]",
    "1*",
    "1/0*B[x;1:|,1:|]",
    "S[x;1:|,1:|]",
]

MALFORMED_SCHRODER = [
    "S[;1:|,1:|]",
    "S[x,y;1:|,1:|]",
    "S[x;1:|,1:|,1:|]",
    "B[x;1:|,1:|]",
]

ILL_TYPED = [
    ("B[x;a:|,1:|]", "binary"),
    ("S[x;a:|,1:|]", "schroder"),
]


def test_criterion_8_parser_round_trip_fuzz():
    from dendrifam.termio import print_tree

    count = 0
    for n in range(1, 5):
        for t in enumerate_bin(n, X2, Z2):
            assert parse_tree(print_tree(t), "binary", X2, Z2) == t
            count += 1
        for t in enumerate_sch(n, X2, Z2):
            assert parse_tree(print_tree(t), "schroder", X2, Z2) == t
            count += 1

    free = Semigroup.free(["a", "b"])
    for text in MALFORMED_BINARY:
        for _ in range(2):
            with pytest.raises(TermSyntaxError):
                parse_span(text, "binary", X2, free) if "*" in text else \
                    parse_tree(text, "binary", X2, free)
    for text in MALFORMED_SCHRODER:
        with pytest.raises((TermSyntaxError, ArityMismatch)):
            parse_tree(text, "schroder", X2, free)
    for text, kind in ILL_TYPED:
        with pytest.raises(TypingViolation):
            parse_tree(text, kind, X2, free)
    _report(8, f"{count} enumerated trees round-trip; malformed inputs "
               "rejected deterministically")
