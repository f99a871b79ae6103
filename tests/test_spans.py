"""Spans as tree -> coefficient maps: order independence, exact coefficients,
and the free products against the untyped oracle on random rational spans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifam.basis import LEAF, Alphabet, normalize
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.errors import LeafOperand
from dendrifam.pbtrees import graft_binary
from dendrifam.pbtrees import single_vertex as bin_vertex
from dendrifam.schroder import intern_node
from dendrifam.schroder import single_vertex as sch_vertex
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.termio import parse_span, print_span
from dendrifam.tridendriform import FreeTridendriformFamily

from untyped_free import b_span_prec, b_span_succ, t_dot, t_prec, t_span_op, t_succ

X = Alphabet(["x", "y"])
TRIVIAL = Semigroup.trivial()
ZERO = "0"
DEND = FreeDendriformFamily(X, TRIVIAL)
TRI = FreeTridendriformFamily(X, TRIVIAL)

symbols = st.sampled_from(list(X))
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def binary_trees(draw, size=None):
    size = draw(st.integers(min_value=1, max_value=5)) if size is None else size
    left_size = draw(st.integers(min_value=0, max_value=size - 1))
    right_size = size - 1 - left_size
    left = draw(binary_trees(left_size)) if left_size else LEAF
    right = draw(binary_trees(right_size)) if right_size else LEAF
    return graft_binary(left, draw(symbols),
                        ZERO if left_size else IDENTITY,
                        ZERO if right_size else IDENTITY, right)


@st.composite
def schroder_trees(draw, depth=2):
    k = draw(st.integers(min_value=1, max_value=2))
    children = []
    for _ in range(k + 1):
        if depth > 1 and draw(st.booleans()):
            children.append((ZERO, draw(schroder_trees(depth - 1))))
        else:
            children.append((IDENTITY, LEAF))
    return intern_node(tuple(draw(symbols) for _ in range(k)), tuple(children))


def pair_lists(trees):
    return st.lists(st.tuples(coefficients, trees), min_size=1, max_size=4)


def strip_binary(t):
    return None if t is LEAF else (t.dec, strip_binary(t.left), strip_binary(t.right))


def strip_schroder(t):
    if t is LEAF:
        return None
    return (t.decs, tuple(strip_schroder(child) for _, child in t.children))


def untyped(span, strip):
    return {strip(t): c for t, c in span.map.items()}


def assert_exact(span):
    for c in span.map.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@given(st.data(), st.sampled_from(["binary", "schroder"]))
@settings(max_examples=120, deadline=None)
def test_printing_ignores_term_order_and_round_trips(data, kind):
    alg, trees = (DEND, binary_trees()) if kind == "binary" else (TRI, schroder_trees())
    pairs = data.draw(pair_lists(trees))
    shuffled = data.draw(st.permutations(pairs))
    span = normalize(pairs, alg.order)
    assert_exact(span)
    assert normalize(shuffled, alg.order) == span
    assert normalize(reversed(shuffled), alg.order) == span
    text = print_span(span)
    assert print_span(normalize(shuffled, alg.order)) == text
    assert print_span(alg.add(*(alg.span(t).scaled(c) for c, t in shuffled))) == text
    parsed = parse_span(text, kind, X, TRIVIAL)
    assert parsed == span
    assert print_span(parsed) == text


@given(pair_lists(binary_trees()), pair_lists(binary_trees()))
@settings(max_examples=80, deadline=None)
def test_binary_products_match_untyped_oracle(a_pairs, b_pairs):
    a, b = normalize(a_pairs, DEND.order), normalize(b_pairs, DEND.order)
    ua, ub = untyped(a, strip_binary), untyped(b, strip_binary)
    for ours, oracle in ((DEND.prec(a, b, "0"), b_span_prec),
                         (DEND.succ(a, b, "0"), b_span_succ)):
        assert_exact(ours)
        assert untyped(ours, strip_binary) == oracle(ua, ub)


@given(pair_lists(schroder_trees()), pair_lists(schroder_trees()))
@settings(max_examples=60, deadline=None)
def test_schroder_products_match_untyped_oracle(a_pairs, b_pairs):
    a, b = normalize(a_pairs, TRI.order), normalize(b_pairs, TRI.order)
    ua, ub = untyped(a, strip_schroder), untyped(b, strip_schroder)
    for ours, op in ((TRI.prec(a, b, "0"), t_prec),
                     (TRI.succ(a, b, "0"), t_succ),
                     (TRI.dot(a, b), t_dot)):
        assert_exact(ours)
        assert untyped(ours, strip_schroder) == t_span_op(op, ua, ub)


def test_prec_of_long_right_comb_has_one_term_per_vertex():
    words = Semigroup.free(["a"])
    alg = FreeDendriformFamily(X, words)
    comb = bin_vertex("x")
    for _ in range(199):
        comb = graft_binary(LEAF, "x", IDENTITY, "a", comb)
    result = alg.prec(comb, bin_vertex("y"), "a")
    assert len(result) == 200
    assert all(type(c) is int and c == 1 for c in result.map.values())


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_span_accepts_only_trees_of_its_family(kind):
    # a Schröder vertex in a dendriform span died later in prec and in the
    # printer with an AttributeError
    alg, own, other = ((DEND, bin_vertex("x"), sch_vertex("x")) if kind == "binary"
                       else (TRI, sch_vertex("x"), bin_vertex("x")))
    for bad in (other, 1, "x", (1, "0")):
        with pytest.raises(TypeError):
            alg.span(bad)
        with pytest.raises(TypeError):
            alg.span(own, bad)
    with pytest.raises(LeafOperand):
        alg.span(own, LEAF)
    assert alg.span(own, own) == alg.span(own).scaled(2)
