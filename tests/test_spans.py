"""Spans as tree -> coefficient maps: order independence, exact coefficients,
and the free products against the untyped oracle on random rational spans."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dendrifam.basis import LEAF, Alphabet, LinComb, normalize
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam import pbtrees, schroder
from dendrifam.errors import InvalidElement, LeafOperand
from dendrifam.pbtrees import graft_binary
from dendrifam.pbtrees import single_vertex as bin_vertex
from dendrifam.rotabaxter import TensorFamily
from dendrifam.schroder import intern_node
from dendrifam.schroder import single_vertex as sch_vertex
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.termio import parse_operand, parse_span, parse_tree, print_span, print_tree
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


@given(st.data(), st.sampled_from(["binary", "schroder"]))
@settings(max_examples=100, deadline=None)
def test_sums_and_scaling_are_exact_map_sums(data, kind):
    alg, trees = (DEND, binary_trees()) if kind == "binary" else (TRI, schroder_trees())
    drawn = data.draw(st.lists(pair_lists(trees), max_size=5))
    spans = [normalize(pairs, alg.order) for pairs in drawn]
    plain: dict = {}
    for span in spans:
        for t, c in span.map.items():
            plain[t] = plain.get(t, 0) + c
    total = alg.add(*spans)
    assert total.map == {t: c for t, c in plain.items() if c}
    assert_exact(total)
    lone = normalize(data.draw(pair_lists(trees)), alg.order)
    assume(not lone.is_zero())
    zeros = [alg.zero(), lone.scaled(0), alg.add(lone, lone.scaled(-1))]
    assert all(z.is_zero() for z in zeros)
    at = data.draw(st.integers(min_value=0, max_value=len(zeros)))
    assert alg.add(*zeros[:at], lone, *zeros[at:]) is lone
    assert lone.scaled(1) is lone and lone.scaled(Fraction(1)) is lone
    assert_exact(lone.scaled(Fraction(2, 3)))


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


def right_comb(kind, n):
    """A right comb of ``n`` vertices over x, built without recursion."""
    t = LEAF
    for _ in range(n):
        edge = IDENTITY if t is LEAF else ZERO
        t = (graft_binary(LEAF, "x", IDENTITY, edge, t) if kind == "binary"
             else intern_node(("x",), ((IDENTITY, LEAF), (edge, t))))
    return t


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_operations_refuse_spans_of_the_other_kind(kind):
    # a span of the other kind used to pass the call-time check and die later
    # with an AttributeError; a deep foreign tree, whose repr is as deep as the
    # tree, used to raise RecursionError from the error message
    (alg, own), (other_alg, other) = (((DEND, bin_vertex("x")), (TRI, sch_vertex("x")))
                                      if kind == "binary" else
                                      ((TRI, sch_vertex("x")), (DEND, bin_vertex("x"))))
    other_kind = "schroder" if kind == "binary" else "binary"
    mine, deep = alg.span(own), right_comb(other_kind, 3000)
    foreign = [other_alg.span(other), other_alg.span(deep),
               parse_span("2*" + ("B[x;1:|,1:|]" if kind == "schroder" else "S[x;1:|,1:|]"),
                          other_kind, X, TRIVIAL),
               LinComb({own: 1, other: 1}, other_alg.order)]
    products = [lambda a, b: alg.prec(a, b, ZERO), lambda a, b: alg.succ(a, b, ZERO)]
    if kind == "schroder":
        products.append(alg.dot)
    generators = {x: alg.gen(x) for x in X}
    for bad in foreign:
        for product in products:
            for a, b in ((bad, mine), (mine, bad), (bad, LEAF), (LEAF, bad)):
                with pytest.raises(TypeError):
                    product(a, b)
        with pytest.raises(TypeError):
            alg.extend(generators, alg, bad)
        for summands in ((bad,), (mine, bad), (bad, alg.zero())):
            with pytest.raises(TypeError):
                alg.add(*summands)
    for bad_tree in (other, deep):
        for instance in ((bad_tree, own, own), (own, own, bad_tree)):
            with pytest.raises(TypeError):
                alg.axioms_hold(*instance, ZERO, ZERO)
            with pytest.raises(TypeError):
                alg.axiom_residuals(*instance, ZERO, ZERO)
        with pytest.raises(TypeError):
            alg.prec(bad_tree, own, ZERO)
        with pytest.raises(TypeError):
            alg.span(bad_tree)
        with pytest.raises(TypeError):
            TensorFamily(alg).element(bad_tree, ZERO)
    with pytest.raises(LeafOperand):
        alg.axioms_hold(own, LEAF, own, ZERO, ZERO)
    with pytest.raises(LeafOperand):
        alg.prec(LEAF, LEAF, ZERO)
    # spans of the right kind still pass, also ones of another order
    parsed = parse_span(print_span(mine.scaled(3)), kind, X, TRIVIAL)
    assert alg.add(parsed, mine) == mine.scaled(4)
    assert alg.prec(parsed, own, ZERO) == alg.prec(mine, own, ZERO).scaled(3)
    assert alg.axioms_hold(own, own, own, ZERO, ZERO)


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_operations_refuse_foreign_decorations_and_edge_types(kind):
    # a span over another alphabet or semigroup, with trees of the right kind,
    # was accepted at the call and failed only when printed
    family, vertex = ((FreeDendriformFamily, bin_vertex) if kind == "binary"
                      else (FreeTridendriformFamily, sch_vertex))
    Z2, Z3 = Semigroup.cyclic(2), Semigroup.cyclic(3)
    alg = family(Alphabet(["x"]), Z2)
    mine, small = alg.gen("x"), parse_tree("B[x;1:|,2:B[x;1:|,1:|]]".replace(
        "B", "B" if kind == "binary" else "S"), kind, Alphabet(["x"]), Z3)
    deep = right_comb(kind, 2000)  # walked without recursion; its bottom edge is typed 2
    deep = (graft_binary(LEAF, "x", IDENTITY, "2", deep) if kind == "binary"
            else intern_node(("x",), ((IDENTITY, LEAF), ("2", deep))))
    foreign = [family(X, Z2).gen("y"), family(Alphabet(["x"]), Z3).span(deep),
               parse_span("1*" + print_span(mine)[2:].replace("x", "y"), kind, X, Z2),
               parse_span("3*" + print_tree(small), kind, Alphabet(["x"]), Z3)]
    products = [lambda a, b: alg.prec(a, b, "1"), lambda a, b: alg.succ(a, b, "0")]
    if kind == "schroder":
        products.append(alg.dot)
    for bad in foreign:
        for product in products:
            for a, b in ((bad, mine), (mine, bad), (bad, LEAF)):
                with pytest.raises(InvalidElement):
                    product(a, b)
        with pytest.raises(InvalidElement):
            alg.extend({"x": mine}, alg, bad)
        for call in (lambda: alg.add(mine, bad), lambda: alg.scale(2, bad)):
            with pytest.raises(InvalidElement):
                call()
    # trees over the algebra's own symbols pass, whichever algebra made the span
    own = parse_tree(print_tree(small).replace("2", "1"), kind, Alphabet(["x"]), Z2)
    ok, mine_too = family(X, Z3).span(own), alg.span(own)
    assert alg.add(ok, mine_too) == mine_too.scaled(2)
    assert print_span(alg.prec(ok, mine, "1")) == print_span(alg.prec(mine_too, mine, "1"))


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_parsed_spans_over_the_algebras_alphabet_and_semigroup_are_not_walked(
        kind, monkeypatch):
    alg = DEND if kind == "binary" else TRI
    text = "2*" + print_span(alg.gen("x"))[2:]
    parsed = parse_span(text, kind, alg.alphabet, alg.semigroup)
    other = parse_span(text, kind, alg.alphabet, Semigroup.trivial())
    nodes = pbtrees if kind == "binary" else schroder
    monkeypatch.setattr(nodes, "walk", None)  # a walk would raise TypeError
    assert alg.prec(parsed, parsed, ZERO).map
    assert alg.add(parsed, parsed).map
    with pytest.raises(TypeError):
        alg.prec(other, parsed, ZERO)


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_parsed_tree_operands_are_not_walked(kind, monkeypatch):
    # a parsed tree operand carried no order, so the family ranked it again at the call
    alg = DEND if kind == "binary" else TRI
    text = "B[x;1:|,0:B[y;1:|,1:|]]".replace("B", "B" if kind == "binary" else "S")
    t, u = (parse_operand(text, kind, alg.alphabet, alg.semigroup) for _ in range(2))
    other = parse_operand(text, kind, alg.alphabet, Semigroup.trivial())
    want = alg.prec(alg.span(next(iter(t.map))), alg.gen("y"), ZERO).map
    monkeypatch.setattr(pbtrees if kind == "binary" else schroder, "walk", None)
    assert alg.prec(t, u, ZERO).map and alg.succ(t, u, ZERO).map
    assert alg.prec(t, alg.gen("y"), ZERO).map == want and alg.prec(t, LEAF, ZERO) is t
    with pytest.raises(TypeError):  # over another semigroup object, it is ranked: walked
        alg.prec(other, u, ZERO)


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_spans_of_a_second_family_over_the_same_objects_are_not_walked(kind, monkeypatch):
    alg = DEND if kind == "binary" else TRI
    second = type(alg)(alg.alphabet, alg.semigroup)
    theirs = second.prec(second.gen("x"), second.gen("y"), ZERO)
    mine = alg.prec(alg.gen("x"), alg.gen("y"), ZERO)
    monkeypatch.setattr(pbtrees if kind == "binary" else schroder, "walk", None)
    assert alg.add(theirs, theirs) == mine.scaled(2) == alg.scale(2, theirs)
    assert alg.prec(theirs, alg.gen("x"), ZERO) == alg.prec(mine, alg.gen("x"), ZERO)


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_span_refuses_a_tree_outside_the_algebra_at_the_call(kind):
    # a tree over another alphabet or semigroup was accepted and failed only when printed
    family, vertex = ((FreeDendriformFamily, bin_vertex) if kind == "binary"
                      else (FreeTridendriformFamily, sch_vertex))
    alg = family(Alphabet(["x"]), Semigroup.cyclic(2))
    typed_2 = parse_tree("B[x;1:|,2:B[x;1:|,1:|]]".replace(
        "B", "B" if kind == "binary" else "S"), kind, Alphabet(["x"]), Semigroup.cyclic(3))
    for tree in (vertex("y"), typed_2):
        with pytest.raises(InvalidElement):
            alg.span(tree)
        with pytest.raises(InvalidElement):
            alg.span(vertex("x"), tree)
    assert print_span(alg.span(vertex("x"), vertex("x"))) == "2*" + print_tree(vertex("x"))


@pytest.mark.parametrize("kind", ["dend", "tri", "tensor-dend", "tensor-tri"])
def test_sums_and_scaling_refuse_what_is_not_a_span(kind):
    # an int or a tree raised a bare AttributeError from reading its map
    alg, vertex = {"dend": (DEND, bin_vertex), "tri": (TRI, sch_vertex),
                   "tensor-dend": (TensorFamily(DEND), bin_vertex),
                   "tensor-tri": (TensorFamily(TRI), sch_vertex)}[kind]
    e = alg.element(vertex("x"), ZERO) if kind.startswith("tensor") else alg.gen("x")
    for bad in (3, None, vertex("x"), {vertex("x"): 1}):
        message = rf": a {type(bad).__name__}$"
        for summands in ((e, bad), (bad, e), (bad,), (alg.zero(), bad)):
            with pytest.raises(TypeError, match=message):
                alg.add(*summands)
        with pytest.raises(TypeError, match=message):
            alg.scale(2, bad)
    assert alg.add(e, e) == alg.scale(2, e)
