"""The tree kernels ``_prec_trees``/``_succ_trees``/``_dot_trees`` return a
tuple of basis trees, read as a sum with multiplicity; coefficients enter
only in the bilinear lift.  A product of spans, of a family or of its
tensor product with k Omega, is built when first read, and two unbuilt
products compare by the intern keys of their terms.

On two basis trees the typed terms of ``prec_w + succ_w' + dot`` map one to
one onto a Tamari interval (Loday & Ronco, J. Algebraic Combin. 15, 2002),
so every kernel tuple, and the three kernels of one pair together, list
pairwise distinct trees.  The lift must not rely on it: a tree repeated
across the terms of multi-term spans adds up, and cancels when its
coefficients do.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from dendrifam import pbtrees, schroder
from dendrifam.basis import Alphabet, LinComb
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.pbtrees import enumerate_bin
from dendrifam.rotabaxter import TensorFamily
from dendrifam.schroder import enumerate_sch
from dendrifam.semigroups import Semigroup
from dendrifam.tridendriform import FreeTridendriformFamily

X2 = Alphabet(["x", "y"])
Z2 = Semigroup.cyclic(2)


def family(kind, alphabet=X2):
    """A fresh algebra over x,y (or ``alphabet``) / cyclic:2 and its trees
    with at most two vertices (binary) or three leaves (Schröder)."""
    if kind == "binary":
        return (FreeDendriformFamily(alphabet, Z2),
                enumerate_bin(1, alphabet, Z2) + enumerate_bin(2, alphabet, Z2))
    return (FreeTridendriformFamily(alphabet, Z2),
            enumerate_sch(1, alphabet, Z2) + enumerate_sch(2, alphabet, Z2))


def algebra(kind):
    """:func:`family` of ``kind``, or for "tensor-" + kind its tensor product
    with k Z2 and the pairs (tree, w) of its trees and both w."""
    if not kind.startswith("tensor-"):
        return family(kind)
    alg, trees = family(kind[len("tensor-"):])
    return TensorFamily(alg), [(t, w) for t in trees for w in Z2.elements()]


def unit(alg, term):
    """1 * ``term``, a basis tree of a family or a (tree, w) pair of a tensor product."""
    return LinComb({term: 1}, alg.order)


def memos(alg):
    return [alg._prec_memo, alg._succ_memo, getattr(alg, "_dot_memo", {})]


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_kernel_terms_are_distinct(kind):
    alg, trees = family(kind)
    omegas = Z2.elements()
    for t, u in product(trees, repeat=2):
        dot = alg._dot_trees(t, u)
        for w, w2 in product(omegas, repeat=2):
            terms = alg._prec_trees(t, u, w) + alg._succ_trees(t, u, w2) + dot
            assert len(set(terms)) == len(terms), (t, u, w, w2)
    # the memos also hold the kernels of the inner pairs where the recursion branches
    assert all(len(set(trees)) == len(trees) for memo in memos(alg) for trees in memo.values())


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_only_the_steps_that_branch_are_memoized(kind):
    # a step whose boundary child is the leaf gives one tree and is not
    # stored; a step that branches gives succ and prec terms, two at least
    alg, trees = family(kind)
    for t, u in product(trees, repeat=2):
        alg._prec_trees(t, u, "1")
        alg._succ_trees(t, u, "0")
        alg._dot_trees(t, u)
    assert alg._prec_memo and alg._succ_memo and (kind == "binary" or alg._dot_memo)
    assert all(len(trees) >= 2 for memo in memos(alg) for trees in memo.values())


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_products_of_single_vertices_memoize_nothing(kind):
    alg, _ = family(kind)
    x, y = alg.gen("x"), alg.gen("y")
    assert len(alg.prec(x, y, "1").map) == len(alg.succ(x, y, "0").map) == 1
    if kind == "schroder":
        assert len(alg.dot(x, y).map) == 1
    assert not any(memos(alg))


def cancelling_spans(alg, kernel, trees, *index):
    """Spans a = 1/2 t1 + 3/4 t2 and b = 3 u1 - 2 u2, where the kernels of
    (t1, u1) and (t2, u2) share a tree, whose coefficient in the lift
    is 3/2 - 3/2 = 0; returns a, b and the shared tree.  In a tensor product
    t1 and t2 have different w."""
    seen, tensor = {}, isinstance(alg, TensorFamily)
    for t, u in product(trees, repeat=2):
        for s in kernel(t, u, *index):
            t1, u1 = seen.setdefault(s, (t, u))
            if t1 is not t and u1 is not u and not (tensor and t1[1] == t[1]):
                a = alg.add(unit(alg, t1).scaled(Fraction(1, 2)), unit(alg, t).scaled(Fraction(3, 4)))
                b = alg.add(unit(alg, u1).scaled(3), unit(alg, u).scaled(-2))
                return a, b, s
    raise AssertionError("no two pairs share a kernel tree")


def termwise(alg, op, a, b, *index):
    """The product of spans as the sum of the scaled products of their terms."""
    return alg.add(*[alg.scale(ca * cb, op(unit(alg, ta), unit(alg, tb), *index))
                     for ta, ca in a.map.items() for tb, cb in b.map.items()])


@pytest.mark.parametrize("kind, op", [("binary", "prec"), ("binary", "succ"),
                                      ("schroder", "prec"), ("schroder", "succ"),
                                      ("schroder", "dot"),
                                      ("tensor-binary", "prec"), ("tensor-binary", "succ"),
                                      ("tensor-schroder", "prec"), ("tensor-schroder", "succ"),
                                      ("tensor-schroder", "dot")])
def test_lift_of_multi_term_spans_is_the_termwise_sum(kind, op):
    alg, trees = algebra(kind)
    index = () if op == "dot" or kind.startswith("tensor-") else ("1",)
    kernel = getattr(alg, f"_{op}_trees")
    a, b, shared = cancelling_spans(alg, kernel, trees, *index)
    lifted = getattr(alg, op)(a, b, *index)
    assert lifted == termwise(alg, getattr(alg, op), a, b, *index)
    assert shared not in lifted.map and not lifted.is_zero()
    assert any(type(c) is Fraction for c in lifted.map.values())
    assert all(type(c) is int or c.denominator != 1 for c in lifted.map.values())


# -- products built when read, compared unbuilt by intern keys ------------------------

def calls(kind):
    """Each product of the family as (operation, index): prec and succ at
    both indices, and dot; of a tensor product, prec, succ and dot."""
    if kind.startswith("tensor-"):
        return [(op, ()) for op in ("prec", "succ", "dot")]
    ops = [(op, (w,)) for op in ("prec", "succ") for w in Z2.elements()]
    return ops + [("dot", ())] if kind == "schroder" else ops


def intern_key(tree):
    """The key of ``tree`` in its module's ``_INTERNED``: its fields in order."""
    return tuple(getattr(tree, name) for name in type(tree)._fields)


@pytest.mark.parametrize("kind", ["binary", "schroder", "tensor-binary", "tensor-schroder"])
def test_unbuilt_products_compare_as_their_built_maps(kind):
    alg, trees = algebra(kind)
    spans = [unit(alg, t) for t in trees[::4]]
    spans += [alg.add(a, b.scaled(-2)) for a, b in zip(spans, spans[1:])]
    if kind.startswith("tensor-"):  # also Fraction coefficients over mixed w
        spans += [alg.add(unit(alg, (t, "0")).scaled(Fraction(1, 2)),
                          unit(alg, (t, "1")).scaled(Fraction(-2, 3))) for t, _ in trees[::8]]
    for (op1, i1), (op2, i2) in product(calls(kind), repeat=2):
        for a, b in product(spans, repeat=2):
            for c, d in ((a, b), (b, a)):
                def both():
                    return getattr(alg, op1)(a, b, *i1), getattr(alg, op2)(c, d, *i2)
                (p, q), (p_read, q_read) = both(), both()
                built = p_read.map == q_read.map
                assert (p == q) == built and (p != q) == (not built), (op1, op2)


@pytest.mark.parametrize("kind", ["tensor-binary", "tensor-schroder"])
def test_comparing_tensor_products_leaves_both_unbuilt(kind):
    # the tensor products used to be built at the call, beside the family's lazy ones
    alg, trees = algebra(kind)
    a, b = unit(alg, trees[-1]), alg.add(unit(alg, trees[-2]), unit(alg, trees[-3]).scaled(
        Fraction(-1, 2)))
    for op1, op2 in product(("prec", "succ", "dot"), repeat=2):
        p, q = getattr(alg, op1)(a, b), getattr(alg, op2)(b, a)
        assert (p == q) == (op1 == op2 == "dot" and kind == "tensor-binary")
        assert p._factors and q._factors, (op1, op2)


@pytest.mark.parametrize("kind, op", [("binary", "prec"), ("binary", "succ"),
                                      ("schroder", "prec"), ("schroder", "succ"),
                                      ("schroder", "dot")])
def test_unbuilt_comparison_drops_a_cancelled_term(kind, op):
    alg, trees = family(kind)
    index = () if op == "dot" else ("1",)
    a, b, shared = cancelling_spans(alg, getattr(alg, f"_{op}_trees"), trees, *index)
    p, q, built = (getattr(alg, op)(a, b, *index) for _ in range(3))
    keys = p._lift("keys")
    assert intern_key(shared) not in keys and len(keys) == len(built.map)
    assert keys == {intern_key(t): c for t, c in built.map.items()}
    assert p == q and not p != q
    for other, index2 in calls(kind):
        other_product = getattr(alg, other)(a, b, *index2)
        assert (p == other_product) == (built.map == getattr(alg, other)(a, b, *index2).map)


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_comparing_unbuilt_products_builds_no_tree(kind):
    # symbols no other test uses, so the outermost trees are new to the tables
    alg, trees = family(kind, Alphabet(["k" + kind[0], "q" + kind[0]]))
    instance = (alg, *[alg.span(t) for t in trees[-3:]], "0", "1", "1")

    def sides():
        return [(lhs(*instance), rhs(*instance)) for _, lhs, rhs in alg.axiom_table]

    def sizes():
        return len(pbtrees._INTERNED), len(schroder._INTERNED), [len(m) for m in memos(alg)]

    # the first comparison reads the operands and memoizes the inner steps
    assert all(left == right for left, right in sides())
    fresh = sides()
    before = sizes()
    assert all(left == right for left, right in fresh) and sizes() == before
    for left, right in fresh:
        left.map, right.map
    after = sizes()
    assert sum(after[:2]) > sum(before[:2]) and sum(after[2]) > sum(before[2])


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_a_fold_of_products_reads_without_nesting(kind):
    # an operand is read at the call, so a product folded 2,000 times, far
    # past the recursion limit, is no chain of unbuilt products
    alg, _ = family(kind)
    acc = x = alg.gen("x")
    for _ in range(2000):
        acc = alg.succ(acc, x, "1") if kind == "binary" else alg.dot(acc, x)
    assert list(acc.map.values()) == [1]


# -- the memo of the maps of basis-pair products ---------------------------------------

@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_a_scaled_basis_pair_reads_the_memoized_unit_map(kind):
    alg, trees = family(kind)
    t, u = trees[-2], trees[-1]
    for op, index in calls(kind):
        unit_map = dict(Counter(getattr(alg, f"_{op}_trees")(t, u, *index)))
        scaled = getattr(alg, op)(alg.span(t).scaled(2), alg.span(u).scaled(Fraction(3, 2)), *index)
        assert scaled.map == {s: 3 * c for s, c in unit_map.items()}
        assert all(type(c) is int for c in scaled.map.values())
        # the memo holds the unit map: a later read of the unit product is unchanged
        assert getattr(alg, op)(alg.span(t), alg.span(u), *index).map == unit_map


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_sums_and_scalings_leave_a_memoized_map_unchanged(kind):
    alg, trees = family(kind)
    t, u = trees[-2], trees[-1]
    for op, index in calls(kind):
        def read():
            return getattr(alg, op)(alg.span(t), alg.span(u), *index)
        p, before = read(), dict(read().map)
        alg.add(p, p), alg.add(p, alg.span(t)), alg.scale(Fraction(-1, 3), p), p.scaled(2)
        assert read().map == before and p.map == before


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_an_axiom_check_memoizes_no_outermost_product(kind):
    # an outermost product has more vertices than t, u and w, so a memo key
    # naming only them was read as an inner product, never as an outermost one
    alg, trees = family(kind)
    for t, u, w in (trees[-3:], trees[-1:-4:-1]):
        for alpha, beta in product(Z2.elements(), repeat=2):
            assert alg.axioms_hold(t, u, w, alpha, beta)
    assert alg._pair_memo
    assert all({key[1], key[2]} <= set(trees[-3:]) for key in alg._pair_memo)


# -- the kernels' depth bound ----------------------------------------------------------

@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_products_with_a_comb_of_400_vertices(kind):
    # the kernels recurse once per level of the comb; with pytest's own frames
    # 400 vertices stay under the default recursion limit, never raised
    alg, _ = family(kind)
    nodes, n = alg.nodes, 400
    right = left = vertex = nodes.single_vertex("x")
    for _ in range(n - 1):
        right, left = nodes.graft_last(vertex, "0", right), nodes.graft_first(vertex, "0", left)
    terms = n if kind == "binary" else 2 * n - 1  # Schröder: also succ and dot at each level
    assert sys.getrecursionlimit() == 1000
    for span in alg.prec(right, vertex, "1"), alg.succ(vertex, left, "1"):
        assert len(span.map) == terms and set(span.map.values()) == {1}
