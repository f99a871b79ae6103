"""The canonical tree order and the printer on shared subtrees.

The ranks of ``pbtrees.ranks``/``schroder.ranks`` and the flat keys of
``tree_key`` must order trees exactly as the recursive definition below
does, in the algebras, the parser and the enumerators, also on trees too
deep for a recursion; the printer must print a span exactly as a naive
per-term printer does.
"""

import tracemalloc
from functools import cache, partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifam.basis import LEAF, Alphabet, normalize
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.errors import InvalidElement
from dendrifam import pbtrees, schroder
from dendrifam.pbtrees import BinNode, enumerate_bin, graft_binary
from dendrifam.pbtrees import single_vertex as bin_vertex
from dendrifam.rotabaxter import TensorFamily
from dendrifam.schroder import SchNode, enumerate_sch, intern_node
from dendrifam.schroder import single_vertex as sch_vertex
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.termio import parse_span, print_span, print_tree
from dendrifam.tridendriform import FreeTridendriformFamily

from helpers import leaves

XY = Alphabet(["x", "y"])
YX = Alphabet(["y", "x"])
Z2 = Semigroup.cyclic(2)
FREE = Semigroup.free(["a", "b"])
# semigroup, the edge tokens drawn, the word bound of enumerations
SEMIGROUPS = {
    "cyclic:2": (Z2, ["0", "1"], None),
    "free:a,b": (FREE, FREE.elements(3), 2),
}


# -- the reference: the recursive keys that the ranks replaced ------------

def ref_bin_key(t, alphabet, semigroup):
    if t is LEAF:
        return (1,)
    return (
        leaves(t),
        alphabet.index(t.dec),
        semigroup.ext_key(t.left_type),
        ref_bin_key(t.left, alphabet, semigroup),
        semigroup.ext_key(t.right_type),
        ref_bin_key(t.right, alphabet, semigroup),
    )


def ref_sch_key(t, alphabet, semigroup):
    if t is LEAF:
        return (1,)
    return (
        leaves(t),
        t.arity,
        tuple(alphabet.index(x) for x in t.decs),
        tuple(semigroup.ext_key(etype) for etype, _ in t.children),
        tuple(ref_sch_key(child, alphabet, semigroup) for _, child in t.children),
    )


def naive_print(t):
    if t is LEAF:
        return "|"
    if isinstance(t, BinNode):
        return (f"B[{t.dec};{t.left_type}:{naive_print(t.left)},"
                f"{t.right_type}:{naive_print(t.right)}]")
    children = ",".join(f"{etype}:{naive_print(child)}" for etype, child in t.children)
    return f"S[{','.join(t.decs)};{children}]"


def naive_print_span(span):
    return " + ".join(f"{c}*{naive_print(t)}" for c, t in span.terms) or "0"


# -- random trees -------------------------------------------------------------

def edge(draw, tokens, child):
    return IDENTITY if child is LEAF else draw(st.sampled_from(tokens))


@st.composite
def binary_trees(draw, tokens, size=None):
    size = draw(st.integers(min_value=1, max_value=6)) if size is None else size
    left_size = draw(st.integers(min_value=0, max_value=size - 1))
    left = draw(binary_trees(tokens, left_size)) if left_size else LEAF
    right_size = size - 1 - left_size
    right = draw(binary_trees(tokens, right_size)) if right_size else LEAF
    return graft_binary(left, draw(st.sampled_from(["x", "y"])),
                        edge(draw, tokens, left), edge(draw, tokens, right), right)


@st.composite
def schroder_trees(draw, tokens, depth=3):
    k = draw(st.integers(min_value=1, max_value=3))
    children = []
    for _ in range(k + 1):
        use_child = depth > 1 and draw(st.booleans())
        child = draw(schroder_trees(tokens, depth - 1)) if use_child else LEAF
        children.append((edge(draw, tokens, child), child))
    return SchNode(tuple(draw(st.sampled_from(["x", "y"])) for _ in range(k)),
                   tuple(children))


def subtrees(t):
    if t is LEAF:
        return []
    children = [t.left, t.right] if isinstance(t, BinNode) else [c for _, c in t.children]
    return [t] + [s for child in children for s in subtrees(child)]


KINDS = {
    "binary": (binary_trees, pbtrees, ref_bin_key, FreeDendriformFamily),
    "schroder": (schroder_trees, schroder, ref_sch_key, FreeTridendriformFamily),
}


def assert_same_order(trees, key, ref):
    assert sorted(trees, key=key) == sorted(trees, key=ref)
    for a, b in combinations(trees, 2):
        assert (key(a) < key(b)) == (ref(a) < ref(b))
        assert (key(a) == key(b)) == (ref(a) == ref(b)) == (a is b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sg_name", SEMIGROUPS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_memoized_key_orders_as_the_recursive_definition(kind, sg_name, data):
    # the ranks of the collection, of the algebra's order and the flat keys
    draw_trees, nodes, ref_key, family = KINDS[kind]
    semigroup, tokens, _ = SEMIGROUPS[sg_name]
    drawn = data.draw(st.lists(draw_trees(tokens), min_size=1, max_size=6))
    trees = list({s: None for t in drawn for s in subtrees(t)})
    for alphabet in (XY, YX):
        ref = lambda t: ref_key(t, alphabet, semigroup)  # noqa: E731
        assert_same_order(trees, nodes.ranks(alphabet, semigroup, trees).__getitem__, ref)
        assert_same_order(trees, family(alphabet, semigroup).order(trees).__getitem__, ref)
        assert_same_order(trees, lambda t: nodes.tree_key(t, alphabet, semigroup), ref)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sg_name", SEMIGROUPS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ranked_order_of_a_sub_collection_is_the_restriction_of_the_whole(kind, sg_name, data):
    draw_trees, nodes, _, _ = KINDS[kind]
    semigroup, tokens, _ = SEMIGROUPS[sg_name]
    drawn = data.draw(st.lists(draw_trees(tokens), min_size=1, max_size=6))
    trees = list({s: None for t in drawn for s in subtrees(t)})
    part = data.draw(st.lists(st.sampled_from(trees), max_size=len(trees), unique=True))
    for alphabet in (XY, YX):
        whole = nodes.ranks(alphabet, semigroup, trees)
        ranked = nodes.ranks(alphabet, semigroup, part)
        assert (sorted(part, key=ranked.__getitem__)
                == [t for t in sorted(trees, key=whole.__getitem__) if t in part])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sg_name", SEMIGROUPS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_parsed_spans_sort_as_the_recursive_definition(kind, sg_name, data):
    draw_trees, _, ref_key, _ = KINDS[kind]
    semigroup, tokens, _ = SEMIGROUPS[sg_name]
    trees = data.draw(st.lists(draw_trees(tokens), min_size=1, max_size=6, unique=True))
    text = " + ".join(f"1*{naive_print(t)}" for t in trees)
    for alphabet in (XY, YX):
        span = parse_span(text, kind, alphabet, semigroup)
        assert [t for _, t in span.terms] == sorted(trees, key=lambda t: ref_key(t, alphabet, semigroup))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sg_name", SEMIGROUPS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_each_node_keeps_its_leaf_count(kind, sg_name, data):
    # drawn, parsed, product and enumerated trees, and every subtree of them
    draw_trees, nodes, _, family = KINDS[kind]
    semigroup, tokens, max_word = SEMIGROUPS[sg_name]
    drawn = data.draw(st.lists(draw_trees(tokens), min_size=2, max_size=4))
    parsed = parse_span(" + ".join(f"1*{naive_print(t)}" for t in drawn), kind, XY, semigroup)
    alg, w = family(XY, semigroup), tokens[-1]
    products = [alg.prec(parsed, drawn[0], w), alg.succ(drawn[1], parsed, w)]
    if kind == "schroder":
        products.append(alg.dot(parsed, drawn[0]))
    enumerate_trees = enumerate_bin if kind == "binary" else enumerate_sch
    trees = drawn + list(parsed.map) + [t for p in products for t in p.map]
    trees += [t for n in (1, 2) for t in enumerate_trees(n, XY, semigroup, max_word)]
    for t in {s: None for t in trees for s in subtrees(t)}:
        assert t.leaves == leaves(t)
    assert LEAF.leaves == leaves(LEAF) == 1


def counted_leaves(roots):
    """The leaf count of every node below ``roots``, counted from the children's
    counts without recursion and without reading ``leaves``."""
    count, stack = {LEAF: 1}, list(roots)
    while stack:
        t = stack[-1]
        children = [t.left, t.right] if isinstance(t, BinNode) else [c for _, c in t.children]
        todo = [c for c in children if c not in count]
        if todo:
            stack += todo
        else:
            count[stack.pop()] = sum(count[c] for c in children)
    return count


def reference_key(t, alphabet, semigroup, count):
    """The key of the recursive definition, flattened in preorder without recursion;
    each key starts with its leaf count, so flat keys compare as the nested ones."""
    dec, edge = cache(alphabet.index), cache(semigroup.ext_key)
    key, stack = [], [t]
    while stack:
        s = stack.pop()
        if s is LEAF:
            key.append(1)
        elif isinstance(s, BinNode):
            key += (count[s], dec(s.dec), edge(s.left_type))
            stack += (s.right, ("edge", edge(s.right_type)), s.left)
        elif isinstance(s, tuple):
            key.append(s[1])
        else:
            key += (count[s], s.arity, tuple(map(dec, s.decs)),
                    tuple([edge(a) for a, _ in s.children]))
            stack += [c for _, c in reversed(s.children)]
    return tuple(key)


@pytest.mark.parametrize("kind", KINDS)
def test_terms_of_a_product_with_a_comb_of_400_vertices_are_ranked_as_the_definition(kind):
    # 400 terms (799 Schröder terms) sharing about 80,000 nodes, leaf counts past 256
    nodes, family = KINDS[kind][1], KINDS[kind][3]
    comb = right_combs(400, "y")[kind == "schroder"]
    terms = family(XY, Z2).prec(comb, nodes.single_vertex("x"), "1").map
    assert len(terms) == (400 if kind == "binary" else 799)
    count = counted_leaves(terms)
    assert all(t.leaves == n for t, n in count.items())
    for alphabet in (XY, YX):
        ref = {t: reference_key(t, alphabet, Z2, count) for t in terms}
        ranked = [t for _, t in family(alphabet, Z2).span(*terms).terms]
        assert ranked == sorted(ref, key=ref.__getitem__)
        rank = nodes.ranks(alphabet, Z2, terms)
        assert sorted(terms, key=rank.__getitem__) == ranked


@pytest.mark.parametrize("sg_name", SEMIGROUPS)
@pytest.mark.parametrize("alphabet", [XY, YX])
def test_enumerations_sort_as_the_recursive_definition(sg_name, alphabet):
    # the enumerators build each size in order and rank nothing, so the recursive keys and
    # the ranks that order spans must both find each list sorted already
    semigroup, _, max_word = SEMIGROUPS[sg_name]
    top = 4 if semigroup.is_finite else 3  # 4 vertices over the free semigroup take seconds
    for enumerator, ref_key, nodes in ((enumerate_bin, ref_bin_key, pbtrees),
                                       (enumerate_sch, ref_sch_key, schroder)):
        for n in range(1, top + 1):
            trees = enumerator(n, alphabet, semigroup, max_word)
            assert trees == sorted(trees, key=lambda t: ref_key(t, alphabet, semigroup))
            rank = nodes.ranks(alphabet, semigroup, trees)
            assert trees == sorted(trees, key=rank.__getitem__)


def test_algebras_over_reordered_alphabets_print_shared_trees_each_in_its_order():
    t = graft_binary(bin_vertex("y"), "x", "1", IDENTITY, LEAF)
    u = graft_binary(LEAF, "y", IDENTITY, "0", bin_vertex("x"))
    xy, yx = FreeDendriformFamily(XY, Z2), FreeDendriformFamily(YX, Z2)
    p_xy, p_yx = (alg.succ(alg.span(t, u), alg.span(u, bin_vertex("x")), "1")
                  for alg in (xy, yx))
    assert p_xy.map == p_yx.map  # the very same tree objects
    # yx ranks the shared trees first; ranks must not leak between algebras
    text_yx, text_xy = print_span(p_yx), print_span(p_xy)
    for alphabet, span, text in ((YX, p_yx, text_yx), (XY, p_xy, text_xy)):
        assert [t for _, t in span.terms] == sorted(span.map, key=lambda s: ref_bin_key(s, alphabet, Z2))
        assert text == naive_print_span(span)
    assert text_xy != text_yx
    assert sorted(text_xy.split(" + ")) == sorted(text_yx.split(" + "))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_printer_shares_subtrees_exactly_as_a_naive_printer(data):
    trees = data.draw(st.lists(binary_trees(["0", "1"]), min_size=2, max_size=4))
    a, b = trees[0], trees[1]
    shared = [graft_binary(a, "x", "0", "1", b), graft_binary(b, "y", "1", "1", a),
              graft_binary(a, "y", "0", "0", a)] + trees
    alg = FreeDendriformFamily(XY, Z2)
    for span in (alg.span(*shared), alg.prec(alg.span(*trees), b, "1"),
                 alg.succ(a, alg.span(*shared), "0")):
        assert print_span(span) == naive_print_span(span)
    tri = FreeTridendriformFamily(XY, Z2)
    s = data.draw(schroder_trees(["0", "1"]))
    for span in (tri.dot(s, s), tri.prec(tri.span(s, sch_vertex("x")), s, "0")):
        assert print_span(span) == naive_print_span(span)


def test_printer_keeps_only_the_text_of_shared_subtrees():
    # prec(right comb of n, vertex) has n terms and about n^2/2 distinct
    # nodes; keeping the text of every node would take O(n^3) characters
    comb = LEAF
    for i in range(150):
        comb = graft_binary(LEAF, "xy"[i % 2], IDENTITY, IDENTITY if comb is LEAF else "0", comb)
    product = FreeDendriformFamily(XY, Z2).prec(comb, bin_vertex("x"), "1")
    product.terms
    tracemalloc.start()
    try:
        text = print_span(product)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == naive_print_span(product)
    assert peak < 8 * len(text)
    with pytest.raises(TypeError):
        print_tree((1, "0"))


def test_printer_rejects_a_term_that_is_not_a_tree():
    # a span without an order is printed without the ranking walk
    for order in (None, FreeDendriformFamily(XY, Z2).order):
        with pytest.raises(TypeError):
            print_span(normalize([(1, (1, "0"))], order))


@pytest.mark.parametrize("kind", KINDS)
def test_undeclared_decoration_or_foreign_edge_raises_invalid_element(kind):
    nodes, family = KINDS[kind][1], KINDS[kind][3]
    vertex = nodes.single_vertex
    order = partial(nodes.ranks, Alphabet(["x"]), Z2)
    for _ in range(2):  # a failed ordering leaves nothing half-made behind
        with pytest.raises(InvalidElement):
            order([vertex("y")])
    with pytest.raises(InvalidElement):
        family(Alphabet(["x"]), Z2).order([vertex("y")])
    with pytest.raises(InvalidElement):
        TensorFamily(family(Alphabet(["x"]), Z2)).element(vertex("y"), "0")
    if kind == "binary":
        foreign = graft_binary(vertex("x"), "x", "5", IDENTITY, LEAF)
    else:
        foreign = SchNode(("x",), (("5", vertex("x")), (IDENTITY, LEAF)))
    for key in (order, lambda t: nodes.tree_key(t[0], Alphabet(["x"]), Z2)):
        with pytest.raises(InvalidElement):
            key([foreign])
    with pytest.raises(InvalidElement):
        TensorFamily(family(Alphabet(["x"]), Z2)).element(foreign, "0")


def right_combs(n, bottom):
    """Two right combs of ``n`` vertices, one built with ``graft_binary`` and
    one with ``intern_node``, whose lowest vertex is decorated ``bottom``."""
    comb, sch = bin_vertex(bottom), sch_vertex(bottom)
    for i in range(n - 1):
        dec = "xy"[i % 2]
        comb = graft_binary(LEAF, dec, IDENTITY, "0", comb)
        sch = intern_node((dec,), ((IDENTITY, LEAF), ("0", sch)))
    return comb, sch


def test_combs_of_5000_vertices_are_ordered_without_recursion():
    # the nested keys recursed once per level; these combs differ only at the bottom
    (bx, sx), (by, sy) = right_combs(5000, "x"), right_combs(5000, "y")
    for nodes, family, low, high in ((pbtrees, FreeDendriformFamily, bx, by),
                                     (schroder, FreeTridendriformFamily, sx, sy)):
        for alphabet in (XY, YX):
            keys = [nodes.tree_key(t, alphabet, Z2) for t in (low, high)]
            assert (keys[0] < keys[1]) == (alphabet is XY)
            assert keys[0][0] == keys[1][0] == 5001  # the leaf count
            trees = [t for _, t in family(alphabet, Z2).span(high, low).terms]
            assert trees == ([low, high] if alphabet is XY else [high, low])


@pytest.mark.parametrize("symbols", [["x y"], ["x", "+"], ["é"], [""], ["x", "1/2"], [3]])
def test_alphabet_rejects_symbols_the_grammar_cannot_read(symbols):
    with pytest.raises(InvalidElement):
        Alphabet(symbols)


def test_alphabet_accepts_grammar_tokens():
    assert list(Alphabet(["x", "Y2", "_a", "1"])) == ["x", "Y2", "_a", "1"]
