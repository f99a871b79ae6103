"""Hash-consing: structurally equal trees are one object on every path that
builds a tree (constructors, grafting, the products, the parser)."""

import copy
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifam import pbtrees, schroder
from dendrifam.basis import LEAF, Alphabet
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.errors import ArityMismatch, TypingViolation
from dendrifam.pbtrees import BinNode, enumerate_bin, graft_binary
from dendrifam.schroder import SchNode, enumerate_sch, intern_node
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.termio import parse_tree, print_tree
from dendrifam.tridendriform import FreeTridendriformFamily

from helpers import from_binary, to_binary

X = Alphabet(["x", "y"])
Z2 = Semigroup.cyclic(2)
DEND = FreeDendriformFamily(X, Z2)
TRI = FreeTridendriformFamily(X, Z2)

symbols = st.sampled_from(list(X))
tokens = st.sampled_from(["0", "1"])


def edge(draw, child):
    return IDENTITY if child is LEAF else draw(tokens)


@st.composite
def binary_trees(draw, size=None):
    size = draw(st.integers(min_value=1, max_value=6)) if size is None else size
    left_size = draw(st.integers(min_value=0, max_value=size - 1))
    left = draw(binary_trees(left_size)) if left_size else LEAF
    right_size = size - 1 - left_size
    right = draw(binary_trees(right_size)) if right_size else LEAF
    return graft_binary(left, draw(symbols), edge(draw, left), edge(draw, right), right)


@st.composite
def schroder_trees(draw, depth=3):
    k = draw(st.integers(min_value=1, max_value=3))
    children = []
    for _ in range(k + 1):
        child = draw(schroder_trees(depth - 1)) if depth > 1 and draw(st.booleans()) else LEAF
        children.append((edge(draw, child), child))
    return SchNode(tuple(draw(symbols) for _ in range(k)), tuple(children))


def reparsed(t, kind):
    return parse_tree(print_tree(t), kind, X, Z2)


@given(binary_trees())
@settings(max_examples=150, deadline=None)
def test_binary_trees_are_shared(t):
    assert reparsed(t, "binary") is t
    assert BinNode(t.dec, t.left_type, t.left, t.right_type, t.right) is t
    assert to_binary(from_binary(t)) is t
    assert reparsed(from_binary(t), "schroder") is from_binary(t)


@given(schroder_trees())
@settings(max_examples=150, deadline=None)
def test_schroder_trees_are_shared(t):
    assert reparsed(t, "schroder") is t
    assert SchNode(t.decs, t.children) is t


@given(binary_trees(), binary_trees(), tokens)
@settings(max_examples=60, deadline=None)
def test_binary_product_terms_are_shared(t, u, w):
    for product in (DEND.prec, DEND.succ):
        for tree in product(t, u, w).map:
            assert reparsed(tree, "binary") is tree


@given(schroder_trees(depth=2), schroder_trees(depth=2), tokens)
@settings(max_examples=60, deadline=None)
def test_schroder_product_terms_are_shared(t, u, w):
    spans = (TRI.prec(t, u, w), TRI.succ(t, u, w), TRI.dot(t, u))
    for span in spans:
        for tree in span.map:
            assert reparsed(tree, "schroder") is tree


@pytest.mark.parametrize("enumerate_fn,kind", [(enumerate_bin, "binary"),
                                               (enumerate_sch, "schroder")])
def test_every_enumerated_tree_reparses_to_itself(enumerate_fn, kind):
    trees = enumerate_fn(3, X, Z2)
    assert all(reparsed(t, kind) is t for t in trees)


@given(binary_trees(), schroder_trees())
@settings(max_examples=20, deadline=None)
def test_nodes_are_immutable(t, s):
    with pytest.raises(FrozenInstanceError):
        t.dec = "y"
    with pytest.raises(FrozenInstanceError):
        t.left_type = "0"
    with pytest.raises(FrozenInstanceError):
        s.children = ()
    with pytest.raises(TypeError):
        copy.copy(t)


def test_edge_token_one_is_the_identity_only_on_a_leaf_edge():
    t = parse_tree("B[x;1:B[y;1:|,1:|],1:|]", "binary", X, Z2)
    assert t.left_type == "1" and t.left_type is not IDENTITY
    assert t.right_type is IDENTITY and t.left.left_type is IDENTITY
    s = parse_tree("S[x;1:S[y;1:|,1:|],1:|]", "schroder", X, Z2)
    assert s.children[0][0] == "1" and s.children[1][0] is IDENTITY
    assert str(IDENTITY) == "1" and IDENTITY != "1"


SV = ((IDENTITY, LEAF), (IDENTITY, LEAF))  # the children of a single vertex
INNER = SchNode(("y",), SV)
BAD_SCHRODER = [(TypingViolation, ("x",), ((IDENTITY, LEAF), (IDENTITY, INNER))),
                (ArityMismatch, ("x", "y"), SV),
                (ArityMismatch, (), ((IDENTITY, LEAF),))]


def test_rejected_nodes_stay_rejected():
    # the checks run when a node is first made, on every entry point; a
    # rejected node is never stored
    sizes = len(pbtrees._INTERNED), len(schroder._INTERNED)
    for _ in range(2):
        with pytest.raises(TypingViolation):
            BinNode("x", "0", LEAF, IDENTITY, LEAF)
        with pytest.raises(TypingViolation):
            graft_binary(LEAF, "x", "0", IDENTITY, LEAF)
        for error, decs, children in BAD_SCHRODER:
            with pytest.raises(error):
                SchNode(decs, children)
            with pytest.raises(error):
                intern_node(decs, children)
        assert (len(pbtrees._INTERNED), len(schroder._INTERNED)) == sizes


def fresh_nodes(token, class_first):
    """A binary and a Schröder node on an edge typed ``token``, each made
    through the class call and through the module function, in the order
    ``class_first`` says, as (first result, second result) pairs.  Every
    token passed here is new, so the first call takes the table-miss path."""
    edge_types = {key[i] for key in pbtrees._INTERNED for i in (1, 3)}
    edge_types |= {a for _, children in schroder._INTERNED for a, _ in children}
    assert token not in edge_types
    sv = graft_binary(LEAF, "x", IDENTITY, IDENTITY, LEAF)
    decs, children = ("y",), ((token, from_binary(sv)), (IDENTITY, LEAF))
    ways = [(lambda: BinNode("y", token, sv, IDENTITY, LEAF),
             lambda: graft_binary(sv, "y", token, IDENTITY, LEAF)),
            (lambda: SchNode(decs, children), lambda: intern_node(decs, children))]
    if not class_first:
        ways = [(by_function, by_class) for by_class, by_function in ways]
    return [(first(), second()) for first, second in ways]


@pytest.mark.parametrize("token,class_first", [("q7", True), ("q8", False)])
def test_entry_points_agree_on_a_miss(token, class_first):
    for node, again in fresh_nodes(token, class_first):
        assert again is node


def test_table_keys_are_the_fields_in_order():
    fresh_nodes("q5", True)
    fresh_nodes("q6", False)
    for key, node in pbtrees._INTERNED.items():
        assert type(node) is BinNode
        assert key == (node.dec, node.left_type, node.left, node.right_type, node.right)
    for key, node in schroder._INTERNED.items():
        assert type(node) is SchNode and key == (node.decs, node.children)


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_a_child_that_is_not_a_tree_is_refused_and_nothing_is_stored(kind):
    # such a node used to be interned, and failed later in the ordering walk
    binary = kind == "binary"
    other = schroder.single_vertex("x") if binary else pbtrees.single_vertex("x")
    table = pbtrees._INTERNED if binary else schroder._INTERNED
    before = dict(table)
    for bad in (5, "x", None, (LEAF, "0"), other):
        for etype in ("0", IDENTITY):
            with pytest.raises(TypeError):
                if binary:
                    BinNode("x", etype, bad, IDENTITY, LEAF)
                else:
                    SchNode(("x",), ((IDENTITY, LEAF), (etype, bad)))
            with pytest.raises(TypeError):
                if binary:
                    graft_binary(LEAF, "x", IDENTITY, etype, bad)
                else:
                    intern_node(("x", "y"), ((etype, bad), (IDENTITY, LEAF), (IDENTITY, LEAF)))
    assert table == before and all(table[key] is node for key, node in before.items())


def test_nodes_made_on_a_miss_are_frozen():
    (t, _), (s, _) = fresh_nodes("q4", False)
    with pytest.raises(FrozenInstanceError):
        t.left_type = "q3"
    with pytest.raises(FrozenInstanceError):
        s.decs = ("x",)
    assert t.left_type == "q4" and s.decs == ("y",)


def _bad_edge_over_a_comb(kind, levels):
    """A vertex whose first child is a comb of ``levels`` vertices on an edge
    typed by the identity, which only a leaf may carry."""
    head = "B" if kind == "binary" else "S"
    comb = f"{head}[x;1:|,1:|]"
    for _ in range(levels - 1):
        comb = f"{head}[x;1:|,a:{comb}]"
    return f"{head}[x;1:{comb},1:|]"


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_typing_errors_name_the_child_kind_not_its_subtree(kind):
    semigroup, alphabet = Semigroup.free(["a"]), Alphabet(["x"])
    for levels in (10, 400):
        with pytest.raises(TypingViolation) as caught:
            parse_tree(_bad_edge_over_a_comb(kind, levels), kind, alphabet, semigroup)
        assert str(caught.value).endswith("edge 1 inconsistent with a vertex child")
        assert len(str(caught.value)) < 60
    with pytest.raises(TypingViolation, match="edge a inconsistent with a leaf child"):
        parse_tree(f"{'BS'[kind == 'schroder']}[x;1:|,a:|]", kind, alphabet, semigroup)
