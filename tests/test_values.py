"""The value classes (alphabets, expressions, finite algebras, Rota-Baxter
families) and the tree nodes keep the semantics they had as dataclasses:
their reprs, equality and hashing, FrozenInstanceError on assignment and
deletion, and pickle and copy round trips.  The package imports without
the dataclasses machinery, and an error message names a deep value by its
type, never by its repr, which is as deep as the value."""

import copy
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

from dendrifam import exprs, pbtrees, schroder
from dendrifam.basis import LEAF, Alphabet
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.errors import InvalidElement, SemigroupViolation
from dendrifam.exprs import Dot, Gen, Prec, Succ
from dendrifam.pbtrees import BinNode, graft_binary
from dendrifam.rotabaxter import (FiniteAlgebra, RBFamily, TensorRB, cascading_sum_matrix, eta,
                                  pointwise_algebra)
from dendrifam.schroder import SchNode, intern_node
from dendrifam.semigroups import IDENTITY, Semigroup

SRC = Path(__file__).resolve().parent.parent / "src"

G, H = Gen("x"), Gen("y")
ALG = pointwise_algebra(2)
RB = RBFamily(ALG, Fraction(1, 2), {"0": cascading_sum_matrix(2, Fraction(1, 2))})
ALG_REPR = "FiniteAlgebra(structure=(((1, 0), (0, 0)), ((0, 0), (0, 1))))"
VALUES = [
    (Alphabet(["x", "y"]), "Alphabet(symbols=('x', 'y'))"),
    (G, "Gen(symbol='x')"),
    (Prec("0", G, H), "Prec(omega='0', left=Gen(symbol='x'), right=Gen(symbol='y'))"),
    (Succ("1", H, G), "Succ(omega='1', left=Gen(symbol='y'), right=Gen(symbol='x'))"),
    (Dot(G, Prec("1", H, H)),
     "Dot(left=Gen(symbol='x'), right=Prec(omega='1', left=Gen(symbol='y'), "
     "right=Gen(symbol='y')))"),
    (ALG, ALG_REPR),
    (RB, f"RBFamily(algebra={ALG_REPR}, weight=Fraction(1, 2), "
         "operators={'0': ((Fraction(-1, 2), 0), (Fraction(-1, 2), Fraction(-1, 2)))})"),
]
# a value of each class made afresh, equal to the one in VALUES
REMADE = [Alphabet(("x", "y")), Gen("x"), Prec("0", Gen("x"), Gen("y")),
          Succ("1", Gen("y"), Gen("x")), Dot(Gen("x"), Prec("1", Gen("y"), Gen("y"))),
          FiniteAlgebra(ALG.structure),
          RBFamily(pointwise_algebra(2), Fraction(1, 2),
                   {"0": cascading_sum_matrix(2, Fraction(1, 2))})]
BIN_VERTEX = "BinNode(dec='x', left_type=IDENTITY, left=Leaf, right_type=IDENTITY, right=Leaf)"
SCH_VERTEX = "SchNode(decs=('x',), children=((IDENTITY, Leaf), (IDENTITY, Leaf)))"
NODES = [
    (pbtrees.single_vertex("x"), BIN_VERTEX),
    (schroder.single_vertex("x"), SCH_VERTEX),
    (graft_binary(pbtrees.single_vertex("x"), "y", "0", IDENTITY, LEAF),
     f"BinNode(dec='y', left_type='0', left={BIN_VERTEX}, right_type=IDENTITY, right=Leaf)"),
    (intern_node(("y", "x"),
                 ((IDENTITY, LEAF), ("1", schroder.single_vertex("x")), (IDENTITY, LEAF))),
     f"SchNode(decs=('y', 'x'), children=((IDENTITY, Leaf), ('1', {SCH_VERTEX}), "
     "(IDENTITY, Leaf)))"),
]


@pytest.mark.parametrize("value,text", VALUES + NODES)
def test_reprs_are_the_dataclass_form(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,remade", zip([v for v, _ in VALUES], REMADE))
def test_values_equal_by_type_and_fields(value, remade):
    assert value is not remade and value == remade and not value != remade
    if type(value) is not RBFamily:
        assert hash(value) == hash(remade)


def test_values_of_other_types_or_fields_differ():
    assert Prec("0", G, G) != Succ("0", G, G)
    assert Prec("0", G, G) != Prec("1", G, G) and Prec("0", G, H) != Prec("0", H, G)
    assert Gen("x") != ("x",) and Gen("x") != Gen("y") and Gen("x") != "x"
    assert Gen("x").__eq__(("x",)) is NotImplemented
    assert Dot(G, H) != Dot(H, G) and Alphabet(["x", "y"]) != Alphabet(["y", "x"])
    assert ALG != pointwise_algebra(3)
    assert RB != RBFamily(ALG, 1, {"0": cascading_sum_matrix(2, 1)})
    assert len({Gen("x"), Gen("x"), Gen("y"), Prec("0", G, H), Prec("0", G, H)}) == 3


def test_a_family_with_operator_dict_is_unhashable():
    with pytest.raises(TypeError):
        hash(RB)


@pytest.mark.parametrize("value", [v for v, _ in VALUES])
def test_values_are_frozen(value):
    field = next(name for name in ("symbols", "symbol", "omega", "left", "structure", "algebra")
                 if hasattr(value, name))
    before = getattr(value, field)
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(value, field)
    with pytest.raises(FrozenInstanceError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("node", [n for n, _ in NODES])
def test_nodes_are_frozen_and_not_copied(node):
    field = type(node).__slots__[0]
    before = getattr(node, field)
    with pytest.raises(FrozenInstanceError):
        setattr(node, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(node, field)
    # a slotted frozen dataclass raised TypeError from its __setattr__ on a name
    # outside its fields, a CPython defect; either way no attribute is added
    with pytest.raises((FrozenInstanceError, TypeError)):
        node.extra = 1
    assert getattr(node, field) is before
    with pytest.raises(TypeError):
        copy.copy(node)


def test_nodes_compare_and_hash_by_identity_through_object():
    assert BinNode.__slots__ == ("dec", "left_type", "left", "right_type", "right")
    assert SchNode.__slots__ == ("decs", "children")
    for cls in (BinNode, SchNode):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    for node, _ in NODES:
        assert not hasattr(node, "__dict__") and hash(node) == object.__hash__(node)


@pytest.mark.parametrize("value", [v for v, _ in VALUES])
@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)),
                                        copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_values_round_trip_equal(value, round_trip):
    again = round_trip(value)
    assert type(again) is type(value) and again == value and repr(again) == repr(value)


def test_round_tripped_algebras_compute_as_the_originals():
    alg, rb = pickle.loads(pickle.dumps(ALG)), copy.deepcopy(RB)
    u, v = (3, Fraction(1, 2)), (Fraction(2, 3), 5)
    assert alg.mul(u, v) == ALG.mul(u, v)
    assert rb.apply("0", u) == RB.apply("0", u)


def test_expressions_take_their_fields_by_keyword():
    assert Prec(omega="0", left=G, right=H) == Prec("0", G, H) == Prec("0", G, right=H)
    assert Gen(symbol="x") == G and Dot(right=H, left=G) == Dot(G, H)
    for bad in [lambda: Gen(), lambda: Gen("x", "y"), lambda: Gen("x", symbol="x"),
                lambda: Dot(G, other=H), lambda: Prec("0", left=G)]:
        with pytest.raises(TypeError):
            bad()


def test_the_package_imports_without_dataclasses():
    # a clean interpreter: -S keeps a site hook (a .pth file) from importing them first
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dendrifam, dendrifam.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def _right_comb(n):
    comb = pbtrees.single_vertex("x")
    for _ in range(n - 1):
        comb = graft_binary(LEAF, "x", IDENTITY, "0", comb)
    return comb


COMB = _right_comb(600)  # its repr nests deeper than the default recursion limit
Z2 = Semigroup.cyclic(2)
RB2 = RBFamily(pointwise_algebra(2), 1, {w: cascading_sum_matrix(2, 1) for w in "01"})
DEND = FreeDendriformFamily(Alphabet(["x"]), Z2)


@pytest.mark.parametrize("call,error,message", [
    (lambda: exprs.evaluate(COMB, eta(RB2), {}.get), TypeError, "not an expression: a BinNode"),
    (lambda: Alphabet(["x"]).index(COMB), InvalidElement,
     "a BinNode is not a declared decoration symbol"),
    (lambda: DEND.gen(COMB), InvalidElement, "a BinNode is not a declared decoration symbol"),
    (lambda: TensorRB(RB2, Z2).element(COMB, "0"), InvalidElement,
     "no basis element a BinNode in dimension 2"),
    (lambda: TensorRB(RB2, Z2).element(0, COMB), InvalidElement,
     "a BinNode is not an element of the semigroup"),
    (lambda: Alphabet([COMB]), InvalidElement, "bad decoration symbol: a BinNode"),
    (lambda: Z2.require(COMB), InvalidElement, "a BinNode is not an element of the semigroup"),
    (lambda: Z2.element_key(COMB), InvalidElement, "a BinNode is not an element of the semigroup"),
    (lambda: Semigroup.free(["a"]).require(COMB), InvalidElement,
     "a BinNode is not an element of the semigroup"),
    (lambda: Semigroup.free([COMB]), SemigroupViolation, "bad element token: a BinNode"),
    (lambda: Semigroup(COMB), SemigroupViolation, "unknown semigroup kind: a BinNode"),
    (lambda: DEND.prec(DEND.gen("x"), DEND.gen("x"), COMB), InvalidElement,
     "a BinNode is not an element of the semigroup"),
    (lambda: RB2.apply(COMB, (1, 0)), InvalidElement, "no operator declared for index a BinNode"),
    (lambda: RBFamily(RB2.algebra, 1, {COMB: ((1,),)}), InvalidElement,
     "operator for a BinNode must be 2x2"),
], ids=["evaluate", "Alphabet.index", "gen", "TensorRB.element", "TensorRB.element omega",
        "Alphabet", "require", "element_key", "free require", "free generator", "kind",
        "family index", "apply", "operator"])
def test_a_deep_value_is_named_by_its_type(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_a_string_is_still_named_by_its_repr():
    with pytest.raises(InvalidElement, match="^'z' is not a declared decoration symbol$"):
        Alphabet(["x"]).index("z")
    with pytest.raises(TypeError, match="^not an expression: 'x'$"):
        exprs.evaluate("x", eta(RB2), {}.get)
    with pytest.raises(InvalidElement, match="^no basis element e_2 in dimension 2$"):
        TensorRB(RB2, Z2).element(2, "0")
