import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrifam.basis import LEAF, Alphabet
from dendrifam.cli import _infer_kind
from dendrifam.errors import ArityMismatch, TermSyntaxError, TypingViolation
from dendrifam.pbtrees import enumerate_bin, graft_binary, single_vertex
from dendrifam.schroder import enumerate_sch, intern_node
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.termio import parse_operand, parse_span, parse_tree, print_span, print_tree

from helpers import corolla, parse_corpus

X = Alphabet(["x", "y"])
Z2 = Semigroup.cyclic(2)
FREE = Semigroup.free(["a", "b"])


def test_parse_single_vertex():
    text = "B[x;1:|,1:|]"
    t = parse_tree(text, "binary", X, FREE)
    assert t == single_vertex("x")
    assert print_tree(t) == text


def test_parse_corolla():
    text = "S[x,y;1:|,1:|,1:|]"
    t = parse_tree(text, "schroder", X, FREE)
    assert t == corolla(["x", "y"])
    assert print_tree(t) == text


def test_whitespace_insensitive():
    t = parse_tree(" B[ x ; 1 : | , a : B[y;1:|,1:|] ] ", "binary", X, FREE)
    assert print_tree(t) == "B[x;1:|,a:B[y;1:|,1:|]]"


def test_leaf_edge_typed_by_element_rejected():
    with pytest.raises(TypingViolation):
        parse_tree("B[x;a:|,1:|]", "binary", X, FREE)


def test_identity_on_internal_edge_rejected():
    with pytest.raises(TypingViolation):
        parse_tree("B[x;1:B[y;1:|,1:|],1:|]", "binary", X, FREE)


def test_identity_token_disambiguation_with_cyclic_semigroup():
    # over Z2 the token 1 is an element; on a leaf edge it is the identity
    text = "B[x;1:B[y;1:|,1:|],1:|]"
    t = parse_tree(text, "binary", X, Z2)
    assert t.left_type == "1"
    assert t.right_type == IDENTITY
    assert print_tree(t) == text


def test_undeclared_tokens_are_parse_errors():
    with pytest.raises(TermSyntaxError):
        parse_tree("B[q;1:|,1:|]", "binary", X, FREE)
    with pytest.raises(TermSyntaxError):
        parse_tree("B[x;1:|,zz:B[y;1:|,1:|]]", "binary", X, FREE)


@pytest.mark.parametrize("parse, text, kind", [
    (parse_span, "1*S[x;1:|,1:|]", "bogus"),
    (parse_operand, "B[x;1:|,1:|]", "Binary"),
    (parse_tree, "|", ""),
])
def test_an_unknown_tree_kind_is_refused(parse, text, kind):
    # any kind but "binary" was read as Schröder: the first parsed, the second failed with
    # "expected a Schröder tree"
    with pytest.raises(ValueError, match=f"^tree kind must be 'binary' or 'schroder', "
                                         f"not '{kind}'$"):
        parse(text, kind, X, FREE)


def test_syntax_error_carries_position():
    with pytest.raises(TermSyntaxError) as info:
        parse_tree("B[x;1:|,1:|", "binary", X, FREE)
    assert info.value.line == 1 and info.value.column > 1


@pytest.mark.parametrize("text, column", [
    ("\u00b2*B[x;1:|,1:|]", 1),
    ("1*B[\u00e9;1:|,1:|]", 5),
    ("1*B[x;1:|,1:|] + \u0663*B[y;1:|,1:|]", 18),
])
def test_non_ascii_word_characters_are_positioned_syntax_errors(text, column):
    # word tokens are ASCII only; a Unicode digit or letter is rejected where it stands
    with pytest.raises(TermSyntaxError) as info:
        parse_span(text, "binary", X, Z2)
    assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.parametrize("text, kind, message", [
    ("1*B[x;1:|,1:|]\n + \t2*B[q;1:|,1:|]", "binary",
     "undeclared decoration symbol 'q' (line 2, column 9)"),
    ("B[x;1:|,\n\tzz:B[y;1:|,1:|]]", "binary",
     "undeclared semigroup element 'zz' (line 2, column 2)"),
    ("S[x;1:|,1:|\n\n   ", "schroder", "expected ']' (line 3, column 4)"),
    ("B[x,y;1:|,1:|]", "binary", "expected ';', found ',' (line 1, column 4)"),
    ("B[x;1:|,1:|,1:|]", "binary", "expected ']', found ',' (line 1, column 12)"),
])
def test_syntax_errors_report_line_and_column(text, kind, message):
    # a tab counts as one column; a newline starts the next line at column 1
    with pytest.raises(TermSyntaxError) as info:
        parse_operand(text, kind, X, FREE)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("1_0*B[x;1:|,1:|]", "coefficient must be a rational (line 1, column 1)"),
    ("1*B[x;1:|,1:|] +\n - 3 / 0x*B[x;1:|,1:|]",
     "coefficient must be a rational (line 2, column 2)"),
    ("2/00*B[x;1:|,1:|]", "coefficient has a zero denominator (line 1, column 1)"),
    ("-/2*B[x;1:|,1:|]", "expected rational, found '/' (line 1, column 2)"),
])
def test_coefficients_are_read_as_numerals_or_refused_at_their_first_token(text, message):
    with pytest.raises(TermSyntaxError) as info:
        parse_span(text, "binary", X, Z2)
    assert str(info.value) == message


def test_coefficient_digit_runs_past_the_limit_are_refused_unechoed():
    # int() used to raise its own ValueError, with no line or column
    limit = sys.get_int_max_str_digits()
    for text in ("9" * (limit + 1), "1/" + "9" * (limit + 1)):
        with pytest.raises(TermSyntaxError) as info:
            parse_span(f"1*B[x;1:|,1:|] + -{text}*B[y;1:|,1:|]", "binary", X, Z2)
        assert str(info.value) == f"coefficient has more than {limit} digits (line 1, column 18)"
    n = "9" * limit  # within the limit: read
    assert parse_span(f"{n}/{n}*B[x;1:|,1:|]", "binary", X, Z2).map == parse_span(
        "1*B[x;1:|,1:|]", "binary", X, Z2).map


def test_arity_mismatch_surfaces():
    with pytest.raises(ArityMismatch):
        parse_tree("S[x,y;1:|,1:|]", "schroder", X, FREE)


@pytest.mark.parametrize("text", [
    "",
    "B[x;1:|,1:|] junk",
    "B[x;1:|]",
    "B[x 1:|,1:|]",
    "S[;1:|,1:|]",
    "1*",
    "1B[x;1:|,1:|]",
    "@",
])
def test_malformed_inputs_rejected_deterministically(text):
    for _ in range(2):
        with pytest.raises(TermSyntaxError):
            parse_operand(text, "binary", X, FREE)


def test_round_trip_enumerated_binary():
    for n in range(1, 4):
        for t in enumerate_bin(n, X, Z2):
            assert parse_tree(print_tree(t), "binary", X, Z2) == t


def test_round_trip_enumerated_schroder():
    for n in range(1, 4):
        for t in enumerate_sch(n, X, Z2):
            assert parse_tree(print_tree(t), "schroder", X, Z2) == t


def right_comb_and_text(kind, n):
    """The right comb of ``n`` vertices over x and Z2, and its text."""
    head = "B" if kind == "binary" else "S"
    comb = single_vertex("x") if kind == "binary" else corolla(["x"])
    for _ in range(n - 1):
        if kind == "binary":
            comb = graft_binary(LEAF, "x", IDENTITY, "0", comb)
        else:
            comb = intern_node(("x",), ((IDENTITY, LEAF), ("0", comb)))
    text = f"{head}[x;1:|,0:" * (n - 1) + f"{head}[x;1:|,1:|]" + "]" * (n - 1)
    return comb, text


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_combs_of_10000_vertices_parse_without_recursion(kind):
    comb, text = right_comb_and_text(kind, 10000)
    assert parse_tree(text, kind, X, Z2) is comb
    assert parse_span("1*" + text, kind, X, Z2).terms == ((Fraction(1), comb),)


@pytest.mark.parametrize("kind", ["binary", "schroder"])
def test_combs_of_800_vertices_print_and_parse_back(kind):
    # the printer recurses once per level of either kind
    comb, text = right_comb_and_text(kind, 800)
    assert print_tree(comb) == text
    assert parse_tree(print_tree(comb), kind, X, Z2) is comb


def test_span_printing_and_parsing():
    t, u = single_vertex("x"), single_vertex("y")
    text = "1*B[x;1:|,1:|] + -1*B[y;1:|,1:|]"
    span = parse_span(text, "binary", X, Z2)
    assert span.terms == ((Fraction(1), t), (Fraction(-1), u))
    assert print_span(span) == text


def test_span_zero():
    span = parse_span("0", "binary", X, Z2)
    assert span.is_zero()
    assert print_span(span) == "0"


def test_span_normalizes_rationals_order_and_duplicates():
    text = "2/4*B[y;1:|,1:|] + 1*B[x;1:|,1:|] + 1/2*B[y;1:|,1:|]"
    span = parse_span(text, "binary", X, Z2)
    assert print_span(span) == "1*B[x;1:|,1:|] + 1*B[y;1:|,1:|]"


def test_span_cancellation():
    text = "1*B[x;1:|,1:|] + -1*B[x;1:|,1:|]"
    assert parse_span(text, "binary", X, Z2).is_zero()


def test_span_rejects_leaf_term():
    with pytest.raises(TermSyntaxError):
        parse_span("1*|", "binary", X, Z2)


def test_operand_forms():
    assert parse_operand("|", "binary", X, Z2) is LEAF
    single = parse_operand("B[x;1:|,1:|]", "binary", X, Z2)
    assert single.terms == ((Fraction(1), single_vertex("x")),)
    assert parse_operand("0", "binary", X, Z2).is_zero()


def test_corpus_round_trip():
    from pathlib import Path

    alphabet = Alphabet(["x", "y", "z", "u"])
    semigroup = Semigroup.free(["a", "b", "w"])
    text = (Path(__file__).parent / "data" / "golden_products.txt").read_text()
    terms = parse_corpus(text, "binary", alphabet, semigroup)
    assert len(terms) == 5
    canonical = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    canonical = [line for line in canonical if line]
    # spans reprint bit-exactly; the bare-tree line reprints as a tree
    for term, line in zip(terms, canonical):
        if line.startswith("B"):
            assert print_tree(term.terms[0][1]) == line
        else:
            assert print_span(term) == line


@st.composite
def random_binary_tree(draw, size=None):
    size = draw(st.integers(min_value=1, max_value=5)) if size is None else size
    if size == 1:
        return single_vertex(draw(st.sampled_from(["x", "y"])))
    left_size = draw(st.integers(min_value=0, max_value=size - 1))

    def sub(n):
        if n == 0:
            return LEAF, IDENTITY
        tree = draw(random_binary_tree(size=n))
        return tree, draw(st.sampled_from(["0", "1"]))

    left, left_type = sub(left_size)
    right, right_type = sub(size - 1 - left_size)
    dec = draw(st.sampled_from(["x", "y"]))
    return graft_binary(left, dec, left_type, right_type, right)


@given(random_binary_tree())
@settings(max_examples=150, deadline=None)
def test_round_trip_random_trees(t):
    assert parse_tree(print_tree(t), "binary", X, Z2) == t


ENUMERATED = {"binary": [t for n in range(1, 4) for t in enumerate_bin(n, X, Z2)],
              "schroder": [t for n in range(1, 4) for t in enumerate_sch(n, X, Z2)]}
# a word or any other visible character: the grammar's tokens
TOKEN = re.compile(r"[A-Za-z0-9_]+|\S")


@st.composite
def spaced_spans(draw):
    """A printed span of enumerated trees of one kind, the same text with
    whitespace put between random tokens, and the kind."""
    kind = draw(st.sampled_from(sorted(ENUMERATED)))
    trees = draw(st.lists(st.sampled_from(ENUMERATED[kind]), min_size=1, max_size=4,
                          unique=True))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    text = " + ".join(f"{draw(coeffs)}*{print_tree(t)}" for t in trees)
    printed = print_span(parse_span(text, kind, X, Z2))
    tokens = TOKEN.findall(printed)
    gaps = draw(st.lists(st.text(alphabet=" \t\n\r\u00a0\u2003", max_size=2),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return printed, "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1], kind


@given(spaced_spans())
@settings(max_examples=150, deadline=None)
def test_whitespace_between_tokens_changes_neither_span_nor_inferred_kind(case):
    printed, spaced, kind = case
    reparsed = parse_span(spaced, kind, X, Z2)
    assert reparsed == parse_span(printed, kind, X, Z2)
    assert print_span(reparsed) == printed
    for op in ("prec", "succ", "dot"):
        assert _infer_kind(op, spaced) == kind
