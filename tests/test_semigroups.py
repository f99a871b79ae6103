import re
import sys
from itertools import product

import pytest

from dendrifam.errors import InfiniteSemigroup, InvalidElement, SemigroupViolation, shown
from dendrifam.pbtrees import single_vertex
from dendrifam.semigroups import IDENTITY, Semigroup, from_config_text

Z2_TABLE = Semigroup.table(["e", "g"], [["e", "g"], ["g", "e"]])


def test_free_concatenation():
    s = Semigroup.free(["a", "b"])
    assert s.mul("a", "b") == "ab"
    assert s.mul("ab", "ba") == "abba"


def test_cyclic_addition():
    s = Semigroup.cyclic(2)
    assert s.mul("1", "1") == "0"
    assert s.mul("0", "1") == "1"


def test_cyclic_elements_are_canonical_numerals_below_the_order():
    s = Semigroup.cyclic(10**12)
    assert s.contains("999999999999") and s.contains("0")
    for name in ["1000000000000", "01", "00", "-1", "+1", "1.0", " 1", "", "x",
                 "\u0661", "9" * 5000, IDENTITY, 7, ["0"]]:
        assert not s.contains(name), name
        assert not Z2_TABLE.contains(name)
    assert s.mul("999999999999", "2") == "1"
    assert s.element_key("999999999999") > s.element_key("1000")
    with pytest.raises(InvalidElement):
        s.element_key("01")
    assert Semigroup.cyclic(12).elements()[9:] == ["9", "10", "11"]


def test_table_product():
    assert Z2_TABLE.mul("g", "g") == "e"


def test_unknown_element_rejected():
    with pytest.raises(InvalidElement):
        Semigroup.cyclic(2).mul("2", "0")
    with pytest.raises(InvalidElement):
        Z2_TABLE.mul("h", "e")
    with pytest.raises(InvalidElement):
        Semigroup.free(["a", "b"]).mul("c", "a")


def test_free_membership_by_segmentation():
    s = Semigroup.free(["ab", "a"])
    assert s.contains("ab")
    assert s.contains("aab")
    assert not s.contains("b")
    assert not s.contains("")


def test_free_membership_splits_each_word_once(monkeypatch):
    # the parser and mul asked for the same words over and over, each time
    # running the split of the word into generators
    s = Semigroup.free(["ab", "a"])
    split, words = s._segmentable, []
    monkeypatch.setattr(s, "_segmentable", lambda word: words.append(word) or split(word))
    for _ in range(3):
        assert s.contains("aab") and s.contains("ab") and not s.contains("b")
        assert s.mul("aab", "ab") == "aabab" and s.element_key("aab") == (3, "aab")
    assert sorted(words) == ["aab", "ab"] + ["b"] * 3  # a non-element is not kept
    with pytest.raises(InvalidElement):
        s.element_key("ba")


@pytest.mark.parametrize("generators", [["a", "aa"], ["a", "ab", "ba"], ["a", "b", "ab"]])
def test_free_rejects_generators_that_are_not_uniquely_decodable(generators):
    # a*a is the generator aa, a*ba == ab*a, a*b is the generator ab
    with pytest.raises(SemigroupViolation):
        Semigroup.free(generators)


def test_free_accepts_uniquely_decodable_non_prefix_codes():
    s = Semigroup.free(["a", "ab", "bb"])
    assert len(s.elements(2)) == 3 + 3 * 3


def test_ext_identity_laws():
    s = Semigroup.free(["a"])
    omega = "a"
    assert s.mul_ext(IDENTITY, omega) == omega
    assert s.mul_ext(omega, IDENTITY) == omega
    assert s.mul_ext(IDENTITY, IDENTITY) == IDENTITY
    assert s.mul_ext("a", "a") == "aa"


def test_ext_restricted_to_semigroup_is_mul():
    for a, b in product(["0", "1"], repeat=2):
        s = Semigroup.cyclic(2)
        assert s.mul_ext(a, b) == s.mul(a, b)


def test_identity_is_fresh_even_for_monoids():
    # the table below has a unit e, but the adjoined identity stays distinct
    assert IDENTITY != "e"
    assert str(IDENTITY) == "1"


@pytest.mark.parametrize("n", [1, 2, 5])
def test_finite_associativity_exhaustive(n):
    s = Semigroup.cyclic(n)
    for a, b, c in product(s.elements(), repeat=3):
        assert s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c))


def test_free_associativity_bounded_sample():
    s = Semigroup.free(["a", "b"])
    words = s.elements(max_word=2)
    for a, b, c in product(words, repeat=3):
        assert s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c))


def test_validate_reports_nonassociative_table():
    # x*x = y with every other product x makes (x x) x != x (x x)
    with pytest.raises(SemigroupViolation) as info:
        Semigroup.table(["x", "y"], [["y", "x"], ["x", "x"]])
    assert info.value.witness is not None


def test_validate_reports_closure_violation():
    with pytest.raises(SemigroupViolation):
        Semigroup.table(["x"], [["z"]])


def test_table_shape_checked_at_construction():
    with pytest.raises(SemigroupViolation):
        Semigroup.table(["x", "y"], [["x", "y"]])
    with pytest.raises(SemigroupViolation):
        Semigroup.table(["x", "y"], [["x"], ["y"]])


def test_elements_order_and_bounds():
    assert Semigroup.cyclic(3).elements() == ["0", "1", "2"]
    assert Z2_TABLE.elements() == ["e", "g"]
    free = Semigroup.free(["b", "a"])
    assert free.elements(max_word=1) == ["a", "b"]
    assert free.elements(max_word=2) == ["a", "b", "aa", "ab", "ba", "bb"]
    with pytest.raises(InfiniteSemigroup):
        free.elements()


@pytest.mark.parametrize("bound", [0, -1])
def test_free_word_bound_below_one_rejected(bound):
    # no words at all would make every sweep over the elements vacuous
    with pytest.raises(ValueError, match="at least 1"):
        Semigroup.free(["a"]).elements(bound)
    assert Semigroup.cyclic(2).elements(bound) == ["0", "1"]


def test_element_key_orders():
    s = Z2_TABLE
    assert s.element_key("e") < s.element_key("g")
    assert s.ext_key(IDENTITY) < s.ext_key("e")
    f = Semigroup.free(["a", "b"])
    assert f.element_key("b") < f.element_key("aa")


def test_config_free():
    s = from_config_text("kind=free\ngenerators=a,b\n")
    assert s.kind == "free" and s.generators == ("a", "b")


def test_config_cyclic():
    s = from_config_text("# comment\nkind=cyclic\norder=4\n")
    assert s.kind == "cyclic" and s.order == 4


def test_config_table_csv():
    text = "kind=table\n,e,g\ne,e,g\ng,g,e\n"
    s = from_config_text(text)
    assert s.mul("g", "g") == "e"


@pytest.mark.parametrize("text, check", [
    ("kind=cyclic  # Z3\norder=3\n", lambda s: s.kind == "cyclic" and s.order == 3),
    ("kind=cyclic\norder=3  # three\n", lambda s: s.kind == "cyclic" and s.order == 3),
    ("kind=free\ngenerators=a,b # two\n", lambda s: s.generators == ("a", "b")),
    ("kind=table\n,e,g\ne,e,g  # e is the unit\ng,g,e\n", lambda s: s.mul("e", "g") == "g"),
], ids=["kind", "order", "generators", "table-row"])
def test_config_ignores_a_trailing_comment(text, check):
    # a comment after the content of a line is ignored, as in the algebra files
    assert check(from_config_text(text))


@pytest.mark.parametrize("text", [
    "",
    "kind=ring\n",
    "kind=free\n",
    "kind=cyclic\norder=zero\n",
    "kind=table\ne,g\n",
    "kind=table\n,e,g\ne,e,g\ng,g,e\ng,e,g\n",  # a repeated row, once taken for the last
])
def test_config_rejects(text):
    with pytest.raises(SemigroupViolation):
        from_config_text(text)


@pytest.mark.parametrize("text, message", [
    ("kind=cyclic\norder=3\norder=4\n", "order= may be declared only once"),
    ("kind=free\ngenerators=a\ngenerators=b\n", "generators= may be declared only once"),
    ("kind=free\ngenerators=a\nbogus line\n", "unrecognised line in semigroup config: 'bogus line'"),
    ("kind=cyclic\nbogus\norder=3\n", "unrecognised line in semigroup config: 'bogus'"),
    ("kind=free\norder=3\ngenerators=a\n", "unrecognised line in semigroup config: 'order=3'"),
], ids=["repeated-order", "repeated-generators", "trailing-line", "leading-line", "other-key"])
def test_config_refuses_a_line_it_does_not_read(text, message):
    # the first generators= or order= line used to be read and every other line ignored
    with pytest.raises(SemigroupViolation, match=f"^{re.escape(message)}$"):
        from_config_text(text)


def test_bad_tokens_rejected():
    with pytest.raises(SemigroupViolation):
        Semigroup.free(["a b"])
    with pytest.raises(SemigroupViolation):
        Semigroup.table(["e", "e"], [["e", "e"], ["e", "e"]])
    with pytest.raises(SemigroupViolation, match="^cyclic semigroup needs order >= 1$"):
        Semigroup.cyclic(0)


@pytest.mark.parametrize("order", [single_vertex("x"), "3", 2.5, True, None],
                         ids=["tree", "str", "float", "bool", "none"])
def test_cyclic_order_must_be_an_int(order):
    # a non-int order used to raise a bare TypeError, or to be accepted
    with pytest.raises(SemigroupViolation,
                       match=f"order must be an int, got {re.escape(shown(order))}$"):
        Semigroup.cyclic(order)


def test_cyclic_order_past_the_int_to_str_limit_is_refused():
    # such an order used to be accepted, and contains, require, mul and repr
    # then raised ValueError from the int-to-str limit
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SemigroupViolation, match=f"order has more than {limit} digits$"):
        Semigroup.cyclic(10**5000)
    with pytest.raises(SemigroupViolation, match=f"order has more than {limit} digits$"):
        Semigroup.cyclic(10**limit)
    z = Semigroup.cyclic(10**limit - 1)  # the largest order with a numeral in the limit
    last = "9" * (limit - 1) + "8"
    assert z.contains(last) and z.mul(last, "1") == "0" and z.require("1") == "1"
    assert not z.contains("9" * limit) and repr(z).startswith("Semigroup.cyclic(9")


@pytest.mark.parametrize("build", [
    lambda: Semigroup.free([1]),
    lambda: Semigroup.free([None]),
    lambda: Semigroup.table([1], [[1]]),
], ids=["free-int", "free-none", "table-int"])
def test_non_string_tokens_rejected(build):
    # a non-str token used to leak a raw TypeError from the token pattern
    with pytest.raises(SemigroupViolation, match="bad element token"):
        build()


@pytest.mark.parametrize("value", [5, 1.5])
def test_free_membership_of_non_strings(value):
    # segmenting an int leaked a raw TypeError from len()
    free = Semigroup.free(["a"])
    assert not free.contains(value)
    with pytest.raises(InvalidElement):
        free.require(value)


@pytest.mark.parametrize("semigroup", [Semigroup.cyclic(2), Semigroup.free(["0"]), Z2_TABLE],
                         ids=["cyclic", "free", "table"])
def test_an_unhashable_value_is_no_element(semigroup):
    # element_key raised a bare TypeError (unhashable type: 'list'), where require
    # already raised InvalidElement
    for judge in semigroup.element_key, semigroup.require:
        with pytest.raises(InvalidElement, match="^a list is not an element of the semigroup$"):
            judge(["0"])
    assert not semigroup.contains(["0"])
