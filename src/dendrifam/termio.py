"""Bit-exact parser and printer for the term grammar.

Trees:        ``|``, ``B[x;a:L,b:R]``, ``S[x1,...,xk;a0:T0,...,ak:Tk]``
Spans:        ``c1*T1 + c2*T2 + ...`` with rational coefficients, or ``0``
Expressions:  ``gen(x)``, ``prec[w](E1,E2)``, ``succ[w](E1,E2)``, ``dot(E1,E2)``

Whitespace between tokens is ignored.  Decoration symbols and semigroup
tokens must be declared up front; anything undeclared is a parse error.
The edge token ``1`` denotes the adjoined identity exactly when the
child below it is a leaf (forced by the typing invariant), so a
semigroup containing an element literally named ``1`` stays parseable.

A parsed span carries the ranked order of its tree kind, and
:func:`print_span` prints the terms in that order.  The walk that ranks
the span also finds the subtrees it repeats; the printer keeps the text
of those only, and prints each once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Union

from . import pbtrees, schroder
from .basis import LEAF, Alphabet, LinComb, ZERO_SPAN, normalize, span_single
from .errors import TermSyntaxError
from .exprs import Dot, Expr, Gen, Prec, Succ
from .pbtrees import BinNode, BinTree
from .schroder import SchNode, SchTree
from .semigroups import IDENTITY, TOKEN_RE, Semigroup

_SYMBOL_CHARS = set("[];:,*+/()|-")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOL_CHARS:
            tokens.append(("sym", ch, line, col))
            col += 1
            i += 1
            continue
        word = TOKEN_RE.match(text, i)
        if word:
            tokens.append(("word", word.group(), line, col))
            col += word.end() - i
            i = word.end()
            continue
        raise TermSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet, semigroup: Semigroup):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.semigroup = semigroup

    # -- token plumbing ------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        _, value, line, col = self.peek()
        raise TermSyntaxError(f"{message}, found {value!r}" if value else message,
                              line, col)

    def expect_sym(self, symbol):
        kind, value, _, _ = self.peek()
        if kind != "sym" or value != symbol:
            self.fail(f"expected {symbol!r}")
        return self.advance()

    def expect_word(self, what="token"):
        kind, value, _, _ = self.peek()
        if kind != "word":
            self.fail(f"expected {what}")
        return self.advance()[1]

    def at_sym(self, symbol):
        kind, value, _, _ = self.peek()
        return kind == "sym" and value == symbol

    def expect_end(self):
        if self.peek()[0] != "end":
            self.fail("unexpected trailing input")

    def separated(self, read, separator=","):
        """One or more items read by ``read``, between ``separator`` symbols."""
        items = [read()]
        while self.at_sym(separator):
            self.advance()
            items.append(read())
        return items

    # -- pieces ----------------------------------------------------------

    def decoration(self) -> str:
        _, value, line, col = self.peek()
        word = self.expect_word("decoration symbol")
        if word not in self.alphabet:
            raise TermSyntaxError(f"undeclared decoration symbol {word!r}", line, col)
        return word

    def edge_token(self) -> str:
        _, value, line, col = self.peek()
        word = self.expect_word("edge type")
        if word != "1" and not self.semigroup.contains(word):
            raise TermSyntaxError(f"undeclared semigroup element {word!r}", line, col)
        return word

    def resolve_edge(self, token: str, child):
        # `1` is the adjoined identity on a leaf edge; on an internal edge it
        # can only be the semigroup element of that name (the constructor
        # rejects the identity there anyway).
        if child is LEAF:
            return IDENTITY if token == "1" else token
        return token if self.semigroup.contains(token) else IDENTITY

    def typed_child(self, read):
        """``a:T``: the subtree ``T`` read by ``read``, with its edge type."""
        token = self.edge_token()
        self.expect_sym(":")
        child = read()
        return self.resolve_edge(token, child), child

    def rational(self) -> Fraction:
        negative = self.at_sym("-")
        if negative:
            self.advance()
        _, value, line, col = self.peek()
        word = self.expect_word("rational")
        if not word.isdigit():
            raise TermSyntaxError(f"expected integer digits, found {word!r}", line, col)
        numerator = -int(word) if negative else int(word)
        if self.at_sym("/"):
            self.advance()
            _, value, line, col = self.peek()
            den = self.expect_word("denominator")
            if not den.isdigit() or int(den) == 0:
                raise TermSyntaxError(f"bad denominator {den!r}", line, col)
            return Fraction(numerator, int(den))
        return Fraction(numerator)

    # -- trees -------------------------------------------------------------

    def bin_tree(self) -> BinTree:
        if self.at_sym("|"):
            self.advance()
            return LEAF
        kind, value, line, col = self.peek()
        if kind == "word" and value == "B":
            self.advance()
            self.expect_sym("[")
            dec = self.decoration()
            self.expect_sym(";")
            left_type, left = self.typed_child(self.bin_tree)
            self.expect_sym(",")
            right_type, right = self.typed_child(self.bin_tree)
            self.expect_sym("]")
            return BinNode(dec, left_type, left, right_type, right)
        self.fail("expected a binary tree ('|' or 'B[...]')")

    def sch_tree(self) -> SchTree:
        if self.at_sym("|"):
            self.advance()
            return LEAF
        kind, value, line, col = self.peek()
        if kind == "word" and value == "S":
            self.advance()
            self.expect_sym("[")
            decs = self.separated(self.decoration)
            self.expect_sym(";")
            children = self.separated(lambda: self.typed_child(self.sch_tree))
            self.expect_sym("]")
            return SchNode(tuple(decs), tuple(children))
        self.fail("expected a Schröder tree ('|' or 'S[...]')")

    def tree(self, kind: str):
        return self.bin_tree() if kind == "binary" else self.sch_tree()

    # -- spans ---------------------------------------------------------------

    def span(self, kind: str) -> LinComb:
        k, value, _, _ = self.peek()
        if k == "word" and value == "0" and self.tokens[self.pos + 1][0] == "end":
            self.advance()
            return ZERO_SPAN
        pairs = self.separated(lambda: self.span_term(kind), "+")
        nodes = pbtrees if kind == "binary" else schroder
        return normalize(pairs, partial(nodes.ranks, self.alphabet, self.semigroup))

    def operand(self, kind: str):
        k, value, _, _ = self.peek()
        if (k == "sym" and value == "|") or (k == "word" and value in ("B", "S")):
            t = self.tree(kind)
            return t if t is LEAF else span_single(t)
        return self.span(kind)

    def span_term(self, kind: str):
        coeff = self.rational()
        self.expect_sym("*")
        t = self.tree(kind)
        if t is LEAF:
            self.fail("the leaf '|' cannot appear in a span")
        return (coeff, t)

    # -- expressions ------------------------------------------------------------

    def expr(self) -> Expr:
        _, value, line, col = self.peek()
        head = self.expect_word("expression head")
        if head == "gen":
            self.expect_sym("(")
            symbol = self.decoration()
            self.expect_sym(")")
            return Gen(symbol)
        if head in ("prec", "succ"):
            self.expect_sym("[")
            _, _, oline, ocol = self.peek()
            omega = self.expect_word("family index")
            if not self.semigroup.contains(omega):
                raise TermSyntaxError(
                    f"undeclared semigroup element {omega!r}", oline, ocol)
            self.expect_sym("]")
            return (Prec if head == "prec" else Succ)(omega, *self.operands())
        if head == "dot":
            return Dot(*self.operands())
        raise TermSyntaxError(f"unknown expression head {head!r}", line, col)

    def operands(self):
        """``(E1,E2)``: the two operand expressions of a product."""
        self.expect_sym("(")
        left = self.expr()
        self.expect_sym(",")
        right = self.expr()
        self.expect_sym(")")
        return left, right


# -- public parse functions -----------------------------------------------

def _parse(text: str, alphabet: Alphabet, semigroup: Semigroup, read):
    """``read(parser)`` on ``text``, which it must consume entirely."""
    parser = _Parser(text, alphabet, semigroup)
    value = read(parser)
    parser.expect_end()
    return value


def parse_tree(text: str, kind: str, alphabet: Alphabet, semigroup: Semigroup):
    return _parse(text, alphabet, semigroup, lambda parser: parser.tree(kind))


def parse_span(text: str, kind: str, alphabet: Alphabet, semigroup: Semigroup) -> LinComb:
    return _parse(text, alphabet, semigroup, lambda parser: parser.span(kind))


def parse_expr(text: str, alphabet: Alphabet, semigroup: Semigroup) -> Expr:
    return _parse(text, alphabet, semigroup, _Parser.expr)


def parse_operand(text: str, kind: str, alphabet: Alphabet, semigroup: Semigroup):
    """A product operand: a single tree (possibly the leaf) or a span."""
    return _parse(text, alphabet, semigroup, lambda parser: parser.operand(kind))


# -- printers -------------------------------------------------------------

def _printer(repeated):
    """A printer that prints a subtree in ``repeated``, one that occurs more
    than once among the trees it prints, only once, and keeps no other text."""
    texts = dict.fromkeys(repeated)
    texts[LEAF] = "|"

    def show(t) -> str:
        text = texts.get(t)
        if text is None:
            if isinstance(t, BinNode):
                text = (f"B[{t.dec};{t.left_type}:{show(t.left)},"
                        f"{t.right_type}:{show(t.right)}]")
            elif isinstance(t, SchNode):
                children = ",".join([f"{etype}:{show(child)}" for etype, child in t.children])
                text = f"S[{','.join(t.decs)};{children}]"
            else:
                raise TypeError(f"not a tree: {t!r}")
            if t in texts:
                texts[t] = text
        return text

    return show


def print_tree(t: Union[BinTree, SchTree]) -> str:
    repeated = set()
    if t is not LEAF:
        nodes = pbtrees if isinstance(t, BinNode) else schroder
        nodes.leaf_counts((t,), repeated)  # raises TypeError on a non-tree
    return _printer(repeated)(t)


def print_span(s: LinComb) -> str:
    """The terms in canonical order; ordering the span also finds the subtrees
    it repeats, which are printed once."""
    if s.is_zero():
        return "0"
    repeated = set()
    terms = s.ordered(repeated)
    show = _printer(repeated)
    return " + ".join([f"{coeff}*{show(tree)}" for coeff, tree in terms])


def print_expr(e: Expr) -> str:
    if isinstance(e, Gen):
        return f"gen({e.symbol})"
    if isinstance(e, Prec):
        return f"prec[{e.omega}]({print_expr(e.left)},{print_expr(e.right)})"
    if isinstance(e, Succ):
        return f"succ[{e.omega}]({print_expr(e.left)},{print_expr(e.right)})"
    if isinstance(e, Dot):
        return f"dot({print_expr(e.left)},{print_expr(e.right)})"
    raise TypeError(f"not an expression: {e!r}")
