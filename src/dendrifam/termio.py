"""Bit-exact parser and printer for the term grammar.

Trees:        ``|``, ``B[x;a:L,b:R]``, ``S[x1,...,xk;a0:T0,...,ak:Tk]``
Spans:        ``c1*T1 + c2*T2 + ...`` with rational coefficients, or ``0``

Whitespace between tokens is ignored.  Decoration symbols and semigroup
tokens must be declared up front; anything undeclared is a parse error.
The edge token ``1`` denotes the adjoined identity exactly when the
child below it is a leaf (forced by the typing invariant), so a
semigroup containing an element literally named ``1`` stays parseable.

One regular expression scans the text into tokens, each with its offset;
a line and column are worked out only for an error.  Both tree kinds are
read by one loop over a stack of open vertices, so trees and spans of
any depth parse.  Only the printer recurses, one stack frame per tree
level.

A parsed operand, a single tree or a span, carries the ranked order of its
tree kind over the parser's alphabet and semigroup, which a family over these
two objects trusts unread: the parser has checked every decoration and edge.
:func:`print_span` prints the terms in that order; the walk that ranks them
also finds the subtrees they repeat, whose text alone the printer keeps.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import Union

from . import pbtrees, schroder
from .basis import LEAF, Alphabet, LinComb, ZERO_SPAN, normalize
from .errors import TermSyntaxError
from .pbtrees import BinNode, BinTree
from .schroder import SchNode, SchTree
from .semigroups import IDENTITY, TOKEN_RE, Semigroup

# whitespace (``\s`` is ``str.isspace``), then a symbol, a word, or a character
# the grammar has no use for; only trailing whitespace goes unmatched
_SCANNER = re.compile(
    rf"\s*(?:(?P<sym>[][;:,*+/()|-])|(?P<word>{TOKEN_RE.pattern})|(?P<bad>\S))")


def _position(text: str, offset: int):
    """The line and column of ``offset`` in ``text``, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str):
    """A ``(kind, value, offset)`` triple per token, then an ``end`` token."""
    tokens = []
    for match in _SCANNER.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise TermSyntaxError(f"unexpected character {match[kind]!r}",
                                  *_position(text, match.start(kind)))
        tokens.append((kind, match[kind], match.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, kind: str, alphabet: Alphabet, semigroup: Semigroup):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet
        self.semigroup = semigroup
        self.binary = kind == "binary"
        # the order of every span read, a single tree's too
        self.order = partial((pbtrees if self.binary else schroder).ranks, alphabet, semigroup)

    # -- token plumbing ------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def raise_at(self, message, offset):
        raise TermSyntaxError(message, *_position(self.text, offset))

    def fail(self, message):
        _, value, offset = self.peek()
        self.raise_at(f"{message}, found {value!r}" if value else message, offset)

    def at_sym(self, symbol):
        # no word, and not the end token, equals a symbol character
        return self.tokens[self.pos][1] == symbol

    def expect_sym(self, symbol):
        if not self.at_sym(symbol):
            self.fail(f"expected {symbol!r}")
        self.pos += 1

    def expect_word(self, what, valid=None, rejection=""):
        """The next word; ``rejection`` (a format of its repr) is raised at
        the word when ``valid`` refuses it."""
        kind, value, offset = self.peek()
        if kind != "word":
            self.fail(f"expected {what}")
        if valid is not None and not valid(value):
            self.raise_at(rejection.format(repr(value)), offset)
        self.pos += 1
        return value

    def expect_end(self):
        if self.peek()[0] != "end":
            self.fail("unexpected trailing input")

    # -- pieces ----------------------------------------------------------

    def decoration(self) -> str:
        return self.expect_word("decoration symbol", self.alphabet.__contains__,
                                "undeclared decoration symbol {}")

    def child_edge(self) -> str:
        """``a:``, the edge token above the next child."""
        token = self.expect_word("edge type",
                                 lambda word: word == "1" or self.semigroup.contains(word),
                                 "undeclared semigroup element {}")
        self.expect_sym(":")
        return token

    def resolve_edge(self, token: str, child):
        # `1` is the adjoined identity on a leaf edge; on an internal edge it
        # can only be the semigroup element of that name (the constructor
        # rejects the identity there anyway).
        if child is LEAF:
            return IDENTITY if token == "1" else token
        return token if self.semigroup.contains(token) else IDENTITY

    def rational(self) -> Fraction:
        negative = self.at_sym("-")
        if negative:
            self.pos += 1
        word = self.expect_word("rational", str.isdigit, "expected integer digits, found {}")
        numerator = -int(word) if negative else int(word)
        if self.at_sym("/"):
            self.pos += 1
            den = self.expect_word("denominator", lambda d: d.isdigit() and int(d) != 0,
                                   "bad denominator {}")
            return Fraction(numerator, int(den))
        return Fraction(numerator)

    # -- trees -------------------------------------------------------------

    def tree(self):
        """A tree read in one loop: a ``B[`` or ``S[`` vertex opens, each
        finished subtree goes to the open vertex above it, and a ``]``
        closes that vertex into the next finished subtree."""
        binary = self.binary
        head, name = ("B", "binary") if binary else ("S", "Schröder")
        # the open vertices, each [decorations, typed children, next edge token]
        stack = []
        while True:
            if self.at_sym("|"):
                self.pos += 1
                t = LEAF
            elif self.peek()[1] == head:
                self.pos += 1
                self.expect_sym("[")
                decs = [self.decoration()]
                while not binary and self.at_sym(","):
                    self.pos += 1
                    decs.append(self.decoration())
                self.expect_sym(";")
                stack.append([decs, [], self.child_edge()])
                continue
            else:
                self.fail(f"expected a {name} tree ('|' or '{head}[...]')")
            while stack:
                vertex = stack[-1]
                decs, children, token = vertex
                children.append((self.resolve_edge(token, t), t))
                # a binary vertex needs its second child; a Schröder one may go on
                if (len(children) == 1) if binary else self.at_sym(","):
                    self.expect_sym(",")
                    vertex[2] = self.child_edge()
                    break
                self.expect_sym("]")
                stack.pop()
                if binary:
                    t = BinNode(decs[0], *children[0], *children[1])
                else:
                    t = SchNode(tuple(decs), tuple(children))
            if not stack:
                return t

    # -- spans ---------------------------------------------------------------

    def span(self) -> LinComb:
        if self.peek()[1] == "0" and self.tokens[self.pos + 1][0] == "end":
            self.pos += 1
            return ZERO_SPAN
        pairs = [self.span_term()]
        while self.at_sym("+"):
            self.pos += 1
            pairs.append(self.span_term())
        return normalize(pairs, self.order)

    def operand(self):
        if self.peek()[1] in ("|", "B", "S"):
            t = self.tree()
            return t if t is LEAF else LinComb({t: 1}, self.order)
        return self.span()

    def span_term(self):
        coeff = self.rational()
        self.expect_sym("*")
        t = self.tree()
        if t is LEAF:
            self.fail("the leaf '|' cannot appear in a span")
        return (coeff, t)


# -- public parse functions -----------------------------------------------

def _parse(read, text: str, kind: str, alphabet: Alphabet, semigroup: Semigroup):
    """``read(parser)`` on ``text``, which it must consume entirely."""
    parser = _Parser(text, kind, alphabet, semigroup)
    value = read(parser)
    parser.expect_end()
    return value


def parse_tree(text: str, kind: str, alphabet: Alphabet, semigroup: Semigroup):
    return _parse(_Parser.tree, text, kind, alphabet, semigroup)


def parse_span(text: str, kind: str, alphabet: Alphabet, semigroup: Semigroup) -> LinComb:
    return _parse(_Parser.span, text, kind, alphabet, semigroup)


def parse_operand(text: str, kind: str, alphabet: Alphabet, semigroup: Semigroup):
    """A product operand: a single tree (possibly the leaf) or a span."""
    return _parse(_Parser.operand, text, kind, alphabet, semigroup)


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
                # a loop, not a comprehension: before Python 3.12 a comprehension
                # is one more stack frame per level
                children = []
                for etype, child in t.children:
                    children.append(f"{etype}:{show(child)}")
                text = f"S[{','.join(t.decs)};{','.join(children)}]"
            else:
                raise TypeError(f"not a tree: a {type(t).__name__}")
            if t in texts:
                texts[t] = text
        return text

    return show


def print_tree(t: Union[BinTree, SchTree]) -> str:
    repeated = set()  # the walk raises TypeError on a non-tree
    (pbtrees if isinstance(t, BinNode) else schroder).walk((t,), repeated)
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
