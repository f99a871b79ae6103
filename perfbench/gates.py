"""Correctness gates that do not depend on the code under test.

Expected values come from closed forms (tree counts, binomial term
counts) and from the independent untyped implementation in
``tests/untyped_free.py``.  Product outputs are checked through their
printed text, read back by the small parser here rather than by
``dendrifam.termio``, so the gates survive changes to the span and tree
representations.  Every check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import importlib.util
import re
from fractions import Fraction
from math import comb
from pathlib import Path

ORACLE_PATH = Path("tests") / "untyped_free.py"


def load_oracle(root: Path):
    """Import the untyped free (tri)dendriform oracle by file path."""
    path = Path(root) / ORACLE_PATH
    spec = importlib.util.spec_from_file_location("untyped_free_oracle", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(f"oracle not found: {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- closed-form counts ---------------------------------------------------------

def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def schroder_trees(leaves: int, vertices: int) -> int:
    """Planar trees with ``leaves`` leaves and ``vertices`` internal vertices of
    arity >= 2 (Kirkman-Cayley numbers)."""
    if vertices < 1 or vertices > leaves - 1:
        return 0
    return comb(leaves - 2, vertices - 1) * comb(leaves + vertices - 1, vertices - 1) // vertices


def basis_count(kind: str, symbols: int, elements: int, max_leaves: int) -> int:
    """Number of typed decorated basis trees with 2..max_leaves leaves.

    A tree with m leaves carries m-1 decorations; its v-1 internal edges
    each carry a semigroup element.  Binary trees have v = m-1.
    """
    total = 0
    for m in range(2, max_leaves + 1):
        if kind == "binary":
            total += catalan(m - 1) * symbols ** (m - 1) * elements ** (m - 2)
        else:
            for v in range(1, m):
                total += schroder_trees(m, v) * symbols ** (m - 1) * elements ** (v - 1)
    return total


def spine_terms(op: str, p: int, q: int) -> int:
    """Terms of (right spine with p vertices) op (left spine with q vertices)."""
    return comb(p + q - 1, q) if op == "prec" else comb(p + q - 1, p)


# -- reading printed spans ----------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(-?\d+(?:/\d+)?)\*|([A-Za-z0-9_]+)|(.))")


class _Reader:
    """Reads the printed span grammar and forgets edge types.

    Untyped trees follow the oracle's conventions: ``None`` is the leaf,
    ``(dec, left, right)`` a binary vertex, ``(decs, children)`` a
    Schröder vertex.
    """

    def __init__(self, text: str):
        self.tokens = [m.groups() for m in _TOKEN.finditer(text) if m.group(0).strip()]
        self.pos = 0

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def sym(self, expected: str):
        tok = self.take()
        if tok[2] != expected:
            raise ValueError(f"expected {expected!r} at token {self.pos}")

    def word(self) -> str:
        tok = self.take()
        if tok[1] is None:
            raise ValueError(f"expected a word at token {self.pos}")
        return tok[1]

    def tree(self):
        tok = self.take()
        if tok[2] == "|":
            return None
        head = tok[1]
        self.sym("[")
        decs = [self.word()]
        while self.tokens[self.pos][2] == ",":
            self.pos += 1
            decs.append(self.word())
        self.sym(";")
        children = [self.edge()]
        while self.tokens[self.pos][2] == ",":
            self.pos += 1
            children.append(self.edge())
        self.sym("]")
        if head == "B":
            if len(decs) != 1 or len(children) != 2:
                raise ValueError("binary vertex needs one decoration and two children")
            return (decs[0], children[0], children[1])
        if head == "S":
            if len(children) != len(decs) + 1:
                raise ValueError("Schröder vertex arity mismatch")
            return (tuple(decs), tuple(children))
        raise ValueError(f"unknown tree head {head!r}")

    def edge(self):
        self.word()
        self.sym(":")
        return self.tree()

    def terms(self):
        if len(self.tokens) == 1 and self.tokens[0][1] == "0":
            return []
        out = []
        while True:
            tok = self.take()
            if tok[0] is None:
                raise ValueError(f"expected a coefficient at token {self.pos}")
            out.append((Fraction(tok[0]), self.tree()))
            if self.pos == len(self.tokens):
                return out
            self.sym("+")


def read_terms(text: str):
    """(coefficient, untyped tree) for each printed term, in printed order."""
    return _Reader(text).terms()


def untyped_span(terms) -> dict:
    span = {}
    for coeff, tree in terms:
        span[tree] = span.get(tree, 0) + coeff
    return {t: c for t, c in span.items() if c != 0}


# -- untyped operand shapes ---------------------------------------------------------

def right_spine(decs, kind: str):
    """Vertex i has a leaf on the left and the rest of the spine on the right."""
    tree = None
    for d in reversed(decs):
        tree = (d, None, tree) if kind == "binary" else ((d,), (None, tree))
    return tree


def left_spine(decs, kind: str):
    tree = None
    for d in reversed(decs):
        tree = (d, tree, None) if kind == "binary" else ((d,), (tree, None))
    return tree


def oracle_product(oracle, kind: str, op: str, t, u) -> dict:
    if kind == "binary":
        fn = {"prec": oracle.b_prec, "succ": oracle.b_succ}[op]
    else:
        fn = {"prec": oracle.t_prec, "succ": oracle.t_succ, "dot": oracle.t_dot}[op]
    return {s: c for s, c in fn(t, u).items() if c != 0}


# -- the gates ---------------------------------------------------------------------

def check_terms(text: str, expected_terms: int):
    """Exactly ``expected_terms`` printed terms, all with coefficient 1."""
    try:
        terms = read_terms(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable span: {exc}"]
    failures = []
    if len(terms) != expected_terms:
        failures.append(f"{len(terms)} terms, expected {expected_terms}")
    if any(c != 1 for c, _ in terms):
        failures.append("a coefficient differs from 1")
    return failures


def check_against_oracle(text: str, expected: dict):
    """The printed span with edge types forgotten equals the oracle's span.

    Forgetting edge types maps the family products onto the classical
    free (tri)dendriform products, so this holds over any semigroup; on
    the trivial semigroup it is an equality of the typed spans.
    """
    try:
        got = untyped_span(read_terms(text))
    except (ValueError, IndexError) as exc:
        return [f"unreadable span: {exc}"]
    if got != expected:
        missing = sum(1 for t in expected if t not in got)
        extra = sum(1 for t in got if t not in expected)
        return [f"differs from the untyped oracle ({missing} trees missing, {extra} extra)"]
    return []


def check_vectors(got, expected, what: str):
    return [] if tuple(got) == tuple(expected) else [f"{what}: {got} != {expected}"]
