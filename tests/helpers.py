"""Helpers that only the tests call: tree measures, the corolla, the
binary-to-Schröder embedding, corpus parsing, the central factors of a
tree, the scaled identity matrix, the Rota-Baxter family check and
mutant, the triple loop that checks associativity, the classical
residuals per table and the validation of operations objects."""

from fractions import Fraction
from functools import partial
from itertools import product

from dendrifam import pbtrees, schroder
from dendrifam.axioms import DENDRIFORM, TRIDENDRIFORM, _Unindexed, residuals, search
from dendrifam.basis import LEAF
from dendrifam.errors import ArityMismatch, AxiomFailure
from dendrifam.exprs import Dot
from dendrifam.pbtrees import graft_binary
from dendrifam.rationals import exact
from dendrifam.rotabaxter import (Coordinate, FiniteAlgebra, Matrix, RBFamily,
                                  _require_identity, rb_family_counterexample)
from dendrifam.schroder import SchTree, intern_node
from dendrifam.semigroups import IDENTITY
from dendrifam.termio import parse_operand


def children(t) -> list:
    """The children of the root of a binary or Schröder tree, left to right."""
    nodes = pbtrees if isinstance(t, pbtrees.BinNode) else schroder
    return [child for _, child in nodes.vertex(t)[1]]


def leaves(t) -> int:
    if t is LEAF:
        return 1
    return sum(leaves(child) for child in children(t))


def depth(t) -> int:
    """Maximal vertex-chain length from the root to a leaf; the leaf has depth 0."""
    if t is LEAF:
        return 0
    return 1 + max(depth(child) for child in children(t))


def decoration_count(t) -> int:
    if t is LEAF:
        return 0
    return len(schroder.vertex(t)[0]) + sum(decoration_count(child) for child in children(t))


def corolla(decs) -> schroder.SchNode:
    """The Schröder vertex decorated by ``decs`` over leaves only."""
    decs = tuple(decs)
    return schroder.intern_node(decs, tuple((IDENTITY, LEAF) for _ in range(len(decs) + 1)))


def from_binary(t) -> SchTree:
    """Embed a planar binary tree as the Schröder tree with all vertices
    binary, by one iterative post-order walk: a node is embedded when popped
    the second time, after its children."""
    image = {LEAF: LEAF}
    stack = [t]
    while stack:
        s = stack.pop()
        if s not in image:
            image[s] = None
            stack += (s, s.right, s.left)
        elif image[s] is None:
            image[s] = intern_node((s.dec,), ((s.left_type, image[s.left]),
                                              (s.right_type, image[s.right])))
    return image[t]


def to_binary(t: SchTree):
    """Inverse of the embedding, by the same walk; requires every vertex to
    be binary."""
    image = {LEAF: LEAF}
    stack = [t]
    while stack:
        s = stack.pop()
        if s not in image:
            if s.arity != 2:
                raise ArityMismatch(f"vertex of arity {s.arity} has no binary counterpart")
            image[s] = None
            (_, left), (_, right) = s.children
            stack += (s, right, left)
        elif image[s] is None:
            (a1, left), (a2, right) = s.children
            image[s] = graft_binary(image[left], s.decs[0], a1, a2, image[right])
    return image[t]


def parse_corpus(text: str, kind: str, alphabet, semigroup) -> list:
    """Corpus wire format: one term (tree or span) per line, ``#`` comments."""
    terms = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            terms.append(parse_operand(line, kind, alphabet, semigroup))
    return terms


def central_factors(alg, t) -> list:
    """Factors of the central-product decomposition of ``t``, left to right
    (a binary vertex has one): the operands of the ``Dot`` chain of
    ``alg.express(t)``, as no factor is a ``Dot``."""
    expr, factors = alg.express(t), []
    while isinstance(expr, Dot):
        expr, right = expr.left, expr.right
        factors.append(right)
    return [expr] + factors[::-1]


def scaled_identity_matrix(dim: int, c: Coordinate) -> Matrix:
    c = exact(c)
    return tuple(tuple(c if i == j else 0 for j in range(dim))
                 for i in range(dim))


def validate_rb_family(rb: RBFamily, semigroup, sample) -> None:
    """Raise AxiomFailure unless the Rota-Baxter family identity holds."""
    _require_identity("Rota-Baxter family", rb_family_counterexample(rb, semigroup, sample))


def mutated(rb: RBFamily, omega: str, row: int, col: int, delta) -> RBFamily:
    """Copy of ``rb`` with one entry of the operator for ``omega`` perturbed."""
    m = [list(r) for r in rb.operators[omega]]
    m[row][col] += Fraction(delta)
    operators = dict(rb.operators)
    operators[omega] = tuple(tuple(r) for r in m)
    return RBFamily(rb.algebra, rb.weight, operators)


def associativity_counterexample(alg: FiniteAlgebra):
    """The first basis triple (i, j, k) in lexicographic order with
    (e_i e_j) e_k != e_i (e_j e_k), or None: the dense triple loop."""
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    for i, j, k in product(range(alg.dim), repeat=3):
        if alg.mul(alg.mul(e[i], e[j]), e[k]) != alg.mul(e[i], alg.mul(e[j], e[k])):
            return (i, j, k)
    return None


def classical_residuals(table, ops, x, y, z) -> tuple:
    """Residuals of the classical axioms: ``table`` with the index ignored."""
    return residuals(table, _Unindexed(ops), x, y, z, None, None, None)


classical_dendriform_residuals = partial(classical_residuals, DENDRIFORM)
classical_tridendriform_residuals = partial(classical_residuals, TRIDENDRIFORM)


def validate(table, family: str, ops, elements, index_triples) -> None:
    """Raise AxiomFailure at the first counterexample to ``table`` among the triples
    of ``elements`` and the (alpha, beta, alpha*beta) of ``index_triples``."""
    failure = search(table, ops, product(elements, elements, elements, index_triples))
    if failure is not None:
        raise AxiomFailure(
            f"{family} family axiom ({failure['axiom']}) fails at "
            f"alpha={failure['alpha']} beta={failure['beta']}",
            counterexample=failure)


validate_dendriform_ops = partial(validate, DENDRIFORM, "dendriform")
validate_tridendriform_ops = partial(validate, TRIDENDRIFORM, "tridendriform")
