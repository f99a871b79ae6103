"""Generic axiom instances: one check per triple of untyped shapes.

A typed axiom instance (T, U, W, alpha, beta) is the image of the generic
instance of the same shapes.  The generic instance decorates its vertices
by distinct symbols, and types its internal edges and its indices alpha
and beta by distinct generators of a free semigroup; the image sends each
symbol and generator to the typed one.  The products touch edge types only
through the semigroup product and carry decorations unchanged, so when the
generic instance holds, every typed instance of those shapes holds, over
every semigroup and alphabet.  The typed sweeps test that property of the
code; this module checks every shape triple up to a size.

The tests check binary trees up to 3 vertices and Schröder trees up to 3
leaves.  Run the module to check larger sizes, for example::

    PYTHONPATH=src python tests/test_generic.py 4
"""

import sys
from itertools import product

import pytest

from dendrifam import pbtrees, schroder
from dendrifam.basis import LEAF, Alphabet
from dendrifam.dendriform import FreeDendriformFamily
from dendrifam.pbtrees import enumerate_bin, graft_binary
from dendrifam.schroder import enumerate_sch, intern_node
from dendrifam.semigroups import IDENTITY, Semigroup
from dendrifam.tridendriform import FreeTridendriformFamily


def _make_binary(decs, children):
    (a1, left), (a2, right) = children
    return graft_binary(left, decs[0], a1, a2, right)


# kind -> (free family, tree module, vertex builder, enumerator, leaves - n
# of the trees the enumerator lists as n)
KINDS = {
    "binary": (FreeDendriformFamily, pbtrees, _make_binary, enumerate_bin, 0),
    "schroder": (FreeTridendriformFamily, schroder, intern_node, enumerate_sch, 1),
}


def shapes(kind: str, size: int) -> list:
    """The untyped shapes up to ``size`` vertices (binary) or leaves (Schröder),
    as trees over one symbol and the one-element semigroup."""
    _, _, _, enumerate_trees, offset = KINDS[kind]
    return [t for n in range(1, size + 1 - offset)
            for t in enumerate_trees(n, Alphabet(["x"]), Semigroup.trivial())]


def generic_instances(kind: str, size: int):
    """(alphabet, free semigroup, instances): each instance is a triple of
    shapes up to ``size`` relabelled with fresh symbols and generators, then
    fresh alpha and beta.  The generators are three-letter words, so every
    word over them splits into generators in one way only."""
    _, nodes, make, _, _ = KINDS[kind]
    symbols = [f"x{i:02d}" for i in range(3 * size)]
    generators = [f"g{i:02d}" for i in range(3 * size + 2)]

    def relabel(t, decs, gens):
        if t is LEAF:
            return LEAF
        old_decs, children = nodes.vertex(t)
        children = [relabel(child, decs, gens) for _, child in children]
        return make(tuple(next(decs) for _ in old_decs),
                    tuple((IDENTITY if c is LEAF else next(gens), c) for c in children))

    def instances():
        for triple in product(shapes(kind, size), repeat=3):
            decs, gens = iter(symbols), iter(generators)
            trees = [relabel(t, decs, gens) for t in triple]
            yield (*trees, next(gens), next(gens))

    return Alphabet(symbols), Semigroup.free(generators), instances()


def generic_failures(kind: str, size: int, family=None):
    """The number of generic instances up to ``size`` and those that fail
    the axioms in ``family`` (the free family of ``kind`` by default)."""
    alphabet, semigroup, instances = generic_instances(kind, size)
    algebra = (family or KINDS[kind][0])(alphabet, semigroup)
    total, failures = 0, []
    for instance in instances:
        total += 1
        if not algebra.axioms_hold(*instance):
            failures.append(instance)
    return total, failures


@pytest.mark.parametrize("kind, size, total", [("binary", 3, 512), ("schroder", 3, 64)])
def test_generic_instances_hold(kind, size, total):
    assert generic_failures(kind, size) == (total, [])


class _SwappedPrec(FreeDendriformFamily):
    """``_prec_step`` with the factors of ``mul_ext(a, w)`` swapped, so every
    prec step, inner and outermost, types its new edge by ``w*a``."""

    def _prec_step(self, t, u, w):
        a, last = self.nodes.last_edge(t)
        if last is LEAF:
            return w, (u,)
        inner = self._succ_trees(last, u, a) + self._prec_trees(last, u, w) + \
            self._dot_trees(last, u)
        return self.semigroup.mul_ext(w, a), inner


def test_swapped_product_fails_the_generic_instances():
    # over the commutative cyclic:2 the mutant passes every typed instance
    x2, z2 = Alphabet(["x", "y"]), Semigroup.cyclic(2)
    mutant, trees = _SwappedPrec(x2, z2), enumerate_bin(1, x2, z2)
    assert all(mutant.axioms_hold(t, u, w, alpha, beta)
               for t, u, w in product(trees, repeat=3) for alpha, beta in product("01", repeat=2))
    total, failures = generic_failures("binary", 1, _SwappedPrec)
    assert total == 1 and failures


def main(argv) -> int:
    size = int(argv[1]) if len(argv) > 1 else 3
    failed = False
    for kind in KINDS:
        total, failures = generic_failures(kind, size)
        print(f"{kind} up to size {size}: instances={total} failures={len(failures)}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
