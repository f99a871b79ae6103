"""The free tridendriform family algebra on typed valently decorated
Schröder trees.

The two indexed products rewrite a boundary child of one operand; the
middle product fuses the two root vertices, concatenating decorations.
When the fused boundary children are both leaves the merged middle
child is the leaf itself (a convention applied strictly locally, only
at that fuse).
"""

from __future__ import annotations

from . import axioms
from .axioms import find_tridendriform_counterexample, validate_tridendriform_ops  # noqa: F401
from .basis import LEAF, LinComb, ZERO_SPAN, merge, span_single
from .exprs import Dot, Expr, Gen, Prec, Succ
from .family import FreeFamily
from .schroder import SchNode, SchTree, intern_node, single_vertex, sort_key
from .semigroups import IDENTITY


class FreeTridendriformFamily(FreeFamily):
    """Spans of Schröder basis trees with prec/succ indexed by the semigroup
    and the middle product dot.  Doubles as a tridendriform operations object.
    """

    node_type = SchNode
    axiom_table = axioms.TRIDENDRIFORM
    single_vertex, sort_key = staticmethod(single_vertex), staticmethod(sort_key)
    # re-bound in this class's namespace: the benchmark tracer wraps only a
    # class's own methods
    prec, succ, extend = FreeFamily.prec, FreeFamily.succ, FreeFamily.extend

    def __init__(self, alphabet, semigroup):
        super().__init__(alphabet, semigroup)
        self._dot_memo: dict = {}

    def dot(self, a, b, *, strict: bool = False) -> LinComb:
        return self._product("dot", self._dot_trees, a, b, strict)

    def _prec_trees(self, t: SchTree, u: SchTree, w: str) -> LinComb:
        assert not (t is LEAF and u is LEAF)
        if u is LEAF:
            return span_single(t)
        if t is LEAF:
            return ZERO_SPAN
        key = (t, u, w)
        cached = self._prec_memo.get(key)
        if cached is not None:
            return cached
        assert w is not IDENTITY
        am, last = t.children[-1]
        inner = merge((self._succ_trees(last, u, am).map,
                       self._prec_trees(last, u, w).map,
                       self._dot_trees(last, u).map))
        # replacing one child under a fixed context is injective, so the
        # grafted map needs no merging
        amw = self.semigroup.mul_ext(am, w)
        decs, head = t.decs, t.children[:-1]
        result = LinComb.from_map({intern_node(decs, head + ((amw, s),)): c
                                   for s, c in inner.items()}, self.key)
        self._prec_memo[key] = result
        return result

    def _succ_trees(self, t: SchTree, u: SchTree, w: str) -> LinComb:
        assert not (t is LEAF and u is LEAF)
        if t is LEAF:
            return span_single(u)
        if u is LEAF:
            return ZERO_SPAN
        key = (t, u, w)
        cached = self._succ_memo.get(key)
        if cached is not None:
            return cached
        assert w is not IDENTITY
        b0, first = u.children[0]
        inner = merge((self._succ_trees(t, first, w).map,
                       self._prec_trees(t, first, b0).map,
                       self._dot_trees(t, first).map))
        wb0 = self.semigroup.mul_ext(w, b0)
        decs, tail = u.decs, u.children[1:]
        result = LinComb.from_map({intern_node(decs, ((wb0, s),) + tail): c
                                   for s, c in inner.items()}, self.key)
        self._succ_memo[key] = result
        return result

    def _dot_trees(self, t: SchTree, u: SchTree) -> LinComb:
        if t is LEAF or u is LEAF:
            return ZERO_SPAN
        key = (t, u)
        cached = self._dot_memo.get(key)
        if cached is not None:
            return cached
        am, last = t.children[-1]
        b0, first = u.children[0]
        decs = t.decs + u.decs
        head, tail = t.children[:-1], u.children[1:]
        if last is LEAF and first is LEAF:
            # fusing two leaf boundary children keeps a single leaf there
            result = span_single(intern_node(decs, head + ((IDENTITY, LEAF),) + tail))
        else:
            inner = merge((self._succ_trees(last, first, am).map,
                           self._prec_trees(last, first, b0).map,
                           self._dot_trees(last, first).map))
            amb0 = self.semigroup.mul_ext(am, b0)
            result = LinComb.from_map({intern_node(decs, head + ((amb0, s),) + tail): c
                                       for s, c in inner.items()}, self.key)
        self._dot_memo[key] = result
        return result

    def axioms_hold(self, t: SchNode, u: SchNode, w: SchNode,
                    alpha: str, beta: str) -> bool:
        """Equality form of axiom_residuals, for exhaustive sweeps."""
        return axioms.tridendriform_family_hold(*self._instance(t, u, w, alpha, beta))

    # -- generators and the universal morphism ------------------------------

    def _breadth2_expr(self, x: str, pair0, pair1) -> Expr:
        (a0, c0), (a1, c1) = pair0, pair1
        if c0 is LEAF and c1 is LEAF:
            return Gen(x)
        if c0 is LEAF:
            return Prec(a1, Gen(x), self.express(c1))
        if c1 is LEAF:
            return Succ(a0, self.express(c0), Gen(x))
        return Prec(a1, Succ(a0, self.express(c0), Gen(x)),
                    self.express(c1))

    def central_factors(self, t: SchNode) -> list[Expr]:
        """Breadth-2 factors of the central-product decomposition, left to right."""
        factors = [self._breadth2_expr(t.decs[0], t.children[0], t.children[1])]
        for x, (a, child) in zip(t.decs[1:], t.children[2:]):
            if child is LEAF:
                factors.append(Gen(x))
            else:
                factors.append(Prec(a, Gen(x), self.express(child)))
        return factors

    def express(self, t: SchNode) -> Expr:
        """Expression over generators whose value in the free algebra is 1*t."""
        factors = self.central_factors(t)
        expr = factors[0]
        for factor in factors[1:]:
            expr = Dot(expr, factor)
        return expr

    def _imager(self, lookup, ops):
        """The memoized image of a basis tree, for ``extend``."""
        memo: dict = {}

        def breadth2(x, pair0, pair1):
            (a0, c0), (a1, c1) = pair0, pair1
            if c0 is LEAF and c1 is LEAF:
                return lookup(x)
            if c0 is LEAF:
                return ops.prec(lookup(x), image(c1), a1)
            if c1 is LEAF:
                return ops.succ(image(c0), lookup(x), a0)
            return ops.prec(ops.succ(image(c0), lookup(x), a0),
                            image(c1), a1)

        def image(t: SchNode):
            if t in memo:
                return memo[t]
            value = breadth2(t.decs[0], t.children[0], t.children[1])
            for x, (a, child) in zip(t.decs[1:], t.children[2:]):
                if child is LEAF:
                    factor = lookup(x)
                else:
                    factor = ops.prec(lookup(x), image(child), a)
                value = ops.dot(value, factor)
            memo[t] = value
            return value

        return image


class GammaOps:
    """Dendriform operations induced from a tridendriform operations object:
    prec' = prec + dot, succ' = succ."""

    def __init__(self, tri):
        self.tri = tri

    def prec(self, a, b, omega):
        return self.tri.add(self.tri.prec(a, b, omega), self.tri.dot(a, b))

    def succ(self, a, b, omega):
        return self.tri.succ(a, b, omega)

    def add(self, *values):
        return self.tri.add(*values)

    def scale(self, c, value):
        return self.tri.scale(c, value)

    def zero(self):
        return self.tri.zero()


def gamma(tri_ops) -> GammaOps:
    """The forgetful construction from tridendriform to dendriform structure."""
    return GammaOps(tri_ops)
