"""The free tridendriform family algebra on typed valently decorated
Schröder trees.

The two indexed products rewrite a boundary child of one operand; the
middle product fuses the two root vertices, concatenating decorations.
When the fused boundary children are both leaves the merged middle
child is the leaf itself (a convention applied strictly locally, only
at that fuse).
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from . import axioms
from .basis import LEAF, Alphabet, LinComb, ZERO_SPAN, merge, normalize, span_single
from .errors import AxiomFailure, IdentityMisuse, InvalidElement, LeafOperand
from .exprs import Dot, Expr, Gen, Prec, Succ
from .schroder import SchNode, SchTree, intern_node, single_vertex, tree_key
from .semigroups import ExtElem, IDENTITY, Semigroup

Operand = Union[LinComb, SchNode, type(LEAF)]


class FreeTridendriformFamily:
    """Spans of Schröder basis trees with prec/succ indexed by the semigroup
    and the middle product dot.  Doubles as a tridendriform operations object.
    """

    def __init__(self, alphabet: Alphabet, semigroup: Semigroup):
        self.alphabet = alphabet
        self.semigroup = semigroup
        self._key_memo: dict = {}
        self._prec_memo: dict = {}
        self._succ_memo: dict = {}
        self._dot_memo: dict = {}

    # -- span plumbing --------------------------------------------------

    def key(self, t: SchTree):
        cached = self._key_memo.get(t)
        if cached is None:
            cached = tree_key(t, self.alphabet, self.semigroup)
            self._key_memo[t] = cached
        return cached

    def gen(self, x: str) -> LinComb:
        self.alphabet.index(x)
        return span_single(single_vertex(x))

    def span(self, *trees: SchNode) -> LinComb:
        if len(trees) == 1:
            return span_single(trees[0])
        return normalize([(1, t) for t in trees], self.key)

    def zero(self) -> LinComb:
        return ZERO_SPAN

    def add(self, *spans: LinComb) -> LinComb:
        spans = [s for s in spans if s.map]
        if len(spans) == 1:
            return spans[0]
        return LinComb.from_map(merge([s.map for s in spans]), self.key)

    def scale(self, c, s: LinComb) -> LinComb:
        return s.scaled(c)

    def _operand(self, value: Operand):
        if isinstance(value, LinComb) or value is LEAF:
            return value
        if isinstance(value, SchNode):
            return span_single(value)
        raise TypeError(f"not a span, tree or leaf: {value!r}")

    def _family_index(self, omega) -> ExtElem:
        if isinstance(omega, ExtElem):
            if omega.is_identity:
                raise IdentityMisuse("the adjoined identity is not a family index")
            token = omega.token
        else:
            token = omega
        if self.semigroup.contains(token):
            return ExtElem(token)
        if token == "1":
            raise IdentityMisuse("the adjoined identity is not a family index")
        raise InvalidElement(f"{token!r} is not an element of the semigroup")

    # -- the three products ----------------------------------------------

    def prec(self, a: Operand, b: Operand, omega, *, strict: bool = False) -> LinComb:
        a, b = self._operand(a), self._operand(b)
        if a is LEAF and b is LEAF:
            raise LeafOperand("prec needs at least one genuine span")
        if b is LEAF:
            if strict:
                raise LeafOperand("leaf operand rejected in strict mode")
            return a
        if a is LEAF:
            if strict:
                raise LeafOperand("leaf operand rejected in strict mode")
            return ZERO_SPAN
        w = self._family_index(omega)
        return self._bilinear(self._prec_trees, a, b, w)

    def succ(self, a: Operand, b: Operand, omega, *, strict: bool = False) -> LinComb:
        a, b = self._operand(a), self._operand(b)
        if a is LEAF and b is LEAF:
            raise LeafOperand("succ needs at least one genuine span")
        if a is LEAF:
            if strict:
                raise LeafOperand("leaf operand rejected in strict mode")
            return b
        if b is LEAF:
            if strict:
                raise LeafOperand("leaf operand rejected in strict mode")
            return ZERO_SPAN
        w = self._family_index(omega)
        return self._bilinear(self._succ_trees, a, b, w)

    def dot(self, a: Operand, b: Operand, *, strict: bool = False) -> LinComb:
        a, b = self._operand(a), self._operand(b)
        if a is LEAF and b is LEAF:
            raise LeafOperand("dot needs at least one genuine span")
        if a is LEAF or b is LEAF:
            if strict:
                raise LeafOperand("leaf operand rejected in strict mode")
            return ZERO_SPAN
        return self._bilinear(self._dot_trees, a, b)

    def _bilinear(self, product, a: LinComb, b: LinComb, *index) -> LinComb:
        if len(a.map) == 1 and len(b.map) == 1:
            (ta, ca), = a.map.items()
            (tb, cb), = b.map.items()
            return product(ta, tb, *index).scaled(ca * cb)
        maps = [product(ta, tb, *index).scaled(ca * cb).map
                for ta, ca in a.map.items() for tb, cb in b.map.items()]
        return LinComb.from_map(merge(maps), self.key)

    def _prec_trees(self, t: SchTree, u: SchTree, w: ExtElem) -> LinComb:
        assert not (t is LEAF and u is LEAF)
        if u is LEAF:
            return span_single(t)
        if t is LEAF:
            return ZERO_SPAN
        key = (t, u, w)
        cached = self._prec_memo.get(key)
        if cached is not None:
            return cached
        assert not w.is_identity
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

    def _succ_trees(self, t: SchTree, u: SchTree, w: ExtElem) -> LinComb:
        assert not (t is LEAF and u is LEAF)
        if t is LEAF:
            return span_single(u)
        if u is LEAF:
            return ZERO_SPAN
        key = (t, u, w)
        cached = self._succ_memo.get(key)
        if cached is not None:
            return cached
        assert not w.is_identity
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

    # -- axioms ------------------------------------------------------------

    def axiom_residuals(self, t: SchNode, u: SchNode, w: SchNode,
                        alpha: str, beta: str):
        """LHS - RHS of the seven family axioms at a basis-tree instance."""
        alphabeta = self.semigroup.mul(alpha, beta)
        return axioms.tridendriform_family_residuals(
            self, span_single(t), span_single(u), span_single(w),
            alpha, beta, alphabeta)

    def axioms_hold(self, t: SchNode, u: SchNode, w: SchNode,
                    alpha: str, beta: str) -> bool:
        """Equality form of axiom_residuals, for exhaustive sweeps."""
        alphabeta = self.semigroup.mul(alpha, beta)
        return axioms.tridendriform_family_hold(
            self, span_single(t), span_single(u), span_single(w),
            alpha, beta, alphabeta)

    # -- generators and the universal morphism ------------------------------

    def _breadth2_expr(self, x: str, pair0, pair1) -> Expr:
        (a0, c0), (a1, c1) = pair0, pair1
        if c0 is LEAF and c1 is LEAF:
            return Gen(x)
        if c0 is LEAF:
            return Prec(a1.token, Gen(x), self.express(c1))
        if c1 is LEAF:
            return Succ(a0.token, self.express(c0), Gen(x))
        return Prec(a1.token, Succ(a0.token, self.express(c0), Gen(x)),
                    self.express(c1))

    def central_factors(self, t: SchNode) -> list[Expr]:
        """Breadth-2 factors of the central-product decomposition, left to right."""
        factors = [self._breadth2_expr(t.decs[0], t.children[0], t.children[1])]
        for x, (a, child) in zip(t.decs[1:], t.children[2:]):
            if child is LEAF:
                factors.append(Gen(x))
            else:
                factors.append(Prec(a.token, Gen(x), self.express(child)))
        return factors

    def express(self, t: SchNode) -> Expr:
        """Expression over generators whose value in the free algebra is 1*t."""
        factors = self.central_factors(t)
        expr = factors[0]
        for factor in factors[1:]:
            expr = Dot(expr, factor)
        return expr

    def extend(self, f: Union[Mapping[str, object], Callable[[str], object]],
               ops, operand: Operand):
        """The universal morphism determined by the generator images ``f``."""
        span = self._operand(operand)
        if span is LEAF:
            raise LeafOperand("the leaf has no image under the universal morphism")
        lookup = f.__getitem__ if hasattr(f, "__getitem__") else f
        memo: dict = {}

        def breadth2(x, pair0, pair1):
            (a0, c0), (a1, c1) = pair0, pair1
            if c0 is LEAF and c1 is LEAF:
                return lookup(x)
            if c0 is LEAF:
                return ops.prec(lookup(x), image(c1), a1.token)
            if c1 is LEAF:
                return ops.succ(image(c0), lookup(x), a0.token)
            return ops.prec(ops.succ(image(c0), lookup(x), a0.token),
                            image(c1), a1.token)

        def image(t: SchNode):
            if t in memo:
                return memo[t]
            value = breadth2(t.decs[0], t.children[0], t.children[1])
            for x, (a, child) in zip(t.decs[1:], t.children[2:]):
                if child is LEAF:
                    factor = lookup(x)
                else:
                    factor = ops.prec(lookup(x), image(child), a.token)
                value = ops.dot(value, factor)
            memo[t] = value
            return value

        total = ops.zero()
        for t, c in span.map.items():
            total = ops.add(total, ops.scale(c, image(t)))
        return total


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


def find_tridendriform_counterexample(ops, elements, index_triples):
    """First instance violating the seven family axioms, or None."""
    zero = ops.zero()
    for x in elements:
        for y in elements:
            for z in elements:
                for alpha, beta, alphabeta in index_triples:
                    residuals = axioms.tridendriform_family_residuals(
                        ops, x, y, z, alpha, beta, alphabeta)
                    for axiom_number, residual in enumerate(residuals, start=1):
                        if residual != zero:
                            return {
                                "axiom": axiom_number,
                                "x": x, "y": y, "z": z,
                                "alpha": alpha, "beta": beta,
                                "residual": residual,
                            }
    return None


def validate_tridendriform_ops(ops, elements, index_triples) -> None:
    failure = find_tridendriform_counterexample(ops, elements, index_triples)
    if failure is not None:
        raise AxiomFailure(
            f"tridendriform family axiom ({failure['axiom']}) fails at "
            f"alpha={failure['alpha']} beta={failure['beta']}",
            counterexample=failure)
