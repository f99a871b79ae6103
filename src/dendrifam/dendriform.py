"""The free dendriform family algebra on typed decorated planar binary trees.

The two indexed products are defined recursively on the depth sum: for
basis trees T = T_l v_{x,(a1,a2)} T_r and U = U_l v_{y,(b1,b2)} U_r,

    T prec_w U = T_l v_{x,(a1, a2 w)} (T_r prec_w U + T_r succ_{a2} U)
    T succ_w U = (T prec_{b1} U_l + T succ_w U_l) v_{y,(w b1, b2)} U_r

with the leaf acting as a one-sided neutral element in the base cases.
The identity index appears only inside those base cases; the public
operations take genuine semigroup elements.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from . import axioms
from .basis import LEAF, Alphabet, LinComb, ZERO_SPAN, merge, normalize, span_single
from .errors import AxiomFailure, IdentityMisuse, InvalidElement, LeafOperand
from .exprs import Expr, Gen, Prec, Succ
from .pbtrees import BinNode, BinTree, graft_binary, single_vertex, tree_key
from .semigroups import ExtElem, Semigroup

Operand = Union[LinComb, BinNode, type(LEAF)]


class FreeDendriformFamily:
    """Spans of binary basis trees with the indexed products prec/succ.

    Instances also serve as a dendriform operations object (prec, succ,
    add, scale, zero), so the free algebra can be its own oracle.
    """

    def __init__(self, alphabet: Alphabet, semigroup: Semigroup):
        self.alphabet = alphabet
        self.semigroup = semigroup
        self._key_memo: dict = {}
        self._prec_memo: dict = {}
        self._succ_memo: dict = {}

    # -- span plumbing --------------------------------------------------

    def key(self, t: BinTree):
        cached = self._key_memo.get(t)
        if cached is None:
            cached = tree_key(t, self.alphabet, self.semigroup)
            self._key_memo[t] = cached
        return cached

    def gen(self, x: str) -> LinComb:
        self.alphabet.index(x)
        return span_single(single_vertex(x))

    def span(self, *trees: BinNode) -> LinComb:
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

    # -- the indexed products --------------------------------------------

    def _operand(self, value: Operand):
        if isinstance(value, LinComb) or value is LEAF:
            return value
        if isinstance(value, BinNode):
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

    def _bilinear(self, product, a: LinComb, b: LinComb, *index) -> LinComb:
        if len(a.map) == 1 and len(b.map) == 1:
            (ta, ca), = a.map.items()
            (tb, cb), = b.map.items()
            return product(ta, tb, *index).scaled(ca * cb)
        maps = [product(ta, tb, *index).scaled(ca * cb).map
                for ta, ca in a.map.items() for tb, cb in b.map.items()]
        return LinComb.from_map(merge(maps), self.key)

    def _prec_trees(self, t: BinTree, u: BinTree, w: ExtElem) -> LinComb:
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
        inner = merge((self._prec_trees(t.right, u, w).map,
                       self._succ_trees(t.right, u, t.right_type).map))
        # grafting under a fixed context is injective, so the grafted map
        # needs no merging
        left, dec, a1 = t.left, t.dec, t.left_type
        a2w = self.semigroup.mul_ext(t.right_type, w)
        result = LinComb.from_map({graft_binary(left, dec, a1, a2w, s): c
                                   for s, c in inner.items()}, self.key)
        self._prec_memo[key] = result
        return result

    def _succ_trees(self, t: BinTree, u: BinTree, w: ExtElem) -> LinComb:
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
        inner = merge((self._prec_trees(t, u.left, u.left_type).map,
                       self._succ_trees(t, u.left, w).map))
        dec, a2, right = u.dec, u.right_type, u.right
        wb1 = self.semigroup.mul_ext(w, u.left_type)
        result = LinComb.from_map({graft_binary(s, dec, wb1, a2, right): c
                                   for s, c in inner.items()}, self.key)
        self._succ_memo[key] = result
        return result

    # -- axioms ----------------------------------------------------------

    def axiom_residuals(self, t: BinNode, u: BinNode, w: BinNode,
                        alpha: str, beta: str):
        """LHS - RHS of the three family axioms at a basis-tree instance."""
        alphabeta = self.semigroup.mul(alpha, beta)
        return axioms.dendriform_family_residuals(
            self, span_single(t), span_single(u), span_single(w),
            alpha, beta, alphabeta)

    def axioms_hold(self, t: BinNode, u: BinNode, w: BinNode,
                    alpha: str, beta: str) -> bool:
        """Equality form of axiom_residuals, for exhaustive sweeps."""
        alphabeta = self.semigroup.mul(alpha, beta)
        return axioms.dendriform_family_hold(
            self, span_single(t), span_single(u), span_single(w),
            alpha, beta, alphabeta)

    # -- generators and the universal morphism ----------------------------

    def express(self, t: BinNode) -> Expr:
        """Expression over generators whose value in the free algebra is 1*t."""
        if t.left is LEAF and t.right is LEAF:
            return Gen(t.dec)
        if t.left is LEAF:
            return Prec(t.right_type.token, Gen(t.dec), self.express(t.right))
        if t.right is LEAF:
            return Succ(t.left_type.token, self.express(t.left), Gen(t.dec))
        return Prec(t.right_type.token,
                    Succ(t.left_type.token, self.express(t.left), Gen(t.dec)),
                    self.express(t.right))

    def extend(self, f: Union[Mapping[str, object], Callable[[str], object]],
               ops, operand: Operand):
        """The universal morphism determined by the generator images ``f``.

        ``ops`` must be a dendriform operations object already validated on
        the sample it will be used on.
        """
        span = self._operand(operand)
        if span is LEAF:
            raise LeafOperand("the leaf has no image under the universal morphism")
        lookup = f.__getitem__ if hasattr(f, "__getitem__") else f
        memo: dict = {}

        def image(t: BinNode):
            if t in memo:
                return memo[t]
            if t.left is LEAF and t.right is LEAF:
                value = lookup(t.dec)
            elif t.left is LEAF:
                value = ops.prec(lookup(t.dec), image(t.right), t.right_type.token)
            elif t.right is LEAF:
                value = ops.succ(image(t.left), lookup(t.dec), t.left_type.token)
            else:
                value = ops.prec(ops.succ(image(t.left), lookup(t.dec), t.left_type.token),
                                 image(t.right), t.right_type.token)
            memo[t] = value
            return value

        total = ops.zero()
        for t, c in span.map.items():
            total = ops.add(total, ops.scale(c, image(t)))
        return total


def find_dendriform_counterexample(ops, elements, index_triples):
    """First instance violating the family axioms, or None.

    ``index_triples`` lists (alpha, beta, alpha*beta) index combinations;
    the product is supplied by the caller so the operations object does
    not need to know the semigroup.
    """
    zero = ops.zero()
    for x in elements:
        for y in elements:
            for z in elements:
                for alpha, beta, alphabeta in index_triples:
                    residuals = axioms.dendriform_family_residuals(
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


def validate_dendriform_ops(ops, elements, index_triples) -> None:
    failure = find_dendriform_counterexample(ops, elements, index_triples)
    if failure is not None:
        raise AxiomFailure(
            f"dendriform family axiom ({failure['axiom']}) fails at "
            f"alpha={failure['alpha']} beta={failure['beta']}",
            counterexample=failure)
