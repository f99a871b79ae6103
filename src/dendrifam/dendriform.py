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

from . import axioms
from .axioms import find_dendriform_counterexample, validate_dendriform_ops  # noqa: F401
from .basis import LEAF, LinComb, ZERO_SPAN, merge, span_single
from .exprs import Expr, Gen, Prec, Succ
from .family import FreeFamily
from .pbtrees import BinNode, BinTree, graft_binary, single_vertex, sort_key
from .semigroups import IDENTITY


class FreeDendriformFamily(FreeFamily):
    """Spans of binary basis trees with the indexed products prec/succ.

    Instances also serve as a dendriform operations object (prec, succ,
    add, scale, zero), so the free algebra can be its own oracle.
    """

    node_type = BinNode
    axiom_table = axioms.DENDRIFORM
    single_vertex, sort_key = staticmethod(single_vertex), staticmethod(sort_key)
    # re-bound in this class's namespace: the benchmark tracer wraps only a
    # class's own methods
    prec, succ, extend = FreeFamily.prec, FreeFamily.succ, FreeFamily.extend

    def _prec_trees(self, t: BinTree, u: BinTree, w: str) -> LinComb:
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

    def _succ_trees(self, t: BinTree, u: BinTree, w: str) -> LinComb:
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
        inner = merge((self._prec_trees(t, u.left, u.left_type).map,
                       self._succ_trees(t, u.left, w).map))
        dec, a2, right = u.dec, u.right_type, u.right
        wb1 = self.semigroup.mul_ext(w, u.left_type)
        result = LinComb.from_map({graft_binary(s, dec, wb1, a2, right): c
                                   for s, c in inner.items()}, self.key)
        self._succ_memo[key] = result
        return result

    def axioms_hold(self, t: BinNode, u: BinNode, w: BinNode,
                    alpha: str, beta: str) -> bool:
        """Equality form of axiom_residuals, for exhaustive sweeps."""
        return axioms.dendriform_family_hold(*self._instance(t, u, w, alpha, beta))

    # -- generators and the universal morphism ----------------------------

    def express(self, t: BinNode) -> Expr:
        """Expression over generators whose value in the free algebra is 1*t."""
        if t.left is LEAF and t.right is LEAF:
            return Gen(t.dec)
        if t.left is LEAF:
            return Prec(t.right_type, Gen(t.dec), self.express(t.right))
        if t.right is LEAF:
            return Succ(t.left_type, self.express(t.left), Gen(t.dec))
        return Prec(t.right_type,
                    Succ(t.left_type, self.express(t.left), Gen(t.dec)),
                    self.express(t.right))

    def _imager(self, lookup, ops):
        """The memoized image of a basis tree, for ``extend``."""
        memo: dict = {}

        def image(t: BinNode):
            if t in memo:
                return memo[t]
            if t.left is LEAF and t.right is LEAF:
                value = lookup(t.dec)
            elif t.left is LEAF:
                value = ops.prec(lookup(t.dec), image(t.right), t.right_type)
            elif t.right is LEAF:
                value = ops.succ(image(t.left), lookup(t.dec), t.left_type)
            else:
                value = ops.prec(ops.succ(image(t.left), lookup(t.dec), t.left_type),
                                 image(t.right), t.right_type)
            memo[t] = value
            return value

        return image
