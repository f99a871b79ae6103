"""The free tridendriform family algebra on typed valently decorated
Schröder trees.

The two indexed products rewrite a boundary child of one operand: for
basis trees T with root decorations x_1..x_k over the children
(a_0: T_0, ..., a_k: T_k) and U with root decorations y_1..y_l over
(b_0: U_0, ..., b_l: U_l),

    T prec_w U = T with a_k: T_k replaced by
                 a_k w: (T_k succ_{a_k} U + T_k prec_w U + T_k . U)
    T succ_w U = U with b_0: U_0 replaced by
                 w b_0: (T succ_w U_0 + T prec_{b_0} U_0 + T . U_0)

with the leaf as a one-sided neutral element, as for binary trees.  The
dendriform formulas are these with ``dot = 0``; both families run this
one recursion in :class:`~dendrifam.family.FreeFamily`.  The middle
product fuses the two root vertices, concatenating decorations, over
the children T_k and U_0 merged into

    a_k b_0: (T_k succ_{a_k} U_0 + T_k prec_{b_0} U_0 + T_k . U_0).

By the one-sided rule for the leaf, whose edge type is the identity,
the merged child is U_0 on b_0 when T_k is the leaf and T_k on a_k when
U_0 is: the other operand's boundary child on its own edge.  So two
leaves give one leaf, and only a fuse of two vertices branches and is
memoized.
"""

from __future__ import annotations

from . import axioms, schroder
from .basis import LEAF, LinComb
from .family import FreeFamily
from .schroder import SchNode, SchTree


class FreeTridendriformFamily(FreeFamily):
    """Spans of Schröder basis trees with prec/succ indexed by the semigroup
    and the middle product dot.  Doubles as a tridendriform operations object.
    """

    nodes, node_type, axiom_table = schroder, SchNode, axioms.TRIDENDRIFORM
    # re-bound in this class's namespace: the benchmark tracer wraps only a
    # class's own methods
    prec, succ, extend = FreeFamily.prec, FreeFamily.succ, FreeFamily.extend
    _prec_trees, _succ_trees = FreeFamily._prec_trees, FreeFamily._succ_trees
    express = FreeFamily.express

    def __init__(self, alphabet, semigroup):
        super().__init__(alphabet, semigroup)
        self._dot_memo: dict = {}

    def dot(self, a, b, *, strict: bool = False) -> LinComb:
        return self._product("dot", a, b, strict)

    def _dot_trees(self, t: SchTree, u: SchTree) -> tuple:
        """``t . u`` on trees, memoized only where :meth:`_dot_step` branches."""
        if t is LEAF or u is LEAF:
            return ()
        if t.children[-1][1] is LEAF or u.children[0][1] is LEAF:
            return schroder.fuse(t, u, *self._dot_step(t, u))
        cached = self._dot_memo.get((t, u))
        if cached is not None:
            return cached
        result = self._dot_memo[t, u] = schroder.fuse(t, u, *self._dot_step(t, u))
        return result

    def _dot_step(self, t: SchNode, u: SchNode):
        """The merged child of ``t . u`` as its edge type and its trees: when
        one boundary child is the leaf, the other one on its own edge."""
        (am, last), (b0, first) = t.children[-1], u.children[0]
        if last is LEAF or first is LEAF:
            return (b0, (first,)) if last is LEAF else (am, (last,))
        return self.semigroup.mul_ext(am, b0), self._succ_trees(last, first, am) + \
            self._prec_trees(last, first, b0) + self._dot_trees(last, first)

    def _dot_keys(self, t: SchNode, u: SchNode) -> list:
        return schroder.fuse_keys(t, u, *self._dot_step(t, u))

    def axioms_hold(self, t: SchNode, u: SchNode, w: SchNode,
                    alpha: str, beta: str) -> bool:
        """Equality form of axiom_residuals, for exhaustive sweeps."""
        return axioms.tridendriform_family_hold(*self._instance(t, u, w, alpha, beta))


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
