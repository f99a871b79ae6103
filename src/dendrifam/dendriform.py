"""The free dendriform family algebra on typed decorated planar binary trees.

The two indexed products are defined recursively on the depth sum: for
basis trees T = T_l v_{x,(a1,a2)} T_r and U = U_l v_{y,(b1,b2)} U_r,

    T prec_w U = T_l v_{x,(a1, a2 w)} (T_r prec_w U + T_r succ_{a2} U)
    T succ_w U = (T prec_{b1} U_l + T succ_w U_l) v_{y,(w b1, b2)} U_r

with the leaf acting as a one-sided neutral element in the base cases.
The identity index appears only inside those base cases; the public
operations take genuine semigroup elements.  These are the Schröder
formulas of :mod:`dendrifam.tridendriform` with ``dot = 0``, and the
family runs on that one recursion in :class:`~dendrifam.family.FreeFamily`.
"""

from __future__ import annotations

from . import axioms, pbtrees
from .family import FreeFamily
from .pbtrees import BinNode


class FreeDendriformFamily(FreeFamily):
    """Spans of binary basis trees with the indexed products prec/succ.

    Instances also serve as a dendriform operations object (prec, succ,
    add, scale, zero), so the free algebra can be its own oracle.
    """

    nodes, node_type, axiom_table = pbtrees, BinNode, axioms.DENDRIFORM
    # re-bound in this class's namespace: the benchmark tracer wraps only a
    # class's own methods
    prec, succ, extend = FreeFamily.prec, FreeFamily.succ, FreeFamily.extend
    _prec_trees, _succ_trees = FreeFamily._prec_trees, FreeFamily._succ_trees
    express = FreeFamily.express

    def axioms_hold(self, t: BinNode, u: BinNode, w: BinNode,
                    alpha: str, beta: str) -> bool:
        """Equality form of axiom_residuals, for exhaustive sweeps."""
        return axioms.dendriform_family_hold(*self._instance(t, u, w, alpha, beta))
