"""The engine shared by the free dendriform and tridendriform family algebras.

Both free families are spans of typed basis trees with products
``prec``/``succ`` indexed by a semigroup.  This base holds everything
the two constructions share: the span plumbing (``key``, ``gen``,
``span``, ``zero``, ``add``, ``scale``), operand coercion, the family
index check, the leaf conventions of the products, the bilinear lift of
a tree kernel, the axiom residuals and the outer sum of the universal
morphism.  A family supplies only what differs:

* ``node_type``, ``single_vertex`` and ``sort_key``, whose key function is ``key``;
* the tree kernels ``_prec_trees(t, u, w)`` and ``_succ_trees(t, u, w)``
  on basis trees or the leaf, memoized in ``_prec_memo``/``_succ_memo``
  (and the tridendriform ``dot`` with its kernel ``_dot_trees``);
* ``express`` and ``_imager``, the per-tree image recursion of ``extend``;
* ``axiom_table``, its table in :mod:`dendrifam.axioms`, and
  ``axioms_hold``.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from . import axioms
from .basis import LEAF, LinComb, ZERO_SPAN, merge, normalize, span_single
from .errors import IdentityMisuse, InvalidElement, LeafOperand
from .semigroups import IDENTITY


class FreeFamily:
    """Spans of basis trees with the indexed products prec/succ.

    Instances also serve as an operations object (prec, succ, add,
    scale, zero), so the free algebra can be its own oracle.
    """

    node_type: type
    axiom_table: tuple

    def __init__(self, alphabet, semigroup):
        self.alphabet = alphabet
        self.semigroup = semigroup
        self.key = self.sort_key(alphabet, semigroup)
        self._prec_memo: dict = {}
        self._succ_memo: dict = {}

    # -- span plumbing --------------------------------------------------

    def gen(self, x: str) -> LinComb:
        self.alphabet.index(x)
        return span_single(self.single_vertex(x))

    def span(self, *trees) -> LinComb:
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

    def _operand(self, value):
        if isinstance(value, LinComb) or value is LEAF:
            return value
        if isinstance(value, self.node_type):
            return span_single(value)
        raise TypeError(f"not a span, tree or leaf: {value!r}")

    def _family_index(self, omega) -> str:
        if omega is not IDENTITY:
            if self.semigroup.contains(omega):
                return omega
            if omega != "1":
                raise InvalidElement(f"{omega!r} is not an element of the semigroup")
        raise IdentityMisuse("the adjoined identity is not a family index")

    def prec(self, a, b, omega, *, strict: bool = False) -> LinComb:
        return self._product("prec", self._prec_trees, a, b, strict, omega, unit=1)

    def succ(self, a, b, omega, *, strict: bool = False) -> LinComb:
        return self._product("succ", self._succ_trees, a, b, strict, omega, unit=0)

    def _product(self, name, kernel, a, b, strict, omega=None, unit=None) -> LinComb:
        """``kernel`` lifted to spans, after the leaf conventions: the leaf is
        neutral as operand ``unit`` (0 left, 1 right) and gives zero elsewhere."""
        a, b = self._operand(a), self._operand(b)
        if a is LEAF and b is LEAF:
            raise LeafOperand(f"{name} needs at least one genuine span")
        if a is LEAF or b is LEAF:
            if strict:
                raise LeafOperand("leaf operand rejected in strict mode")
            if unit is not None and (a, b)[unit] is LEAF:
                return (a, b)[1 - unit]
            return ZERO_SPAN
        index = () if omega is None else (self._family_index(omega),)
        return self._bilinear(kernel, a, b, *index)

    def _bilinear(self, product, a: LinComb, b: LinComb, *index) -> LinComb:
        if len(a.map) == 1 and len(b.map) == 1:
            (ta, ca), = a.map.items()
            (tb, cb), = b.map.items()
            return product(ta, tb, *index).scaled(ca * cb)
        maps = [product(ta, tb, *index).scaled(ca * cb).map
                for ta, ca in a.map.items() for tb, cb in b.map.items()]
        return LinComb.from_map(merge(maps), self.key)

    # -- axioms ----------------------------------------------------------

    def _instance(self, t, u, w, alpha: str, beta: str):
        """Arguments of the axiom functions at a basis-tree instance."""
        return (self, span_single(t), span_single(u), span_single(w),
                alpha, beta, self.semigroup.mul(alpha, beta))

    def axiom_residuals(self, t, u, w, alpha: str, beta: str):
        """LHS - RHS of each family axiom at a basis-tree instance."""
        return axioms.residuals(self.axiom_table, *self._instance(t, u, w, alpha, beta))

    # -- the universal morphism ---------------------------------------------

    def extend(self, f: Union[Mapping[str, object], Callable[[str], object]],
               ops, operand):
        """The universal morphism determined by the generator images ``f``.

        ``ops`` must be an operations object of the family's kind, already
        validated on the sample it will be used on.
        """
        span = self._operand(operand)
        if span is LEAF:
            raise LeafOperand("the leaf has no image under the universal morphism")
        lookup = f.__getitem__ if hasattr(f, "__getitem__") else f
        image = self._imager(lookup, ops)
        total = ops.zero()
        for t, c in span.map.items():
            total = ops.add(total, ops.scale(c, image(t)))
        return total
