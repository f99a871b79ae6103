"""The engine shared by the free dendriform and tridendriform family algebras.

Both free families are spans of typed basis trees with products
``prec``/``succ`` indexed by a semigroup, and both products are one
recursion: ``T prec_w U`` replaces the last child C of the root of T,
on the edge a, by ``C succ_a U + C prec_w U + C . U`` on the edge a*w,
and ``T succ_w U`` mirrors it on the first child of U.  The leaf is a
one-sided unit (the left operand of succ, the right one of prec) and
zero elsewhere, and its edge type is the identity, so a leaf C gives the
one tree with U grafted on the edge w: such a step does not branch, and
only the steps that branch are memoized.  The leaf rule for operands
lives in ``_product`` alone, so the kernels take basis trees only.  The
dendriform family is the case ``dot = 0`` (a dendriform algebra is a
tridendriform algebra with zero middle product).  An algebra is its own
operations object, so the CLI's family suites search it with
:func:`dendrifam.axioms.search` on spans of single trees.  It reads a
root vertex through the view ``(decorations, (edge type, child) pairs)``,
in which a binary vertex is the arity-2 case.  A kernel returns a tuple
of basis trees, a sum with multiplicity, so the recursion adds by
concatenation; coefficients enter only in the bilinear lift, adding up
a tree repeated within or across the sums.  A span operand is checked at
the call by ``Spans._own`` (a bare tree for its node type only) and a
product built when first read (:class:`_Product`), where a
``RecursionError`` or ``MemoryError`` surfaces; two unbuilt ones compare
by the intern keys that ``_prec_keys`` and its kin make from a kernel's
step, so a sweep builds no outermost product.  A read product
of two one-term spans scales the unit map of its basis pair from
``_pair_memo``; a compared one never enters it.  ``_Product`` reads of
an algebra only ``order``, ``_pair_memo`` and the kernels, so it is also
the product of :class:`~dendrifam.rotabaxter.TensorFamily`.  A family
supplies only what differs:

* ``nodes``, its tree module (:mod:`dendrifam.pbtrees` or
  :mod:`dendrifam.schroder`), and ``node_type``, its node class;
* ``axiom_table``, its table in :mod:`dendrifam.axioms`, and
  ``axioms_hold``;
* for the tridendriform family, ``dot`` with its kernels ``_dot_trees``
  and ``_dot_keys``, which are empty here.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Mapping

from . import axioms
from .basis import LEAF, LinComb, Spans, ZERO_SPAN, clean, normalize
from .errors import IdentityMisuse, InvalidElement, LeafOperand, shown
from .exprs import Dot, Expr, Gen, Prec, Succ
from .semigroups import IDENTITY

# the products of expressions, so that ``express`` is the image recursion
# of ``extend`` with expressions as values
_TERMS = SimpleNamespace(prec=lambda a, b, w: Prec(w, a, b),
                         succ=lambda a, b, w: Succ(w, a, b), dot=Dot)


class _Product(LinComb):
    """The product ``name`` of two spans of ``alg`` (a family or a tensor product), built
    when ``map`` is first read (printing, ``add``, ``scale``, hashing, use as an operand,
    read at the call); two unbuilt ones compare by their terms' keys, building no tree."""

    __slots__ = ("_factors",)
    __hash__ = LinComb.__hash__

    def __init__(self, alg, name, a, b, index):
        self._factors, self.order = (alg, name, a.map, b.map, index), alg.order

    def __getattr__(self, name):
        if name != "map":  # only an unset ``map`` gets here, on the first read
            raise AttributeError(name)
        alg, op, a, b, index = self._factors
        if len(a) == 1 == len(b):  # a basis pair: its unit map is memoized, then scaled
            ((t, c),), ((u, d),) = a.items(), b.items()
            key, c = (op, t, u, *index), c * d
            unit = alg._pair_memo.get(key) or alg._pair_memo.setdefault(
                key, self._lift("trees", (alg, op, {t: 1}, {u: 1}, index)))
            self.map = unit if c == 1 else clean({s: c * v for s, v in unit.items()})
        else:
            self.map = clean(self._lift("trees"))
        self._factors = None
        return self.map

    def __eq__(self, other):
        if type(other) is _Product and self._factors and other._factors:
            return self._lift("keys") == other._lift("keys")
        return LinComb.__eq__(self, other)

    def _lift(self, kind, factors=None) -> dict:
        """Each tree (``kind`` "trees") or key ("keys") the kernel lists on the pairs of
        operand terms (of ``factors``), with the nonzero sum of coefficient products."""
        alg, name, a, b, index = factors or self._factors
        terms, acc = getattr(alg, f"_{name}_{kind}"), {}
        for ta, ca in a.items():
            for tb, cb in b.items():
                c = ca * cb
                for t in terms(ta, tb, *index):
                    acc[t] = acc.get(t, 0) + c
        return {t: c for t, c in acc.items() if c} if 0 in acc.values() else acc


class FreeFamily(Spans):
    """Spans of basis trees with the indexed products prec/succ.

    Instances also serve as an operations object (prec, succ, add,
    scale, zero), so the free algebra can be its own oracle.
    """

    nodes: object  # the tree module
    node_type: type
    axiom_table: tuple

    def __init__(self, alphabet, semigroup):
        self.alphabet = alphabet
        self.semigroup = semigroup
        self.order = partial(self.nodes.ranks, alphabet, semigroup)
        self._terms = f"{self.node_type.__name__} trees"
        self._prec_memo: dict = {}
        self._succ_memo: dict = {}
        self._pair_memo, self._indices = {}, set()  # read basis-pair maps, checked indices

    # -- span plumbing --------------------------------------------------

    def gen(self, x: str) -> LinComb:
        self.alphabet.index(x)
        return LinComb({self.nodes.single_vertex(x): 1}, self.order)

    def span(self, *trees) -> LinComb:
        for t in trees:
            if not isinstance(t, self.node_type) and t is not LEAF:
                raise TypeError(f"not a basis tree of this family: a {type(t).__name__}")
        s = normalize([(1, t) for t in trees], self.order)
        self.order(s.map)
        return s

    # -- the indexed products --------------------------------------------

    def _operand(self, value):
        if isinstance(value, LinComb):
            return self._own(value)
        if value is LEAF:
            return value
        if type(value) is self.node_type:
            return LinComb({value: 1}, self.order)
        raise TypeError(f"not a span, tree or leaf of this family: a {type(value).__name__}")

    def _family_index(self, omega) -> str:
        if omega is not IDENTITY:
            if type(omega) is str and omega in self._indices or self.semigroup.contains(omega):
                self._indices.add(omega)
                return omega
            if omega != "1":
                raise InvalidElement(f"{shown(omega)} is not an element of the semigroup")
        raise IdentityMisuse("the adjoined identity is not a family index")

    def prec(self, a, b, omega) -> LinComb:
        return self._product("prec", a, b, omega, unit=1)

    def succ(self, a, b, omega) -> LinComb:
        return self._product("succ", a, b, omega, unit=0)

    def _product(self, name, a, b, omega=None, unit=None) -> LinComb:
        """The kernel of ``name`` lifted bilinearly (:class:`_Product`) after the index check,
        first, so also next to a leaf operand, then the leaf conventions: the leaf is neutral
        as operand ``unit`` (0 left, 1 right), zero elsewhere."""
        index = () if omega is None else (self._family_index(omega),)
        order = self.order  # two spans of this order skip the operand checks
        if not (isinstance(a, LinComb) and isinstance(b, LinComb) and a.order is order is b.order):
            a, b = self._operand(a), self._operand(b)
            if a is LEAF and b is LEAF:
                raise LeafOperand(f"{name} needs at least one genuine span")
            if a is LEAF or b is LEAF:
                if unit is not None and (a, b)[unit] is LEAF:
                    return (a, b)[1 - unit]
                return ZERO_SPAN
        return _Product(self, name, a, b, index)

    def _prec_trees(self, t, u, w: str) -> tuple:
        """``t prec_w u`` on basis trees, as a tuple of basis trees: when the
        last child of t is the leaf, the one tree t with u grafted there on
        the edge w; else the trees of :meth:`_prec_step`, memoized."""
        if self.nodes.last_edge(t)[1] is LEAF:
            return (self.nodes.graft_last(t, w, u),)
        cached = self._prec_memo.get((t, u, w))
        if cached is not None:
            return cached
        result = self._prec_memo[t, u, w] = self.nodes.regraft_last(t, *self._prec_step(t, u, w))
        return result

    def _prec_step(self, t, u, w: str):
        """The edge type and the trees of the last child of ``t prec_w u``'s root."""
        a, last = self.nodes.last_edge(t)
        if last is LEAF:
            return w, (u,)
        assert w is not IDENTITY
        return self.semigroup.mul_ext(a, w), self._succ_trees(last, u, a) + \
            self._prec_trees(last, u, w) + self._dot_trees(last, u)

    def _prec_keys(self, t, u, w: str) -> list:
        return self.nodes.last_keys(t, *self._prec_step(t, u, w))

    def _succ_trees(self, t, u, w: str) -> tuple:
        """``t succ_w u`` on basis trees, like :meth:`_prec_trees` on u's first child."""
        if self.nodes.first_edge(u)[1] is LEAF:
            return (self.nodes.graft_first(u, w, t),)
        cached = self._succ_memo.get((t, u, w))
        if cached is not None:
            return cached
        result = self._succ_memo[t, u, w] = self.nodes.regraft_first(u, *self._succ_step(t, u, w))
        return result

    def _succ_step(self, t, u, w: str):
        """The new first child of the root of ``t succ_w u``, like :meth:`_prec_step`."""
        b, first = self.nodes.first_edge(u)
        if first is LEAF:
            return w, (t,)
        assert w is not IDENTITY
        return self.semigroup.mul_ext(w, b), self._succ_trees(t, first, w) + \
            self._prec_trees(t, first, b) + self._dot_trees(t, first)

    def _succ_keys(self, t, u, w: str) -> list:
        return self.nodes.first_keys(u, *self._succ_step(t, u, w))

    def _dot_trees(self, t, u) -> tuple:
        """The middle product of trees, or its keys; empty unless a family defines ``dot``."""
        return ()
    _dot_keys = _dot_trees

    # -- axioms ----------------------------------------------------------

    def _instance(self, t, u, w, alpha: str, beta: str):
        """Arguments of the axiom functions at a basis-tree instance."""
        if not type(t) is type(u) is type(w) is self.node_type:
            self.span(t, u, w)  # TypeError, or LeafOperand for the leaf
        return (self, LinComb({t: 1}, self.order), LinComb({u: 1}, self.order),
                LinComb({w: 1}, self.order), alpha, beta, self.semigroup.mul(alpha, beta))

    def axiom_residuals(self, t, u, w, alpha: str, beta: str):
        """LHS - RHS of each family axiom at a basis-tree instance."""
        return axioms.residuals(self.axiom_table, *self._instance(t, u, w, alpha, beta))

    # -- generators and the universal morphism -------------------------------

    def express(self, t) -> Expr:
        """Expression over generators whose value in the free algebra is 1*t."""
        return self._imager(Gen, _TERMS)(t)

    def _imager(self, lookup, ops):
        """The memoized image of a basis tree under ``ops``, for ``extend``: the
        product by ``dot`` of the central factors of the root vertex, where
        decoration i has child i+1 on its right and the first also child 0
        on its left."""
        vertex, memo = self.nodes.vertex, {}

        def image(t):
            value = memo.get(t)
            if value is None:
                decs, children = vertex(t)
                a0, left = children[0]
                for i, x in enumerate(decs):
                    factor = lookup(x)
                    if left is not LEAF:
                        factor = ops.succ(image(left), factor, a0)
                        left = LEAF
                    a1, right = children[i + 1]
                    if right is not LEAF:
                        factor = ops.prec(factor, image(right), a1)
                    value = factor if i == 0 else ops.dot(value, factor)
                memo[t] = value
            return value

        return image

    def extend(self, f: Mapping[str, object], ops, operand):
        """The universal morphism determined by the generator images ``f``.

        ``ops`` must be an operations object of the family's kind whose
        axioms hold on the indices it will be used with.
        """
        span = self._operand(operand)
        if span is LEAF:
            raise LeafOperand("the leaf has no image under the universal morphism")
        image = self._imager(f.__getitem__, ops)
        return ops.add(*[ops.scale(c, image(t)) for t, c in span.map.items()])
