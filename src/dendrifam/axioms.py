"""The family axioms, stated once per family as a table.

An operations object supplies ``add``, ``scale``, ``zero`` and the
products (``prec``/``succ`` indexed by a semigroup token, plus ``dot``
for the tridendriform case).  A table row ``(number, lhs, rhs)`` gives
both sides of one axiom as functions of ``(ops, x, y, z, alpha, beta,
alphabeta)``.  The tables :data:`DENDRIFORM` and :data:`TRIDENDRIFORM`
are the single statement of the axioms: the equality test
(:func:`hold`), the residuals (left-hand side minus right-hand side, so
an axiom holds exactly when its residual equals ``zero()``), the
counterexample search and the classical (index-free) axioms, seen
through :class:`_Unindexed`, are all derived from them.  The
tridendriform axioms 1-3 are the dendriform ones with ``dot`` added to
the sum that meets the index alpha*beta; the classical axioms are the
family axioms with the index ignored.

:func:`search` is the one loop over a table: the CLI axiom suites,
family and tensor, only list their instances for it, and :func:`hold`,
which the free families' ``axioms_hold`` runs on, searches one instance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

_MINUS_ONE = Fraction(-1)


def _sub(ops, a, b):
    return ops.add(a, ops.scale(_MINUS_ONE, b))


def _dendriform_sum(o, a, b, alpha, beta):
    return o.add(o.prec(a, b, beta), o.succ(a, b, alpha))


def _tridendriform_sum(o, a, b, alpha, beta):
    return o.add(_dendriform_sum(o, a, b, alpha, beta), o.dot(a, b))


def _axioms_1_to_3(total):
    """The three axioms shared by both families; ``total(o, a, b, alpha,
    beta)`` is the sum that meets the index alpha*beta."""
    return (
        (1, lambda o, x, y, z, a, b, ab: o.prec(o.prec(x, y, a), z, b),
            lambda o, x, y, z, a, b, ab: o.prec(x, total(o, y, z, a, b), ab)),
        (2, lambda o, x, y, z, a, b, ab: o.prec(o.succ(x, y, a), z, b),
            lambda o, x, y, z, a, b, ab: o.succ(x, o.prec(y, z, b), a)),
        (3, lambda o, x, y, z, a, b, ab: o.succ(total(o, x, y, a, b), z, ab),
            lambda o, x, y, z, a, b, ab: o.succ(x, o.succ(y, z, b), a)),
    )


DENDRIFORM = _axioms_1_to_3(_dendriform_sum)

TRIDENDRIFORM = _axioms_1_to_3(_tridendriform_sum) + (
    (4, lambda o, x, y, z, a, b, ab: o.dot(o.succ(x, y, a), z),
        lambda o, x, y, z, a, b, ab: o.succ(x, o.dot(y, z), a)),
    (5, lambda o, x, y, z, a, b, ab: o.dot(o.prec(x, y, a), z),
        lambda o, x, y, z, a, b, ab: o.dot(x, o.succ(y, z, a))),
    (6, lambda o, x, y, z, a, b, ab: o.prec(o.dot(x, y), z, a),
        lambda o, x, y, z, a, b, ab: o.dot(x, o.prec(y, z, a))),
    (7, lambda o, x, y, z, a, b, ab: o.dot(o.dot(x, y), z),
        lambda o, x, y, z, a, b, ab: o.dot(x, o.dot(y, z))),
)


def hold(table, ops, x, y, z, *indices) -> bool:
    """Whether every axiom holds at one instance, ``indices`` being (alpha,
    beta, alphabeta): :func:`search` on that instance alone."""
    return search(table, ops, [(x, y, z, indices)]) is None


def residuals(table, ops, *args) -> tuple:
    """Left-hand side minus right-hand side of each axiom of ``table``."""
    return tuple(_sub(ops, lhs(ops, *args), rhs(ops, *args)) for _, lhs, rhs in table)


def search(table, ops, instances):
    """The first instance violating an axiom of ``table``, or None.

    ``instances`` yields ``(x, y, z, (alpha, beta, alphabeta))``; the caller
    supplies the index product, so the operations object does not need to
    know the semigroup.  Each axiom is tested by equality, and the residual
    is built only for the one that fails.  This is the one loop over an
    axiom table.
    """
    for x, y, z, (alpha, beta, alphabeta) in instances:
        args = (ops, x, y, z, alpha, beta, alphabeta)
        for number, lhs, rhs in table:
            left, right = lhs(*args), rhs(*args)
            if left != right:
                return {"axiom": number, "x": x, "y": y, "z": z,
                        "alpha": alpha, "beta": beta, "residual": _sub(ops, left, right)}
    return None


class _Unindexed:
    """Classical (index-free) operations seen as a family that ignores its index."""

    def __init__(self, ops):
        self.ops = ops

    def __getattr__(self, name):
        # dot, add, scale and zero take no index
        return getattr(self.ops, name)

    def prec(self, a, b, _):
        return self.ops.prec(a, b)

    def succ(self, a, b, _):
        return self.ops.succ(a, b)


dendriform_family_hold = partial(hold, DENDRIFORM)
tridendriform_family_hold = partial(hold, TRIDENDRIFORM)
