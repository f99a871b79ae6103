"""Expression trees over generators and the family operations.

Used to express a basis tree in terms of the single-vertex generators
and to evaluate that expression in any target algebra through its
operations object (the basis of universal-morphism evaluation).
"""

from __future__ import annotations

from typing import Callable, Union

from .basis import Value
from .errors import shown

Expr = Union["Gen", "Prec", "Succ", "Dot"]


class Gen(Value):
    __slots__ = _fields = ("symbol",)


class Prec(Value):
    __slots__ = _fields = ("omega", "left", "right")


class Succ(Value):
    __slots__ = _fields = ("omega", "left", "right")


class Dot(Value):
    __slots__ = _fields = ("left", "right")


def evaluate(expr: Expr, ops, gen: Callable[[str], object]):
    """Evaluate an expression with ``gen`` supplying generator images."""
    if isinstance(expr, Gen):
        return gen(expr.symbol)
    if not isinstance(expr, (Prec, Succ, Dot)):
        raise TypeError(f"not an expression: {shown(expr)}")
    left, right = evaluate(expr.left, ops, gen), evaluate(expr.right, ops, gen)
    if isinstance(expr, Dot):
        return ops.dot(left, right)
    return (ops.prec if isinstance(expr, Prec) else ops.succ)(left, right, expr.omega)
