"""Tamari intervals of planar binary trees, an oracle for the dendriform product.

Loday and Ronco: in the free dendriform algebra on one generator,
t < u + t > u is the sum, each with coefficient 1, of the binary trees v
with over(t, u) <= v <= under(t, u) in the Tamari order, which compares
bracket vectors componentwise.  Nothing here runs the recursion of the
products, and the module is kept free of package imports on purpose.

Shapes: None is the leaf; (left, right) is a vertex.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def shapes(n: int) -> tuple:
    """All shapes with n vertices."""
    if n == 0:
        return (None,)
    return tuple((left, right) for k in range(n)
                 for left in shapes(k) for right in shapes(n - 1 - k))


def size(t) -> int:
    return 0 if t is None else 1 + size(t[0]) + size(t[1])


def over(t, u):
    """t grafted on the leftmost leaf of u."""
    return t if u is None else (over(t, u[0]), u[1])


def under(t, u):
    """u grafted on the rightmost leaf of t."""
    return u if t is None else (t[0], under(t[1], u))


def bracket(t) -> tuple:
    """For each vertex in in-order, the number of vertices of its right subtree."""
    if t is None:
        return ()
    return bracket(t[0]) + (size(t[1]),) + bracket(t[1])


@lru_cache(maxsize=None)
def brackets(n: int) -> tuple:
    """Each shape with n vertices with its bracket vector, worked out once per n."""
    return tuple((v, bracket(v)) for v in shapes(n))


def interval(t, u) -> set:
    """The shapes v with over(t, u) <= v <= under(t, u), bracket vectors
    compared componentwise."""
    low, high = bracket(over(t, u)), bracket(under(t, u))
    return {v for v, vector in brackets(len(low))
            if all(a <= b <= c for a, b, c in zip(low, vector, high))}
