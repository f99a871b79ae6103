"""Finite-dimensional Rota-Baxter family algebras and the induced
structures.

An algebra is given by structure constants over the rationals; a
Rota-Baxter family attaches one operator matrix per semigroup element
and a weight.  The family identity

    P_a(x) P_b(y) = P_{ab}( P_a(x) y + x P_b(y) + lambda x y )

is stated once and checked exhaustively on basis pairs over a
caller-supplied, product-closed sample of indices, for the family and
for the operator it induces on A (x) k Omega; operators outside the
sample are an error, never silently extended.  :class:`TensorSpans`
holds the spans of A (x) k Omega for both tensor constructions and refuses
a foreign operand at the call; :class:`TensorRB` sums through ``normalize``.

A Rota-Baxter family of weight lambda on an associative algebra induces a
dendriform family (``eta``) and a tridendriform family (``epsilon``), with
gamma . epsilon = eta.  Only these hypotheses are checked, at the cost of
their nonzero products; the tests check the conclusion on basis triples.

A vector is a tuple of exact coordinates: ``int`` when integral and
``Fraction`` otherwise, the rule spans follow for coefficients.  Callers
may pass ``Fraction`` coordinates; every operation returns the exact
form.  A vector of any length other than the algebra's dimension is
rejected with InvalidElement wherever it enters ``mul``, ``apply`` or
the induced ``add``/``scale``.  The algebra's product and the five
induced products (eta's prec_w and succ_w, epsilon's prec_w, succ_w and
dot) are compiled at construction into bilinear tables of their nonzero
structure constants, each operator folded in where that keeps the table
sparse, so a product is one walk over the nonzero x_i and the nonzero j
of row i, reading y densely.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Mapping, Optional, Tuple, Union

from .basis import LinComb, Spans, Value, normalize
from .errors import AxiomFailure, InvalidElement, shown
from .family import _Product
from .rationals import exact, parse_coefficient
from .semigroups import Semigroup, content_lines

Coordinate = Union[int, Fraction]
Vector = Tuple[Coordinate, ...]
Matrix = Tuple[Tuple[Coordinate, ...], ...]


def _exact_vector(coords) -> Vector:
    return tuple([c if type(c) is int else exact(c) for c in coords])


def _checked(v: Vector, dim: int) -> Vector:
    """``v``, once it has ``dim`` coordinates; InvalidElement otherwise."""
    if len(v) != dim:
        raise InvalidElement(f"expected a vector of dimension {dim}, got {len(v)} coordinates")
    return v


def _nonzero(v: Vector, dim: int):
    """(index, exact coordinate) for each nonzero coordinate of a ``dim``-vector ``v``."""
    return [(j, c if type(c) is int else exact(c))
            for j, c in enumerate(_checked(v, dim)) if c]


class _Indexed(dict):
    """Compiled operators or products by index; InvalidElement for any other index."""

    def __missing__(self, omega):
        raise InvalidElement(f"no operator declared for index {shown(omega)}")


def _bilinear_table(dim: int, times) -> tuple:
    """For each i, the nonzero (j, ((k, c), ...)) with e_i * e_j = sum c e_k,
    for the bilinear map * with e_i * e_j the vector ``times(i, j)``."""
    rows = ([(j, tuple((k, exact(c)) for k, c in enumerate(times(i, j)) if c))
             for j in range(dim)] for i in range(dim))
    return tuple(tuple((j, terms) for j, terms in row if terms) for row in rows)


def _walk(table: tuple, x: Vector, y: Vector) -> Vector:
    """x * y for the bilinear map of ``table`` (see :func:`_bilinear_table`):
    the nonzero x_i, then the j of row i, reading y_j densely."""
    d = len(table)
    out = [0] * d
    _checked(y, d)
    for i, a in _nonzero(x, d):
        for j, terms in table[i]:
            b = y[j]
            if b:
                ab = a * (b if type(b) is int else exact(b))
                for k, c in terms:
                    out[k] += ab * c
    return _exact_vector(out)


def _apply(columns: tuple, v: Vector) -> Vector:
    """P(v) for the nonzero entries (row, c) of each column of P: the columns of the nonzero v_j."""
    out = [0] * len(columns)
    for j, a in _nonzero(v, len(columns)):
        for r, c in columns[j]:
            out[r] += c * a
    return _exact_vector(out)


def _columns(m: Matrix) -> tuple:
    """The nonzero entries (row, c) of each column of the square matrix ``m``."""
    return tuple(tuple((r, c) for r, row in enumerate(m) if (c := exact(row[j])))
                 for j in range(len(m)))


def _induced_product(table: tuple, columns: tuple, right: bool):
    """x * y = x P(y) (``right``) or P(x) y, for the algebra's ``table`` and the ``columns``
    of P: a walk of one table, P folded in, unless that table has more terms than
    ``columns`` and ``table`` together (as a dense P makes it); else P, then ``table``."""
    d = len(table)
    e = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    folded = _bilinear_table(d, lambda i, j: _walk(table, e[i], _apply(columns, e[j])) if right
                             else _walk(table, _apply(columns, e[i]), e[j]))
    terms = [sum(len(ts) for row in tab for _, ts in row) for tab in (folded, table)]
    if terms[0] <= sum(map(len, columns)) + terms[1]:
        return partial(_walk, folded)
    if right:
        return lambda x, y: _walk(table, x, _apply(columns, y))
    return lambda x, y: _walk(table, _apply(columns, x), y)


def vec_add(u: Vector, v: Vector) -> Vector:
    """``u + v``; InvalidElement when their lengths differ."""
    return _exact_vector([a + b for a, b in zip(u, _checked(v, len(u)))])


def vec_scale(c: Coordinate, u: Vector) -> Vector:
    c = exact(c)
    return _exact_vector(u if c == 1 else [c * a for a in u])


class FiniteAlgebra(Value):
    """Associative algebra e_i e_j = sum_k c[i][j][k] e_k over the rationals.

    ``structure`` must be d x d x d.  It is read once, at construction,
    into the bilinear table that :meth:`mul` walks.
    """

    _fields = ("structure",)
    __slots__ = _fields + ("_table",)

    def __init__(self, structure: Tuple[Tuple[Tuple[Coordinate, ...], ...], ...]):
        super().__init__(structure)
        d = len(self.structure)
        if any(len(plane) != d or any(len(constants) != d for constants in plane)
               for plane in self.structure):
            raise InvalidElement(f"structure constants must be {d}x{d}x{d}")
        object.__setattr__(self, "_table", _bilinear_table(d, lambda i, j: self.structure[i][j]))

    @property
    def dim(self) -> int:
        return len(self.structure)

    def basis_vector(self, i: int) -> Vector:
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def zero(self) -> Vector:
        return (0,) * self.dim

    def mul(self, u: Vector, v: Vector) -> Vector:
        return _walk(self._table, u, v)

    def associativity_counterexample(self) -> Optional[Tuple[int, int, int]]:
        """The least basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), or None.
        For each i, (e_i e_j) e_k - e_i (e_j e_k) is summed for all (j, k) at once from the
        nonzero structure constants: row i, then the row of each of its terms e_m, less
        e_i e_m times each pair (j, k) with e_m in e_j e_k."""
        table, pairs = self._table, [[] for _ in self._table]
        for j, row in enumerate(table):
            for k, terms in row:
                for m, c in terms:
                    pairs[m].append((j, k, c))  # c e_m is a term of e_j e_k
        for i, row in enumerate(table):
            residual = Counter()  # (j, k, n) -> its coefficient of e_n
            for m, im in row:
                for p, a in im:
                    for k, pk in table[p]:
                        for n, b in pk:
                            residual[m, k, n] += a * b
                for j, k, a in pairs[m]:
                    for n, b in im:
                        residual[j, k, n] -= a * b
            differ = [(j, k) for (j, k, n), c in residual.items() if c]
            if differ:
                return (i, *min(differ))
        return None

    def validate(self) -> None:
        witness = self.associativity_counterexample()
        if witness is not None:
            raise AxiomFailure(
                f"structure constants are not associative at basis triple {witness}",
                counterexample=witness)


def pointwise_algebra(dim: int) -> FiniteAlgebra:
    """k^dim with the pointwise (diagonal) product."""
    return FiniteAlgebra(tuple(
        tuple(tuple(1 if i == j == k else 0 for k in range(dim))
              for j in range(dim))
        for i in range(dim)))


def cascading_sum_matrix(dim: int, weight: Coordinate) -> Matrix:
    """P(a)_i = -weight * sum_{j <= i} a_j, a Rota-Baxter operator on k^dim."""
    weight = exact(weight)
    return tuple(tuple(-weight if j <= i else 0 for j in range(dim))
                 for i in range(dim))


class RBFamily(Value):
    """An algebra with one operator per sampled semigroup element and a weight.

    Each operator must be a d x d matrix over the algebra's dimension d.
    ``operators`` is read when the family is built, into the nonzero entries
    (row, c) of each column that :meth:`apply` walks; mutating the mapping
    later is not supported (build a new family).
    """

    _fields = ("algebra", "weight", "operators")
    __slots__ = _fields + ("_columns",)

    def __init__(self, algebra: FiniteAlgebra, weight: Coordinate, operators: Mapping[str, Matrix]):
        super().__init__(algebra, weight, operators)
        d = self.algebra.dim
        for omega, m in self.operators.items():
            if len(m) != d or any(len(row) != d for row in m):
                raise InvalidElement(f"operator for {shown(omega)} must be {d}x{d}")
        object.__setattr__(self, "_columns", _Indexed(
            {omega: _columns(m) for omega, m in self.operators.items()}))

    def apply(self, omega: str, v: Vector) -> Vector:
        """P_omega(v), walking the columns of the nonzero v_j."""
        return _apply(self._columns[omega], v)


def _rb_identity_counterexample(instances, mul, add, scale, weight) -> Optional[dict]:
    """The first instance of P_a(x) P_b(y) = P_ab(P_a(x) y + x P_b(y) + weight x y)
    that fails, or None.  ``instances`` yields (fields of the counterexample,
    P_ab as a map, x, P_a(x), y, P_b(y))."""
    for fields, pab, x, px, y, py in instances:
        lhs = mul(px, py)
        rhs = pab(add(add(mul(px, y), mul(x, py)), scale(weight, mul(x, y))))
        if lhs != rhs:
            return dict(fields, lhs=lhs, rhs=rhs)
    return None


def _require_identity(name: str, failure: Optional[dict]) -> None:
    if failure is not None:
        raise AxiomFailure(
            f"{name} identity fails at alpha={failure['alpha']} beta={failure['beta']} "
            f"(e_{failure['i']}, e_{failure['j']})",
            counterexample=failure)


def rb_family_counterexample(rb: RBFamily, semigroup: Semigroup,
                             sample: Iterable[str]) -> Optional[dict]:
    """First (alpha, beta, i, j) violating the family identity, or None."""
    sample, alg = list(sample), rb.algebra
    basis = [(i, alg.basis_vector(i)) for i in range(alg.dim)]
    # (i, e_i, P_alpha(e_i)) for each i, computed once per alpha on first use
    images = lru_cache(maxsize=None)(lambda alpha: [(i, x, rb.apply(alpha, x)) for i, x in basis])
    instances = (({"alpha": alpha, "beta": beta, "i": i, "j": j}, pab, x, px, y, py)
                 for alpha in sample for beta in sample
                 for pab in [partial(rb.apply, semigroup.mul(alpha, beta))]
                 for i, x, px in images(alpha) for j, y, py in images(beta))
    return _rb_identity_counterexample(instances, alg.mul, vec_add, vec_scale, rb.weight)


class _InducedOps:
    """The operations shared by the induced structures: the products x prec_w y =
    x P_w(y), plus lambda x y when the structure is ``shifted``, and x succ_w y =
    P_w(x) y, compiled by :func:`_induced_product`; and the vector-space operations.
    Their axioms are not checked: they follow from the family identity."""

    def __init__(self, rb: RBFamily):
        self.rb, self.weight = rb, exact(rb.weight)
        shift, table = self.weight if self.shifted else 0, rb.algebra._table
        self._prec = _Indexed({w: _induced_product(table, _columns(  # of P_w + shift id
            [[c + shift * (r == j) for j, c in enumerate(row)] for r, row in enumerate(m)]), True)
            for w, m in rb.operators.items()})
        self._succ = _Indexed({w: _induced_product(table, columns, False)
                               for w, columns in rb._columns.items()})

    def add(self, *values: Vector) -> Vector:
        if not values:
            return self.zero()
        d = self.rb.algebra.dim
        return _exact_vector([sum(column) for column in zip(*[_checked(v, d) for v in values])])

    def scale(self, c: Coordinate, v: Vector) -> Vector:
        return vec_scale(c, _checked(v, self.rb.algebra.dim))

    def prec(self, x: Vector, y: Vector, omega: str) -> Vector:
        return self._prec[omega](x, y)

    def succ(self, x: Vector, y: Vector, omega: str) -> Vector:
        return self._succ[omega](x, y)

    def zero(self) -> Vector:
        return self.rb.algebra.zero()


class EtaOps(_InducedOps):
    """Dendriform structure induced by a Rota-Baxter family:
    x prec_w y = x P_w(y) + lambda x y,   x succ_w y = P_w(x) y."""

    shifted = True
    # re-bound here: the benchmark tracer wraps only a class's own methods
    prec, succ = _InducedOps.prec, _InducedOps.succ


class EpsilonOps(_InducedOps):
    """Tridendriform structure induced by a Rota-Baxter family:
    x prec_w y = x P_w(y),  x succ_w y = P_w(x) y,  x . y = lambda x y."""

    shifted = False
    prec, succ = _InducedOps.prec, _InducedOps.succ

    def __init__(self, rb: RBFamily):
        super().__init__(rb)  # x . y = lambda x y: the structure constants times lambda
        self._dot = _bilinear_table(rb.algebra.dim, lambda i, j: vec_scale(
            self.weight, rb.algebra.structure[i][j]))

    def dot(self, x: Vector, y: Vector) -> Vector:
        return _walk(self._dot, x, y)


def eta(rb: RBFamily) -> EtaOps:
    """Dendriform operations object over a Rota-Baxter family; nothing is checked."""
    return EtaOps(rb)


def epsilon(rb: RBFamily, semigroup: Semigroup, sample: Iterable[str]) -> EpsilonOps:
    """Tridendriform operations object over a Rota-Baxter family, once the theorem's
    hypotheses hold: an associative algebra and the family identity on the sampled
    index pairs; AxiomFailure otherwise.  The seven axioms then follow, unswept."""
    rb.algebra.validate()
    _require_identity("Rota-Baxter family", rb_family_counterexample(rb, semigroup, sample))
    return EpsilonOps(rb)


class TensorSpans(Spans):
    """Spans of pairs (basis element of A, semigroup element), the tensor product A (x) k Omega,
    in the order ``order``.  A subclass sets ``semigroup`` and ``_basis``, the name of the basis
    elements of A, tests one by ``_is_basis`` and ranks them by ``_ranks``, which raises."""

    def order(self, pairs, repeated=None) -> dict:
        """Each pair (b, w) mapped to its place: the rank of b among the basis
        elements of the pairs, then the element key of w."""
        rank, key = self._ranks([b for b, _ in pairs]), self.semigroup.element_key
        return {(b, w): (rank[b], *key(w)) for b, w in pairs}

    def element(self, b, omega: str) -> LinComb:
        """1 * (b (x) omega), for a basis element b of A."""
        self._ranks((b,))
        self.semigroup.require(omega)
        return LinComb({(b, omega): 1}, self.order)

    def _own(self, s) -> LinComb:
        """``s``, if a span of (basis element, element) pairs; one of ``order`` is trusted."""
        if not isinstance(s, LinComb) or s.order is not self.order and not all(
                type(t) is tuple and len(t) == 2 and self._is_basis(t[0])
                and self.semigroup.contains(t[1]) for t in s.map):
            raise TypeError(f"not a span of ({self._basis}, element) pairs: a {type(s).__name__}")
        return s


class TensorRB(TensorSpans):
    """The single Rota-Baxter operator P(x (x) w) = P_w(x) (x) w on spans of
    (basis index, semigroup element) pairs."""

    _basis = "basis index"

    def __init__(self, rb: RBFamily, semigroup: Semigroup):
        self.rb, self.semigroup = rb, semigroup
        self.order = self.order  # bound once: a span of this order is known by identity
        self._rows = [dict(row) for row in rb.algebra._table]  # keyed by j, for mul's reads

    def _is_basis(self, i) -> bool:
        return type(i) is int and 0 <= i < self.rb.algebra.dim

    def _ranks(self, indices) -> dict:
        """Each basis index is its own rank."""
        for i in indices:
            if not self._is_basis(i):
                name = f"e_{i}" if type(i) is int and i.bit_length() < 64 else shown(i)
                raise InvalidElement(f"no basis element {name} in dimension {self.rb.algebra.dim}")
        return {i: i for i in indices}

    def mul(self, u: LinComb, v: LinComb) -> LinComb:
        """(e_i (x) a) (e_j (x) b) = e_i e_j (x) ab, extended bilinearly."""
        rows, ab, v = self._rows, self.semigroup.mul, self._own(v).map.items()
        return normalize([(cu * cv * ck, (k, ab(a, b))) for (i, a), cu in self._own(u).map.items()
                          for (j, b), cv in v for k, ck in rows[i].get(j, ())], self.order)

    def apply(self, u: LinComb) -> LinComb:
        """P(e_i (x) w) = P_w(e_i) (x) w, extended linearly: column i of P_w."""
        columns = self.rb._columns
        return normalize([(c * cr, (r, w)) for (i, w), c in self._own(u).map.items()
                          for r, cr in columns[w][i]], self.order)


def tensor_rb_counterexample(rb: RBFamily, semigroup: Semigroup,
                             sample: Iterable[str]) -> Optional[dict]:
    """First sampled basis pair violating the weight-lambda identity, or None."""
    op = TensorRB(rb, semigroup)
    basis = [(i, a) for a in sample for i in range(rb.algebra.dim)]
    # (e_i (x) a, its image) for the n-th basis pair, built once on first use
    image = lru_cache(maxsize=None)(lambda n: (u := op.element(*basis[n]), op.apply(u)))
    instances = (({"alpha": a, "beta": b, "i": i, "j": j}, op.apply, *image(m), *image(n))
                 for m, (i, a) in enumerate(basis) for n, (j, b) in enumerate(basis))
    return _rb_identity_counterexample(instances, op.mul, op.add, op.scale, rb.weight)


def tensor_rb(rb: RBFamily, semigroup: Semigroup, sample: Iterable[str]) -> TensorRB:
    """Construct and verify the tensor Rota-Baxter operator on the sample."""
    _require_identity("tensor Rota-Baxter", tensor_rb_counterexample(rb, semigroup, sample))
    return TensorRB(rb, semigroup)


class TensorFamily(TensorSpans):
    """Classical products on spans of (basis tree, semigroup element) pairs over a
    free family: (x (x) a) prec (y (x) b) = (x prec_b y) (x) ab, mirrored for succ,
    and (x (x) a) . (y (x) b) = (x . y) (x) ab, each the family's lazy
    :class:`~dendrifam.family._Product` over its kernels tagged by :meth:`_tagged`."""

    def __init__(self, family):
        self.family, self.semigroup, self._pair_memo = family, family.semigroup, {}
        self._basis = family.node_type.__name__
        self.order = self.order  # bound once: a span of this order is known by identity
        f, tag = family, partial(partial, self._tagged)  # b indexes prec, a indexes succ
        self._prec_trees, self._prec_keys = tag(f._prec_trees, 1), tag(f._prec_keys, 1)
        self._succ_trees, self._succ_keys = tag(f._succ_trees, 0), tag(f._succ_keys, 0)
        self._dot_trees, self._dot_keys = tag(f._dot_trees, None), tag(f._dot_keys, None)
        self.prec, self.succ, self.dot = (
            partial(self._product, name) for name in ("prec", "succ", "dot"))

    def _is_basis(self, t) -> bool:
        return type(t) is self.family.node_type

    def _ranks(self, trees) -> dict:
        """The family's ranks of its basis trees ``trees``; anything else raises."""
        return self.family.order(self.family.span(*trees).map)

    def _product(self, name, u, v) -> LinComb:
        """The product ``name`` of u and v: ``prec``, ``succ`` and ``dot`` are bound to it."""
        return _Product(self, name, self._own(u), self._own(v), ())

    def _tagged(self, kernel, side, xa, yb) -> list:
        """The trees or keys of the family's ``kernel`` on x and y, for pairs (x, a) and
        (y, b), indexed by a (``side`` 0), by b (1) or by nothing (None), each paired with ab."""
        (x, a), (y, b) = xa, yb
        ab = self.semigroup.mul(a, b)
        return [(s, ab) for s in kernel(x, y, *(() if side is None else ((a, b)[side],)))]


# -- the definition file format ------------------------------------------

def parse_rb_text(text: str):
    """Parse an algebra/operator definition file.

    Line format: ``dim=<d>``; structure constants ``sc i j k coeff`` (absent
    entries are zero); at least one operator matrix ``op <omega> v11 v12 ...``
    with d*d rationals row-major.  ``#`` comments and blank lines are ignored.
    Returns (FiniteAlgebra, {omega: matrix}).
    """
    dim, constants, operators = None, {}, {}
    for line in content_lines(text):
        parts = line.split()
        if line.startswith("dim="):
            if dim is not None:
                raise InvalidElement("dim= may be declared only once")
            dim = int(line[len("dim="):])
            if dim < 1:
                raise InvalidElement("dim must be >= 1")
        elif parts[0] == "sc":
            if dim is None:
                raise InvalidElement("dim= must precede sc lines")
            if len(parts) != 5:
                raise InvalidElement(f"bad structure-constant line: {line!r}")
            i, j, k = (int(p) for p in parts[1:4])
            if not all(0 <= v < dim for v in (i, j, k)):
                raise InvalidElement(f"basis index out of range: {line!r}")
            if (i, j, k) in constants:
                raise InvalidElement(f"structure constant {i} {j} {k} may be declared only once")
            constants[(i, j, k)] = parse_coefficient(parts[4])
        elif parts[0] == "op":
            if dim is None:
                raise InvalidElement("dim= must precede op lines")
            omega = parts[1] if len(parts) > 1 else ""
            if len(parts) != 2 + dim * dim:
                raise InvalidElement(f"operator for {omega!r} needs {dim * dim} entries")
            if omega in operators:
                raise InvalidElement(f"operator for {omega!r} may be declared only once")
            values = [parse_coefficient(p) for p in parts[2:]]
            operators[omega] = tuple(tuple(values[r * dim:(r + 1) * dim]) for r in range(dim))
        else:
            raise InvalidElement(f"unrecognised line in algebra file: {line!r}")
    if dim is None:
        raise InvalidElement("algebra file must declare dim=")
    if not operators:
        raise InvalidElement("algebra file declares no operators")
    return FiniteAlgebra(tuple(tuple(tuple(constants.get((i, j, k), 0) for k in range(dim))
                                     for j in range(dim)) for i in range(dim))), operators


def parse_map_text(text: str, dim: int) -> dict:
    """Parse a generator-image map: one ``<symbol> <basis index>`` per line.
    ``#`` comments and blank lines are ignored."""
    images = {}
    for line in content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise InvalidElement(f"bad map line: {line!r}")
        symbol, index = parts[0], int(parts[1])
        if not 0 <= index < dim:
            raise InvalidElement(f"basis index out of range: {line!r}")
        if symbol in images:
            raise InvalidElement(f"image of {symbol!r} may be declared only once")
        images[symbol] = index
    if not images:
        raise InvalidElement("map file declares no generator images")
    return images
