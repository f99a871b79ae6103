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
holds the spans of A (x) k Omega for both tensor constructions.

A vector is a tuple of exact coordinates: ``int`` when integral and
``Fraction`` otherwise, the rule spans follow for coefficients.  Callers
may pass ``Fraction`` coordinates; every operation returns the exact
form.  A vector of any length other than the algebra's dimension is
rejected with InvalidElement wherever it enters ``mul``, ``apply`` or
the induced ``add``/``scale``.  Structure constants and operator
matrices are compiled at construction into tables of their nonzero
entries, so products and operator applications loop over nonzero entries
only; ``eta`` compiles P_w + lambda id once, so each induced product is
one operator walk and one algebra product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Mapping, Optional, Tuple, Union

from .axioms import validate_dendriform_ops, validate_tridendriform_ops
from .basis import LEAF, LinComb, Spans, Value, clean, normalize
from .errors import AxiomFailure, InvalidElement, LeafOperand, shown
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


def _apply(operators: dict, omega: str, v: Vector) -> Vector:
    """P(v) for the operator P of the index ``omega`` among ``operators``,
    compiled by :meth:`RBFamily._compiled`."""
    columns = operators.get(omega)
    if columns is None:
        raise InvalidElement(f"no operator declared for index {shown(omega)}")
    out = [0] * len(columns)
    for j, a in _nonzero(v, len(columns)):
        for r, c in columns[j]:
            out[r] += c * a
    return _exact_vector(out)


def vec_add(u: Vector, v: Vector) -> Vector:
    """``u + v``; InvalidElement when their lengths differ."""
    return _exact_vector([a + b for a, b in zip(u, _checked(v, len(u)))])


def vec_scale(c: Coordinate, u: Vector) -> Vector:
    c = exact(c)
    if c == 1:
        return _exact_vector(u)
    return _exact_vector([c * a for a in u])


class FiniteAlgebra(Value):
    """Associative algebra e_i e_j = sum_k c[i][j][k] e_k over the rationals.

    ``structure`` must be d x d x d.  It is read once, at construction,
    into the table of nonzero constants (k, c) per basis pair (i, j)
    that :meth:`mul` walks.
    """

    _fields = ("structure",)
    __slots__ = _fields + ("_table",)

    def __init__(self, structure: Tuple[Tuple[Tuple[Coordinate, ...], ...], ...]):
        super().__init__(structure)
        d = len(self.structure)
        if any(len(plane) != d or any(len(constants) != d for constants in plane)
               for plane in self.structure):
            raise InvalidElement(f"structure constants must be {d}x{d}x{d}")
        object.__setattr__(self, "_table", tuple(
            tuple(tuple((k, exact(c)) for k, c in enumerate(constants) if c)
                  for constants in plane)
            for plane in self.structure))

    @property
    def dim(self) -> int:
        return len(self.structure)

    def basis_vector(self, i: int) -> Vector:
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def zero(self) -> Vector:
        return (0,) * self.dim

    def mul(self, u: Vector, v: Vector) -> Vector:
        table = self._table
        d = len(table)
        out = [0] * d
        nonzero_v = _nonzero(v, d)
        for i, a in _nonzero(u, d):
            row = table[i]
            for j, b in nonzero_v:
                ab = a * b
                for k, c in row[j]:
                    out[k] += ab * c
        return _exact_vector(out)

    def associativity_counterexample(self) -> Optional[Tuple[int, int, int]]:
        for i in range(self.dim):
            ei = self.basis_vector(i)
            for j in range(self.dim):
                ej = self.basis_vector(j)
                eij = self.mul(ei, ej)
                for k in range(self.dim):
                    ek = self.basis_vector(k)
                    if self.mul(eij, ek) != self.mul(ei, self.mul(ej, ek)):
                        return (i, j, k)
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
    ``operators`` is read when the family, or :func:`eta` over it, is built,
    into the nonzero entries (row, c) of each column that :meth:`apply`
    walks; mutating the mapping later is not supported (build a new family).
    """

    _fields = ("algebra", "weight", "operators")
    __slots__ = _fields + ("_columns",)

    def __init__(self, algebra: FiniteAlgebra, weight: Coordinate, operators: Mapping[str, Matrix]):
        super().__init__(algebra, weight, operators)
        d = self.algebra.dim
        for omega, m in self.operators.items():
            if len(m) != d or any(len(row) != d for row in m):
                raise InvalidElement(f"operator for {shown(omega)} must be {d}x{d}")
        object.__setattr__(self, "_columns", self._compiled())

    def _compiled(self, shift: Coordinate = 0) -> dict:
        """The nonzero entries (row, c) of each column of P_w + shift * id, for
        each index w, as :meth:`apply` walks them."""
        return {omega: tuple(tuple((r, c) for r, row in enumerate(m)
                                   if (c := exact(row[j] + shift if r == j else row[j])))
                             for j in range(len(m)))
                for omega, m in self.operators.items()}

    def apply(self, omega: str, v: Vector) -> Vector:
        return _apply(self._columns, omega, v)


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
    """The vector-space operations shared by the induced structures, and
    their validation by ``check``, the axiom check that each structure
    sets for its kind."""

    def __init__(self, rb: RBFamily):
        self.rb = rb
        self.weight = exact(rb.weight)

    def validated(self, semigroup: Semigroup, sample: Iterable[str]):
        """This structure, once its axioms hold on every triple of basis
        vectors over every sampled index pair; AxiomFailure otherwise."""
        alg, sample = self.rb.algebra, list(sample)
        self.check(self, [alg.basis_vector(i) for i in range(alg.dim)],
                   [(a, b, semigroup.mul(a, b)) for a in sample for b in sample])
        return self

    def add(self, *values: Vector) -> Vector:
        if not values:
            return self.zero()
        d = self.rb.algebra.dim
        return _exact_vector([sum(column) for column in zip(*[_checked(v, d) for v in values])])

    def scale(self, c: Coordinate, v: Vector) -> Vector:
        return vec_scale(c, _checked(v, self.rb.algebra.dim))

    def zero(self) -> Vector:
        return self.rb.algebra.zero()


class EtaOps(_InducedOps):
    """Dendriform structure induced by a Rota-Baxter family:
    x prec_w y = x P_w(y) + lambda x y,   x succ_w y = P_w(x) y."""

    check = staticmethod(validate_dendriform_ops)

    def __init__(self, rb: RBFamily):
        super().__init__(rb)
        self._shifted = rb._compiled(self.weight)

    def prec(self, x: Vector, y: Vector, omega: str) -> Vector:
        # x (P_w + lambda id)(y): one algebra product instead of two
        return self.rb.algebra.mul(x, _apply(self._shifted, omega, y))

    def succ(self, x: Vector, y: Vector, omega: str) -> Vector:
        return self.rb.algebra.mul(self.rb.apply(omega, x), y)


class EpsilonOps(_InducedOps):
    """Tridendriform structure induced by a Rota-Baxter family:
    x prec_w y = x P_w(y),  x succ_w y = P_w(x) y,  x . y = lambda x y."""

    check = staticmethod(validate_tridendriform_ops)

    def prec(self, x: Vector, y: Vector, omega: str) -> Vector:
        return self.rb.algebra.mul(x, self.rb.apply(omega, y))

    def succ(self, x: Vector, y: Vector, omega: str) -> Vector:
        return self.rb.algebra.mul(self.rb.apply(omega, x), y)

    def dot(self, x: Vector, y: Vector) -> Vector:
        return vec_scale(self.weight, self.rb.algebra.mul(x, y))


def eta(rb: RBFamily) -> EtaOps:
    """Dendriform operations object over a validated Rota-Baxter family."""
    return EtaOps(rb)


def epsilon(rb: RBFamily, semigroup: Semigroup, sample: Iterable[str]) -> EpsilonOps:
    """Tridendriform operations object over a validated Rota-Baxter family.

    The seven axioms are checked exhaustively on basis triples over the
    sampled index pairs before the structure is handed out; a failure
    signals a wrong formula choice and raises AxiomFailure.
    """
    return EpsilonOps(rb).validated(semigroup, sample)


class TensorSpans(Spans):
    """Spans of pairs (basis element of A, semigroup element), the tensor
    product A (x) k Omega, in the order ``order``.  A subclass sets
    ``semigroup``, ranks the basis elements of A by ``_ranks``, which raises
    for anything outside that basis, and lifts its products from A by
    :meth:`_lift`."""

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

    def _lift(self, kernel, u: LinComb, v: LinComb, side=None) -> LinComb:
        """(x (x) a) * (y (x) b) = kernel(x, y) (x) ab, extended bilinearly.  The
        kernel gives (basis element, coefficient) pairs and is indexed by a
        (``side=0``), by b (``side=1``) or not at all."""
        acc: dict = {}
        for (x, a), cu in u.map.items():
            for (y, b), cv in v.map.items():
                ab, c = self.semigroup.mul(a, b), cu * cv
                index = () if side is None else ((a, b)[side],)
                for z, cz in kernel(x, y, *index):
                    acc[z, ab] = acc.get((z, ab), 0) + c * cz
        return LinComb(clean(acc), self.order)


class TensorRB(TensorSpans):
    """The single Rota-Baxter operator P(x (x) w) = P_w(x) (x) w on spans of
    (basis index, semigroup element) pairs."""

    def __init__(self, rb: RBFamily, semigroup: Semigroup):
        self.rb, self.semigroup = rb, semigroup

    def _ranks(self, indices) -> dict:
        """Each basis index is its own rank."""
        for i in indices:
            if not (type(i) is int and 0 <= i < self.rb.algebra.dim):
                raise InvalidElement(f"no basis element {f'e_{i}' if type(i) is int else shown(i)}"
                                     f" in dimension {self.rb.algebra.dim}")
        return {i: i for i in indices}

    def mul(self, u: LinComb, v: LinComb) -> LinComb:
        return self._lift(lambda i, j: self.rb.algebra._table[i][j], u, v)

    def apply(self, u: LinComb) -> LinComb:
        basis_vector = self.rb.algebra.basis_vector
        return normalize([(c * cj, (j, a)) for (i, a), c in u.map.items()
                          for j, cj in enumerate(self.rb.apply(a, basis_vector(i))) if cj],
                         self.order)


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
    """Classical (index-free) products on spans of (basis tree, semigroup
    element) pairs over a free family algebra:
    (x (x) a) prec (y (x) b) = (x prec_b y) (x) ab, mirrored for succ, and
    (x (x) a) . (y (x) b) = (x . y) (x) ab, which is zero over the
    dendriform family."""

    def __init__(self, family):
        self.family, self.semigroup = family, family.semigroup

    def _ranks(self, trees) -> dict:
        """The family's ranks of the trees; a tree of the other kind raises
        TypeError from the ranking."""
        if LEAF in trees:
            raise LeafOperand("the leaf | is not a basis element of the free algebra")
        return self.family.order(trees)

    def _lift_trees(self, kernel, u: LinComb, v: LinComb, side=None) -> LinComb:
        # a tree kernel gives basis trees, each with coefficient 1
        return self._lift(lambda *args: [(s, 1) for s in kernel(*args)], u, v, side)

    def prec(self, u: LinComb, v: LinComb) -> LinComb:
        return self._lift_trees(self.family._prec_trees, u, v, side=1)

    def succ(self, u: LinComb, v: LinComb) -> LinComb:
        return self._lift_trees(self.family._succ_trees, u, v, side=0)

    def dot(self, u: LinComb, v: LinComb) -> LinComb:
        return self._lift_trees(self.family._dot_trees, u, v)


# -- the definition file format ------------------------------------------

def parse_rb_text(text: str):
    """Parse an algebra/operator definition file.

    Line format: ``dim=<d>``; structure constants ``sc i j k coeff`` (absent
    entries are zero); at least one operator matrix ``op <omega> v11 v12 ...``
    with d*d rationals row-major.  ``#`` comments and blank lines are ignored.
    Returns (FiniteAlgebra, {omega: matrix}).
    """
    dim = None
    constants: dict = {}
    operators: dict = {}
    for line in content_lines(text):
        if line.startswith("dim="):
            if dim is not None:
                raise InvalidElement("dim= may be declared only once")
            dim = int(line[len("dim="):])
            if dim < 1:
                raise InvalidElement("dim must be >= 1")
            continue
        parts = line.split()
        if parts[0] == "sc":
            if dim is None:
                raise InvalidElement("dim= must precede sc lines")
            if len(parts) != 5:
                raise InvalidElement(f"bad structure-constant line: {line!r}")
            i, j, k = (int(p) for p in parts[1:4])
            if not all(0 <= v < dim for v in (i, j, k)):
                raise InvalidElement(f"basis index out of range: {line!r}")
            if (i, j, k) in constants:
                raise InvalidElement(
                    f"structure constant {i} {j} {k} may be declared only once")
            constants[(i, j, k)] = parse_coefficient(parts[4])
            continue
        if parts[0] == "op":
            if dim is None:
                raise InvalidElement("dim= must precede op lines")
            omega = parts[1] if len(parts) > 1 else ""
            if len(parts) != 2 + dim * dim:
                raise InvalidElement(
                    f"operator for {omega!r} needs {dim * dim} entries")
            if omega in operators:
                raise InvalidElement(f"operator for {omega!r} may be declared only once")
            values = [parse_coefficient(p) for p in parts[2:]]
            operators[omega] = tuple(
                tuple(values[r * dim + c] for c in range(dim)) for r in range(dim))
            continue
        raise InvalidElement(f"unrecognised line in algebra file: {line!r}")
    if dim is None:
        raise InvalidElement("algebra file must declare dim=")
    if not operators:
        raise InvalidElement("algebra file declares no operators")
    structure = tuple(
        tuple(tuple(constants.get((i, j, k), 0) for k in range(dim))
              for j in range(dim))
        for i in range(dim))
    return FiniteAlgebra(structure), operators


def parse_rb_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_rb_text(handle.read())


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


def parse_map_file(path, dim: int) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_map_text(handle.read(), dim)
