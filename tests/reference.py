"""Slow, independent references that the tests hold the package to.

Nothing here ships: the package never imports this module, and the
command line never runs it.  It holds

- the polynomial route that conghom.poly's coefficient-tuple routines
  are checked against: the Poly and PolyMatrix classes over GF(p),
  given by the int p, with the mixed-prime check, their product and
  identity, the n! cofactor determinant, and the Poly-based ref_poly_divmod,
  ref_column_hnf, ref_lattice_contains and ref_lattice_label, which
  tests commensurability by that determinant;
- the paper's filtration identities on the level-t congruence kernel:
  the level of an element, its depth-i coefficient matrix rho, the Lie
  bracket and the group commutator, with the traceless matrices they
  produce;
- the elements of SL_n(F_q[t]) that only the tests build: the
  determinant-checked GroupElement, the elementary matrices I + E_ij(a),
  their identity, product and adjugate inverse, the constant
  polynomial, and the truncation of an element mod t^m that the
  oracle's generate_group takes;
- the polynomial routes that the constant-matrix code is checked
  against: conjugation by a constant flag,
  membership in a bounded unipotent group and the class vector read
  off its coefficients;
- the dense GF(p) matrix that the tests compute with, its product and
  transpose, rref and inverse as thin wrappers over conghom.gf's
  extend_rref and inverse_entries, and densify of a sparse matrix;
- the determinant over GF(p), which checks the flag representatives;
- the heap rank, a Markowitz elimination on the rows, which checks the
  column reduction of conghom.gf.sparse_rank;
- the row-list RREF and the inverse read off the RREF of [m | I], which
  check extend_rref and inverse_entries through rref and inverse;
- edge_inclusion, the uncached dense block of one edge into one
  endpoint, with W = s_v^-1 s_e from a dense product, which the
  assembled boundary is held to;
- the coefficient-by-coefficient product and Neumann-series inverse of
  truncated matrices, which check the oracle's packed arithmetic;
- the uncached lattice route to adjacency, through the Poly routes
  above, which checks the oracle's cached adjacency_oracle;
- the depth-one witness Phi: C0 -> gl_n, whose kernel contains the
  image of the boundary and whose rank is n^2 - 1, which is why dim H0
  can never fall below n^2 - 1.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from typing import Iterable, Sequence

from conghom.building import ComplexZ
from conghom.errors import InvariantError
from conghom.gf import SparseMatrix, extend_rref, inverse_entries
from conghom.homology import BlockIndex, _inclusion
from conghom.oracle import Trunc
from conghom.wedge import (BoundProfile, H1Basis, Vertex, bound_profile, h1_basis,
                           is_standard_vertex)


def _check_same_prime(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"mixed field contexts: GF({a}) vs GF({b})")


class Poly:
    """Polynomial in t with GF(p) coefficients, trailing zeros stripped."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int]) -> None:
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls(p, (1,))

    @classmethod
    def monomial(cls, p: int, k: int, c: int = 1) -> "Poly":
        """c * t^k."""
        if k < 0:
            raise ValueError("negative exponent")
        return cls(p, (0,) * k + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def valuation(self) -> float:
        """Smallest power of t with nonzero coefficient; inf for zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return math.inf

    def coefficient(self, k: int) -> int:
        if k < 0:
            raise ValueError("negative power of t")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_prime(self.p, other.p)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = (out[k] + c) % self.p
        return Poly(self.p, out)

    def __neg__(self) -> "Poly":
        return Poly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_prime(self.p, other.p)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.p)
        p = self.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = (out[i + j] + a * b) % p
        return Poly(self.p, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.p, [c * a for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k.  Negative k requires divisibility."""
        if k >= 0:
            return Poly(self.p, (0,) * k + self.coeffs) if self.coeffs else self
        if self.is_zero():
            return self
        if any(c for c in self.coeffs[:-k]):
            raise ValueError("not divisible by the requested power of t")
        return Poly(self.p, self.coeffs[-k:])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("t" if c == 1 else f"{c}t")
            else:
                terms.append(f"t^{k}" if c == 1 else f"{c}t^{k}")
        return " + ".join(terms)


def ref_poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    _check_same_prime(a.p, b.p)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p = a.p
    if a.degree < b.degree:
        return Poly.zero(p), a
    inv_lead = pow(b.leading(), p - 2, p)
    rem = list(a.coeffs)
    db = b.degree
    q = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and rem:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        f = (rem[-1] * inv_lead) % p
        q[k] = f
        for i, c in enumerate(b.coeffs):
            rem[k + i] = (rem[k + i] - f * c) % p
    return Poly(p, q), Poly(p, rem)


class PolyMatrix:
    """Square matrix of polynomials over one GF(p), given by the int p."""

    __slots__ = ("p", "n", "entries")

    def __init__(self, p: int, entries: Sequence[Sequence[Poly]]) -> None:
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        for row in entries:
            for e in row:
                _check_same_prime(p, e.p)
        self.p = p
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def identity(cls, p: int, n: int) -> "PolyMatrix":
        one = Poly.one(p)
        zero = Poly.zero(p)
        return cls(p, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal_powers(cls, p: int, exponents: Sequence[int]) -> "PolyMatrix":
        """diag(t^e1, ..., t^en)."""
        n = len(exponents)
        zero = Poly.zero(p)
        return cls(p, [[Poly.monomial(p, exponents[i]) if i == j else zero
                        for j in range(n)] for i in range(n)])

    def get(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        _check_same_prime(self.p, other.p)
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = Poly.zero(self.p)
                for k in range(n):
                    a = self.entries[i][k]
                    if not a.is_zero():
                        b = other.entries[k][j]
                        if not b.is_zero():
                            acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.p, out)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self.mul(other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.p == other.p
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.p, tuple(tuple(e.coeffs for e in row) for row in self.entries)))

    def __repr__(self) -> str:
        rows = "; ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries)
        return f"PolyMatrix({rows})"


def polymat_det(a: PolyMatrix) -> Poly:
    """Exact determinant by cofactor expansion (dimensions stay small)."""
    n = a.n

    def minor_det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Poly:
        if len(rows) == 1:
            return a.entries[rows[0]][cols[0]]
        acc = Poly.zero(a.p)
        r0 = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            e = a.entries[r0][c]
            if e.is_zero():
                continue
            sub = minor_det(rest, cols[:idx] + cols[idx + 1:])
            term = e * sub
            acc = acc + (term if idx % 2 == 0 else -term)
        return acc

    if n == 0:
        return Poly.one(a.p)
    return minor_det(tuple(range(n)), tuple(range(n)))


def ref_column_hnf(a: PolyMatrix) -> PolyMatrix:
    """Column Hermite normal form over F_q[t].

    Returns a * U for a unimodular U: upper triangular, monic diagonal,
    and every off-diagonal entry in a pivot row of degree strictly below
    the pivot degree of its column.  Unique for the column span, so two
    matrices have equal HNF exactly when their columns generate the same
    F_q[t]-lattice.  Raises on singular input.
    """
    n = a.n
    p = a.p
    cols = [[a.entries[i][j] for i in range(n)] for j in range(n)]

    for i in range(n - 1, -1, -1):
        while True:
            nz = [j for j in range(i + 1) if not cols[j][i].is_zero()]
            if not nz:
                raise ValueError("singular matrix has no Hermite normal form")
            if len(nz) == 1:
                j0 = nz[0]
                break
            j0 = min(nz, key=lambda j: (cols[j][i].degree, j))
            for j in nz:
                if j == j0:
                    continue
                q, _ = ref_poly_divmod(cols[j][i], cols[j0][i])
                cols[j] = [cj - q * c0 for cj, c0 in zip(cols[j], cols[j0])]
        cols[i], cols[j0] = cols[j0], cols[i]

    for i in range(n):
        lead = cols[i][i].leading()
        if lead != 1:
            inv = pow(lead, p - 2, p)
            cols[i] = [c.scale(inv) for c in cols[i]]

    # Reduce pivot-row entries; descending order keeps finished rows intact.
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            if cols[j][i].degree >= cols[i][i].degree:
                q, _ = ref_poly_divmod(cols[j][i], cols[i][i])
                cols[j] = [cj - q * ci for cj, ci in zip(cols[j], cols[i])]

    return PolyMatrix(p, [[cols[j][i] for j in range(n)] for i in range(n)])


def ref_lattice_label(a: PolyMatrix) -> tuple:
    """Canonical label of the lattice spanned by the columns of `a`.

    The columns must span a lattice commensurable with the standard one,
    i.e. det(a) = unit * t^k, which the cofactor determinant checks.  The
    basis is scaled by the unique global power of t putting the lattice
    inside the standard lattice but not inside t times it, then brought
    to column HNF; the label is its rows of coefficient tuples, as
    conghom.poly.lattice_label returns them.
    """
    d = polymat_det(a)
    if d.is_zero() or sum(1 for c in d.coeffs if c) != 1:
        raise ValueError("columns do not span a lattice commensurable with the standard one")
    h = ref_column_hnf(a)
    v = min(e.valuation() for row in h.entries for e in row if not e.is_zero())
    if v > 0:
        h = PolyMatrix(a.p, [[e.shift(-int(v)) for e in row] for row in h.entries])
    return tuple(tuple(e.coeffs for e in row) for row in h.entries)


def ref_lattice_contains(outer: PolyMatrix, inner: PolyMatrix) -> bool:
    """Whether the column span of `inner` sits inside that of `outer`.

    Both arguments are nonsingular bases; the outer one is brought to
    HNF and each inner column is tested by back-substitution with exact
    divisibility at every pivot.
    """
    n = outer.n
    if inner.n != n:
        raise ValueError("dimension mismatch")
    h = outer
    if not _is_upper_triangular(h):
        h = ref_column_hnf(h)
    for j in range(n):
        col = [inner.entries[i][j] for i in range(n)]
        for i in range(n - 1, -1, -1):
            q, r = ref_poly_divmod(col[i], h.entries[i][i])
            if not r.is_zero():
                return False
            if not q.is_zero():
                for i2 in range(i):
                    col[i2] = col[i2] - q * h.entries[i2][i]
    return True


def _is_upper_triangular(a: PolyMatrix) -> bool:
    return all(
        a.entries[i][j].is_zero()
        for i in range(a.n) for j in range(a.n) if i > j
    )


class GroupElement:
    """Member of SL_n(F_q[t]); determinant one is checked at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: PolyMatrix) -> None:
        if polymat_det(matrix) != Poly.one(matrix.p):
            raise ValueError("matrix does not have determinant one")
        self.matrix = matrix

    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def n(self) -> int:
        return self.matrix.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"GroupElement({self.matrix!r})"


def elementary(i: int, j: int, a: Poly, n: int) -> GroupElement:
    """The element I + E_ij(a), 1-based indices, i != j."""
    if i == j:
        raise ValueError("elementary matrices require distinct indices")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("index out of range")
    p = a.p
    rows = [[Poly.one(p) if r == c else Poly.zero(p) for c in range(n)]
            for r in range(n)]
    rows[i - 1][j - 1] = a
    return GroupElement(PolyMatrix(p, rows))


def trunc_from_group_element(g: GroupElement, m: int) -> Trunc:
    """g mod t^m as the oracle's truncated matrix: row-major entries, m coefficients each."""
    n = g.n
    out = []
    for i in range(n):
        for j in range(n):
            cs = g.matrix.entries[i][j].coeffs
            out.append(tuple(cs[k] if k < len(cs) else 0 for k in range(m)))
    return tuple(out)


class DenseMatrix:
    """Immutable row-major matrix of GF(p) residues; entries are reduced mod p."""

    __slots__ = ("p", "rows", "cols", "entries")

    def __init__(self, p: int, rows: int, cols: int, entries) -> None:
        ent = tuple([v % p for v in entries])
        if len(ent) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.p = p
        self.rows = rows
        self.cols = cols
        self.entries = ent

    @classmethod
    def from_rows(cls, p: int, rows) -> "DenseMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(p, r, c, [v for row in rows for v in row])

    @classmethod
    def identity(cls, p: int, n: int) -> "DenseMatrix":
        return cls(p, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.p, self.cols, self.rows,
                           [v for j in range(self.cols) for v in self.col(j)])

    def mul(self, other: "DenseMatrix") -> "DenseMatrix":
        _check_same_prime(self.p, other.p)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        rows = [self.row(i) for i in range(self.rows)]
        cols = [other.col(j) for j in range(other.cols)]
        # __init__ reduces each sum mod p
        return DenseMatrix(self.p, self.rows, other.cols,
                           [sum(map(operator.mul, r, c)) for r in rows for c in cols])

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self.mul(other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DenseMatrix) and self.p == other.p
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.p, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.p}, {self.to_rows()})"


def rref(m: DenseMatrix) -> tuple[int, DenseMatrix, tuple[int, ...]]:
    """(rank, reduced row echelon form, pivot columns), by conghom.gf.extend_rref.

    The rows of m are folded in order through extend_rref, and the RREF
    is padded with zero rows back to the shape of m.
    """
    red: tuple = ()
    for row in m.to_rows():
        red = extend_rref(red, row, m.p, m.cols)
    entries = [v for row in red for v in row] + [0] * ((m.rows - len(red)) * m.cols)
    return len(red), DenseMatrix(m.p, m.rows, m.cols, entries), tuple(r.index(1) for r in red)


def inverse(m: DenseMatrix) -> DenseMatrix:
    """Inverse, by conghom.gf.inverse_entries; ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    return DenseMatrix(m.p, m.rows, m.cols, inverse_entries(m.entries, m.rows, m.p))


def densify(m: SparseMatrix) -> DenseMatrix:
    """The sparse matrix m with its zeros written out."""
    ent = [0] * (m.rows * m.cols)
    for r, row in m.by_row.items():
        for c, v in row.items():
            ent[r * m.cols + c] = v
    return DenseMatrix(m.p, m.rows, m.cols, ent)


def edge_inclusion(p: int, edge_rep: tuple[tuple[int, ...], tuple[Vertex, Vertex]],
                   vertex_rep: tuple[tuple[int, ...], Vertex]) -> DenseMatrix:
    """Dense block of H1 of an edge into an endpoint: conghom.homology._inclusion, uncached.

    The representatives are (flag entries, simplex) and (flag entries,
    r_v).  W = s_v^-1 s_e comes from a dense product, not from the
    packed products and memos of boundary_columns; ValueError when the
    vertex is not an endpoint, InvariantError on a support violation.
    """
    s_e, simplex = edge_rep
    s_v, rv = vertex_rep
    n = len(rv) + 1
    w = inverse(DenseMatrix(p, n, n, s_v)) @ DenseMatrix(p, n, n, s_e)
    edge_basis = h1_basis(bound_profile(list(simplex)))
    vert_basis = h1_basis(bound_profile([rv]))
    entries = _inclusion(w.transpose().entries, n, p, simplex, edge_basis, rv, vert_basis)
    return densify(SparseMatrix(p, vert_basis.dim, edge_basis.dim, entries))


def add(x: DenseMatrix, y: DenseMatrix) -> DenseMatrix:
    _check_same_prime(x.p, y.p)
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ValueError("shape mismatch")
    return DenseMatrix(x.p, x.rows, x.cols, [a + b for a, b in zip(x.entries, y.entries)])


def sub(x: DenseMatrix, y: DenseMatrix) -> DenseMatrix:
    _check_same_prime(x.p, y.p)
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ValueError("shape mismatch")
    return DenseMatrix(x.p, x.rows, x.cols, [a - b for a, b in zip(x.entries, y.entries)])


def trace(m: DenseMatrix) -> int:
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix")
    return sum(m.get(i, i) for i in range(m.rows)) % m.p


def det(m: DenseMatrix) -> int:
    """Determinant by Gaussian elimination with row swaps."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    p = m.p
    a = m.to_rows()
    n = m.rows
    result = 1
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            result = (-result) % p
        result = (result * a[c][c]) % p
        inv = pow(a[c][c], p - 2, p)
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = (a[i][c] * inv) % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return result


class TracelessMatrix(DenseMatrix):
    """Square GF(p) matrix with zero trace, checked at construction."""

    def __init__(self, p: int, n: int, entries) -> None:
        super().__init__(p, n, n, entries)
        if trace(self) != 0:
            raise InvariantError("matrix has nonzero trace")


def bracket(x: DenseMatrix, y: DenseMatrix) -> TracelessMatrix:
    """Commutator bracket x*y - y*x."""
    d = sub(x @ y, y @ x)
    return TracelessMatrix(d.p, d.rows, d.entries)


def poly_const(p: int, c: int) -> Poly:
    """The constant polynomial c."""
    return Poly(p, (c,))


def from_constant(m: DenseMatrix) -> PolyMatrix:
    """The square constant matrix m as a polynomial matrix."""
    if m.rows != m.cols:
        raise ValueError("only square constant matrices lift")
    return PolyMatrix(m.p, [[poly_const(m.p, m.get(i, j)) for j in range(m.rows)]
                            for i in range(m.rows)])


def polymat_adjugate(a: PolyMatrix) -> PolyMatrix:
    """Adjugate; for determinant-one matrices this is the exact inverse."""
    n = a.n
    p = a.p
    if n == 1:
        return PolyMatrix(p, [[Poly.one(p)]])
    out = [[Poly.zero(p)] * n for _ in range(n)]
    all_rows = tuple(range(n))
    for i in range(n):
        rows = all_rows[:i] + all_rows[i + 1:]
        for j in range(n):
            cols = all_rows[:j] + all_rows[j + 1:]
            sub_matrix = PolyMatrix(p, [[a.entries[r][c] for c in cols] for r in rows])
            m = polymat_det(sub_matrix)
            out[j][i] = m if (i + j) % 2 == 0 else -m
    return PolyMatrix(p, out)


def group_identity(p: int, n: int) -> GroupElement:
    return GroupElement(PolyMatrix.identity(p, n))


def group_mul(*factors: GroupElement) -> GroupElement:
    """The product of the factors, left to right, determinant checked."""
    return GroupElement(functools.reduce(operator.matmul, (g.matrix for g in factors)))


def group_inverse(g: GroupElement) -> GroupElement:
    # determinant one, so the adjugate is the exact inverse
    return GroupElement(polymat_adjugate(g.matrix))


def conjugate_by(g: GroupElement, s: DenseMatrix) -> GroupElement:
    """s * g * s^-1 for a constant determinant-one matrix s."""
    return GroupElement(from_constant(s) @ g.matrix @ from_constant(inverse(s)))


def level(g: GroupElement) -> float:
    """Largest i with g congruent to the identity mod t^i (inf for identity)."""
    one = Poly.one(g.p)
    best = math.inf
    for i in range(g.n):
        for j in range(g.n):
            e = g.matrix.entries[i][j]
            best = min(best, (e - one if i == j else e).valuation())
    return best


def rho(i: int, g: GroupElement) -> TracelessMatrix:
    """Depth-i coefficient matrix: the t^i coefficients of g - I.

    Requires level(g) >= i >= 1.  The result is traceless (forced by the
    determinant) and additive in g on elements of level >= i.
    """
    if i < 1:
        raise ValueError("depth must be at least 1")
    if level(g) < i:
        raise ValueError(f"element has level below {i}")
    n = g.n
    one = Poly.one(g.p)
    ent = []
    for r in range(n):
        for c in range(n):
            e = g.matrix.entries[r][c]
            ent.append((e - one if r == c else e).coefficient(i))
    return TracelessMatrix(g.p, n, ent)


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """g h g^-1 h^-1, computed exactly."""
    return group_mul(g, h, group_inverse(g), group_inverse(h))


def membership(profile: BoundProfile, u: GroupElement) -> bool:
    """Whether u lies in the bounded unipotent group of the profile."""
    n = profile.n
    if u.n != n:
        return False
    one = Poly.one(u.p)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e = u.matrix.entries[i - 1][j - 1]
            if i == j:
                if e != one:
                    return False
            elif i > j:
                if not e.is_zero():
                    return False
            else:
                if e.is_zero():
                    continue
                if e.coefficient(0) != 0:
                    return False
                if e.degree > profile.b[(i, j)]:
                    return False
    return True


def class_vector(basis: H1Basis, u: GroupElement) -> tuple[int, ...]:
    """Coordinates of the class of u in slot order.

    Reads the coefficient of t^degree off entry (i, j) for each slot.
    Killed degrees carry no coordinate; the surviving criterion
    guarantees additivity on products.
    """
    if not membership(basis.profile, u):
        raise ValueError("element lies outside the stabilizer profile")
    return tuple(
        u.matrix.entries[s.i - 1][s.j - 1].coefficient(s.degree)
        for s in basis.slots
    )


def depth_one_witness(z: ComplexZ, index: BlockIndex) -> DenseMatrix:
    """Phi: C0 -> gl_n as an n^2 x dim C0 matrix, gl_n read row-major.

    Vertex slot (a, b, 1) of v maps to s_v E_ab s_v^-1, the outer
    product of column a of s_v and row b of s_v^-1; slots of degree
    two or more map to 0.  An edge slot of degree one goes to
    s_v W E_ij W^-1 s_v^-1 = s_e E_ij s_e^-1 at both endpoints, so
    Phi kills every boundary column, and the image is traceless, so
    its rank is at most n^2 - 1.
    """
    n = z.n
    p = z.q
    cols = [(0,) * (n * n)] * index.dim_c0
    for key, off, basis in index.vertex_blocks:
        s = DenseMatrix(p, n, n, z.vertices[key].flag)
        s_inv = inverse(s)
        for k, slot in enumerate(basis.slots):
            if slot.degree == 1:
                cols[off + k] = tuple(x * y for x in s.col(slot.i - 1)
                                      for y in s_inv.row(slot.j - 1))
    return DenseMatrix(p, index.dim_c0, n * n, [v for c in cols for v in c]).transpose()


def witness_defects(phi: DenseMatrix, boundary: SparseMatrix) -> list[int]:
    """The boundary columns c with phi times column c nonzero, in order."""
    p = phi.p
    image: dict[int, list[int]] = {}
    for r, row in boundary.by_row.items():
        phi_r = phi.col(r)
        for c, v in row.items():
            acc = image.get(c, [0] * phi.rows)
            image[c] = [a + v * x for a, x in zip(acc, phi_r)]
    return sorted(c for c, acc in image.items() if any(a % p for a in acc))


def heap_rank(m: SparseMatrix) -> int:
    """Rank by sparse elimination with a lazy heap of pivot rows.

    The pivot row is the live row with the fewest nonzeros, ties broken
    on the smaller row index; within it the pivot column is the one
    with the fewest live rows, ties broken on the smaller column index.
    This is the Markowitz rule restricted to the shortest row, so the
    elimination order is deterministic and fill-in stays low.

    The rows wait in a min-heap keyed on (length, row).  Every update
    pushes the row again with its new length instead of removing the
    old entry, so a popped entry whose row is gone or whose length no
    longer matches is stale and is skipped.  Rows that cancel to zero
    are dropped.  Choosing a pivot costs O(log h) per popped entry for
    a heap of h entries, plus one pass over the pivot row, instead of a
    scan over every live nonzero; the updates dominate the total.
    Eliminates on a copy of m's rows, so m is left unchanged.  Agrees
    with rref on the densified matrix.
    """
    p = m.p
    rows = {r: dict(row) for r, row in m.by_row.items()}
    col_members: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_members.setdefault(c, set()).add(r)

    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, pr = heapq.heappop(heap)
        pivot_row = rows.get(pr)
        if pivot_row is None or len(pivot_row) != length:
            continue
        pc = min(pivot_row, key=lambda c: (len(col_members[c]), c))
        del rows[pr]
        inv = pow(pivot_row[pc], p - 2, p)
        pivot_row = {c: (v * inv) % p for c, v in pivot_row.items()}
        for c in pivot_row:
            col_members[c].discard(pr)
        for r in list(col_members[pc]):
            row = rows[r]
            f = row[pc]
            for c, v in pivot_row.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    if c not in row:
                        col_members[c].add(r)
                    row[c] = nv
                elif c in row:
                    del row[c]
                    col_members[c].discard(r)
            if row:
                heapq.heappush(heap, (len(row), r))
            else:
                del rows[r]
        rank += 1
    return rank


def row_rref(m: DenseMatrix) -> tuple[int, DenseMatrix, tuple[int, ...]]:
    """Reduced row echelon form on a list of rows: (rank, reduced matrix, pivot columns).

    Every pivot row is scaled by the inverse of its pivot, and every
    column is scanned until the rank reaches the row count.  Checks
    conghom.gf.extend_rref through rref.
    """
    p = m.p
    a = m.to_rows()
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    reduced = DenseMatrix.from_rows(p, a) if m.rows else DenseMatrix(p, 0, m.cols, [])
    return r, reduced, tuple(pivots)


def augmented_inverse(m: DenseMatrix) -> DenseMatrix:
    """Inverse from row_rref of the whole augmented matrix [m | I]; ValueError when singular.

    Checks conghom.gf.inverse_entries through inverse.
    """
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = DenseMatrix(
        m.p, n, 2 * n,
        [m.get(i, j) if j < n else (1 if j - n == i else 0)
         for i in range(n) for j in range(2 * n)],
    )
    rank, red, piv = row_rref(aug)
    if piv[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return DenseMatrix(m.p, n, n, [red.get(i, n + j) for i in range(n) for j in range(n)])


def trunc_identity(n: int, m: int) -> Trunc:
    one = (1,) + (0,) * (m - 1)
    zero = (0,) * m
    return tuple(one if i == j else zero for i in range(n) for j in range(n))


def trunc_mul(a: Trunc, b: Trunc, n: int, m: int, p: int) -> Trunc:
    """a*b mod (p, t^m), one coefficient product at a time."""
    out = []
    for i in range(n):
        for j in range(n):
            acc = [0] * m
            for k in range(n):
                x = a[i * n + k]
                y = b[k * n + j]
                for d1 in range(m):
                    c1 = x[d1]
                    if c1:
                        for d2 in range(m - d1):
                            c2 = y[d2]
                            if c2:
                                acc[d1 + d2] = (acc[d1 + d2] + c1 * c2) % p
            out.append(tuple(acc))
    return tuple(out)


def trunc_sub_identity(a: Trunc, n: int, m: int, p: int) -> Trunc:
    out = []
    for i in range(n):
        for j in range(n):
            cs = list(a[i * n + j])
            if i == j:
                cs[0] = (cs[0] - 1) % p
            out.append(tuple(cs))
    return tuple(out)


def trunc_inverse(a: Trunc, n: int, m: int, p: int) -> Trunc:
    """Neumann series: a = I + N with N divisible by t, so N^m = 0 mod t^m."""
    nil = trunc_sub_identity(a, n, m, p)
    acc = trunc_identity(n, m)
    term = trunc_identity(n, m)
    sign = 1
    for _ in range(1, m):
        term = trunc_mul(term, nil, n, m, p)
        sign = -sign
        acc = tuple(
            tuple((x + sign * y) % p for x, y in zip(acc[e], term[e]))
            for e in range(n * n)
        )
    return acc


def adjacency_lattice(r: Vertex, rp: Vertex) -> bool:
    """Adjacency by lattice chains, every lattice, HNF and containment computed afresh.

    Two vertex classes are adjacent when some power-of-t scaling of one
    diagonal lattice sits properly between the other and t times it.
    Checks the cached conghom.oracle.adjacency_oracle.
    """
    if len(r) != len(rp):
        raise ValueError("vertices of different dimension")
    if not (is_standard_vertex(r) and is_standard_vertex(rp)):
        raise ValueError("not standard vertices")
    p = 2  # containment of t-power diagonal lattices is field-independent
    exps_a = tuple(r) + (0,)
    exps_b = tuple(rp) + (0,)
    span = max(exps_a + exps_b) + 1
    for k in range(-span, span + 1):
        c = max(0, -k)
        if min(e + k + c for e in exps_b) < 0:
            continue
        a1 = PolyMatrix.diagonal_powers(p, [e + 1 + c for e in exps_a])   # t^{c+1} A
        mid = PolyMatrix.diagonal_powers(p, [e + k + c for e in exps_b])  # t^{c+k} B
        a0 = PolyMatrix.diagonal_powers(p, [e + c for e in exps_a])       # t^c A
        if not (ref_lattice_contains(a0, mid) and ref_lattice_contains(mid, a1)):
            continue
        if ref_column_hnf(mid) == ref_column_hnf(a0) or ref_column_hnf(mid) == ref_column_hnf(a1):
            continue
        return True
    return False
