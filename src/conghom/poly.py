"""Polynomials over GF(p), polynomial matrices, and canonical lattice labels.

The ring F_q[t] is a Euclidean domain, so every nonsingular square
polynomial matrix has a column Hermite normal form: upper triangular,
monic pivots, off-pivot entries in each pivot row reduced below the
pivot degree.  Full-rank sublattices of the standard lattice whose
index is a power of t are tagged by the scale-normalized HNF of any
basis, which is a complete invariant of the lattice class.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .field import GF, _check_same_field


class Poly:
    """Polynomial in t with GF(p) coefficients, trailing zeros stripped."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: Iterable[int]) -> None:
        cs = [c % field.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: GF) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: GF) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field: GF, k: int, c: int = 1) -> "Poly":
        """c * t^k."""
        if k < 0:
            raise ValueError("negative exponent")
        return cls(field, (0,) * k + (c,))

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
        _check_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = (out[k] + c) % self.field.p
        return Poly(self.field, out)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_field(self.field, other.field)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = (out[i + j] + a * b) % p
        return Poly(self.field, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.field, [c * a for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k.  Negative k requires divisibility."""
        if k >= 0:
            return Poly(self.field, (0,) * k + self.coeffs) if self.coeffs else self
        if self.is_zero():
            return self
        if any(c for c in self.coeffs[:-k]):
            raise ValueError("not divisible by the requested power of t")
        return Poly(self.field, self.coeffs[-k:])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

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


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    _check_same_field(a.field, b.field)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    field = a.field
    p = field.p
    inv_lead = field.inv(b.leading())
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
    return Poly(field, q), Poly(field, rem)


class PolyMatrix:
    """Square matrix of polynomials over a common GF context."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: GF, entries: Sequence[Sequence[Poly]]) -> None:
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        for row in entries:
            for e in row:
                _check_same_field(field, e.field)
        self.field = field
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def identity(cls, field: GF, n: int) -> "PolyMatrix":
        one = Poly.one(field)
        zero = Poly.zero(field)
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal_powers(cls, field: GF, exponents: Sequence[int]) -> "PolyMatrix":
        """diag(t^e1, ..., t^en)."""
        n = len(exponents)
        zero = Poly.zero(field)
        return cls(field, [[Poly.monomial(field, exponents[i]) if i == j else zero
                            for j in range(n)] for i in range(n)])

    def get(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        _check_same_field(self.field, other.field)
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = Poly.zero(self.field)
                for k in range(n):
                    a = self.entries[i][k]
                    if not a.is_zero():
                        b = other.entries[k][j]
                        if not b.is_zero():
                            acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.field, out)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self.mul(other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(tuple(e.coeffs for e in row) for row in self.entries)))

    def __repr__(self) -> str:
        rows = "; ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries)
        return f"PolyMatrix({rows})"


def polymat_det(a: PolyMatrix) -> Poly:
    """Exact determinant by cofactor expansion (dimensions stay small)."""
    n = a.n

    def minor_det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Poly:
        if len(rows) == 1:
            return a.entries[rows[0]][cols[0]]
        acc = Poly.zero(a.field)
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
        return Poly.one(a.field)
    return minor_det(tuple(range(n)), tuple(range(n)))


def column_hnf(a: PolyMatrix) -> PolyMatrix:
    """Column Hermite normal form over F_q[t].

    Returns a * U for a unimodular U: upper triangular, monic diagonal,
    and every off-diagonal entry in a pivot row of degree strictly below
    the pivot degree of its column.  Unique for the column span, so two
    matrices have equal HNF exactly when their columns generate the same
    F_q[t]-lattice.  Raises on singular input.
    """
    n = a.n
    field = a.field
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
                q, _ = poly_divmod(cols[j][i], cols[j0][i])
                cols[j] = [cj - q * c0 for cj, c0 in zip(cols[j], cols[j0])]
        cols[i], cols[j0] = cols[j0], cols[i]

    for i in range(n):
        lead = cols[i][i].leading()
        if lead != 1:
            inv = field.inv(lead)
            cols[i] = [c.scale(inv) for c in cols[i]]

    # Reduce pivot-row entries; descending order keeps finished rows intact.
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            if cols[j][i].degree >= cols[i][i].degree:
                q, _ = poly_divmod(cols[j][i], cols[i][i])
                cols[j] = [cj - q * ci for cj, ci in zip(cols[j], cols[i])]

    return PolyMatrix(field, [[cols[j][i] for j in range(n)] for i in range(n)])


class CanonicalLabel:
    """Scale-normalized HNF naming a lattice class (a building vertex).

    The stored basis satisfies L inside the standard lattice but not
    inside t times it, which pins down the representative of the class
    under scaling by powers of t and nonzero constants.
    """

    __slots__ = ("hnf",)

    def __init__(self, hnf: PolyMatrix) -> None:
        self.hnf = hnf

    @property
    def n(self) -> int:
        return self.hnf.n

    def key(self) -> tuple:
        """Sortable, hashable encoding of the label."""
        return tuple(tuple(e.coeffs for e in row) for row in self.hnf.entries)

    def hex(self) -> str:
        """Compact hex name: per entry a length byte then coefficient bytes."""
        out = bytearray()
        for row in self.hnf.entries:
            for e in row:
                out.append(len(e.coeffs))
                out.extend(e.coeffs)
        return out.hex()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CanonicalLabel) and self.hnf == other.hnf

    def __hash__(self) -> int:
        return hash(self.hnf)

    def __repr__(self) -> str:
        return f"CanonicalLabel({self.hnf!r})"


def lattice_label(a: PolyMatrix) -> CanonicalLabel:
    """Canonical label of the lattice spanned by the columns of `a`.

    The columns must span a lattice commensurable with the standard one,
    i.e. det(a) = unit * t^k.  The basis is scaled by the unique global
    power of t putting the lattice inside the standard lattice but not
    inside t times it, then brought to column HNF.
    """
    d = polymat_det(a)
    if d.is_zero() or sum(1 for c in d.coeffs if c) != 1:
        raise ValueError("columns do not span a lattice commensurable with the standard one")
    h = column_hnf(a)
    v = min(e.valuation() for row in h.entries for e in row if not e.is_zero())
    if v > 0:
        h = PolyMatrix(a.field, [[e.shift(-int(v)) for e in row] for row in h.entries])
    return CanonicalLabel(h)


def lattice_contains(outer: PolyMatrix, inner: PolyMatrix) -> bool:
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
        h = column_hnf(h)
    for j in range(n):
        col = [inner.entries[i][j] for i in range(n)]
        for i in range(n - 1, -1, -1):
            q, r = poly_divmod(col[i], h.entries[i][i])
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
