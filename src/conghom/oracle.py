"""Independent brute-force checks of the graded model and the adjacency rule.

Stabilizer groups have entries of bounded degree, so reducing modulo
t^m with m = 1 + max cap embeds them in a finite matrix group.  One
breadth-first closure enumerates both the group and its derived
subgroup, the normal closure of the generator commutators.  The
abelianization orders certify the surviving-slot count; lattice
containment certifies the arithmetic adjacency rule.  Nothing here
shares code paths with the graded model it is checking.

The closures and the p-th power check multiply packed matrices
(Kronecker substitution): an entry c_0 + c_1 t + ... + c_{m-1} t^{m-1}
is the int sum_d c_d << (d*B), and a matrix is the row-major tuple of
its n*n entry ints.  A slot of B = (n*m*(p-1)^2).bit_length() bits
holds any coefficient of an unreduced product entry, a sum of at most
n*m terms each at most (p-1)^2, so no slot carries into the next.  A
product is int products and sums, a mask that keeps slots 0..m-1, and
one % p per slot.  Group tables store elements as bytes, one array item
per coefficient in row-major entry order (`_Packing.to_bytes`).
"""

from __future__ import annotations

from array import array
from operator import lshift
from typing import NamedTuple

from .building import BoundProfile, Vertex, adjacency, is_standard_vertex
from .congruence import GroupElement, elementary
from .errors import DEFAULT_LIMIT, InvariantError, OracleLimitError
from .gf import GF
from .homology import h1_basis
from .poly import Poly, PolyMatrix, column_hnf, lattice_contains

Trunc = tuple[tuple[int, ...], ...]   # n*n entries, each m coefficients
Packed = tuple[int, ...]              # n*n entries, each m slots of one int


def _trunc_from_group_element(g: GroupElement, m: int) -> Trunc:
    n = g.n
    out = []
    for i in range(n):
        for j in range(n):
            cs = g.matrix.entries[i][j].coeffs
            out.append(tuple(cs[k] if k < len(cs) else 0 for k in range(m)))
    return tuple(out)


def _typecode(p: int) -> str:
    """array type code of a coefficient in 0..p-1: one byte for every p <= 256."""
    return "B" if p <= 1 << 8 else "H" if p <= 1 << 16 else "Q"


def _deserialize(raw: bytes, n: int, m: int, p: int) -> Trunc:
    cs = array(_typecode(p), raw)
    return tuple(tuple(cs[e * m:(e + 1) * m]) for e in range(n * n))


class _Packing:
    """n x n matrices over F_p[t]/(t^m), each entry packed into one int.

    Slot d of an entry, bits [d*width, (d+1)*width), holds the
    coefficient of t^d.  The matrix is the row-major tuple of its n*n
    entries, each reduced: every slot in 0..p-1, nothing above slot m-1.
    """

    def __init__(self, n: int, m: int, p: int) -> None:
        self.n, self.m, self.p = n, m, p
        self.width = (n * m * (p - 1) ** 2).bit_length()
        self.slot = (1 << self.width) - 1
        self.keep = (1 << m * self.width) - 1
        self.shifts = tuple(range(0, m * self.width, self.width))
        self.identity = tuple(int(i == j) for i in range(n) for j in range(n))

    def pack(self, a: Trunc) -> Packed:
        shifts = self.shifts
        return tuple(sum(map(lshift, entry, shifts)) for entry in a)

    def to_bytes(self, x: Packed) -> bytes:
        """The table form of x: its coefficients, entry by entry, as array items."""
        slot, shifts = self.slot, self.shifts
        return array(_typecode(self.p), [v >> s & slot for v in x for s in shifts]).tobytes()

    def from_bytes(self, raw: bytes) -> Packed:
        return self.pack(_deserialize(raw, self.n, self.m, self.p))

    def mul(self, a: Packed, b: Packed) -> Packed:
        """a*b mod (p, t^m), by Kronecker substitution on each entry.

        Zero entries of b cost nothing, and wherever b's column j is the
        unit vector e_k the product's column j is a's column k, copied.
        """
        n, p, slot, keep, shifts = self.n, self.p, self.slot, self.keep, self.shifts
        out = [0] * (n * n)
        for j in range(n):
            col = [(k, y) for k, y in enumerate(b[j::n]) if y]
            if len(col) == 1 and col[0][1] == 1:
                out[j::n] = a[col[0][0]::n]
                continue
            for i in range(0, n * n, n):
                v = 0
                for k, y in col:
                    v += a[i + k] * y
                v &= keep
                if v >= p:  # any slot above 0 is at least 2^width > p
                    v = sum([(v >> s & slot) % p << s for s in shifts])
                out[i + j] = v
        return tuple(out)

    def _plus_identity(self, x: Packed) -> Packed:
        p, slot = self.p, self.slot
        out = list(x)
        for e in range(0, len(out), self.n + 1):
            c = out[e] & slot
            out[e] += (c + 1) % p - c
        return tuple(out)

    def inverse(self, a: Packed) -> Packed:
        """The Neumann series sum_{k<m} (I - a)^k, which inverts a = I mod t.

        Horner's rule: acc <- I + (I - a) acc, m - 1 times.
        """
        p, slot, shifts = self.p, self.slot, self.shifts
        d = self._plus_identity(
            tuple(sum(-(v >> s & slot) % p << s for s in shifts) for v in a))
        acc = self.identity
        for _ in range(1, self.m):
            acc = self._plus_identity(self.mul(d, acc))
        return acc

    def power(self, x: Packed, e: int) -> Packed:
        """x^e for e >= 1, by left-to-right square-and-multiply."""
        acc = x
        for bit in bin(e)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, x)
        return acc


class FiniteGroupTable(NamedTuple):
    """Closure of a generating set inside SL_n(F_q[t]/(t^m))."""

    n: int
    m: int
    p: int
    elements: frozenset[bytes]
    generators: tuple[bytes, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _closure(mults: list[Packed], conjugators: list[Packed], ring: _Packing,
             limit: int) -> set[Packed]:
    """Smallest set holding I, closed under x -> x*g and x -> c*x*c^-1.

    g runs over `mults`, c over `conjugators`.  In a finite group this is
    the normal closure of <mults> under the conjugators: each c^-1 is a
    power of c, so x*y is reached by conjugating x past y's moves.
    """
    mul = ring.mul
    inverses = [ring.inverse(c) for c in conjugators]
    seen = {ring.identity}
    frontier = [ring.identity]
    while frontier:
        nxt = []
        for x in frontier:
            images = [mul(x, g) for g in mults]
            images += [mul(mul(c, x), ci) for c, ci in zip(conjugators, inverses)]
            for y in images:
                if y not in seen:
                    seen.add(y)
                    if len(seen) > limit:
                        raise OracleLimitError("group too large for oracle")
                    nxt.append(y)
        frontier = nxt
    return seen


def generate_group(generators: list[GroupElement], m: int,
                   limit: int = DEFAULT_LIMIT) -> FiniteGroupTable:
    """Breadth-first closure of the generators modulo t^m."""
    if not generators:
        raise ValueError("at least one context element is required")
    n = generators[0].n
    p = generators[0].field.p
    gens = []
    for g in generators:
        t = _trunc_from_group_element(g, m)
        const = tuple(t[e][0] for e in range(n * n))
        ident = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        if const != ident:
            raise ValueError("generator is not congruent to the identity mod t")
        gens.append(t)

    ring = _Packing(n, m, p)
    packed = [ring.pack(g) for g in gens]
    seen = _closure(packed, [], ring, limit)
    order = len(seen)
    while order % p == 0:
        order //= p
    if order != 1:
        raise InvariantError("closure order is not a power of the characteristic")
    return FiniteGroupTable(
        n=n, m=m, p=p,
        elements=frozenset(map(ring.to_bytes, seen)),
        generators=tuple(map(ring.to_bytes, packed)),
    )


def commutator_subgroup(tbl: FiniteGroupTable) -> FiniteGroupTable:
    """G' as the normal closure of the generator commutators [g_a, g_b], a < b.

    For G = <S>, [G, G] is the normal closure of {[a, b] : a, b in S}
    (Magnus, Karrass & Solitar, Combinatorial Group Theory; Holt, Eick &
    O'Brien, Handbook of Computational Group Theory).  The result's
    generators are those commutators.
    """
    ring = _Packing(tbl.n, tbl.m, tbl.p)
    mul = ring.mul
    gens = [ring.from_bytes(raw) for raw in tbl.generators]
    inverses = [ring.inverse(g) for g in gens]
    comms = [
        mul(mul(gens[a], gens[b]), mul(inverses[a], inverses[b]))
        for a in range(len(gens)) for b in range(a + 1, len(gens))
    ]
    seen = frozenset(map(ring.to_bytes, _closure(comms, gens, ring, tbl.order)))
    if not seen <= tbl.elements:
        raise InvariantError("commutator subgroup leaves the group")
    return tbl._replace(elements=seen, generators=tuple(map(ring.to_bytes, comms)))


def abelianization_dim(tbl: FiniteGroupTable) -> int:
    """log_p of the abelianization order; requires an elementary quotient.

    G' comes from `commutator_subgroup`, the normal closure of the
    generator commutators.  Checks that the p-th power of every
    generator lands in G'.  That certifies it for every element: G/G'
    is abelian, so x -> x^p is a homomorphism on it, and its kernel
    holds all of G exactly when it holds the generators.  A violating
    generator would disprove the graded model, so it is raised with the
    witness attached.
    """
    p = tbl.p
    ring = _Packing(tbl.n, tbl.m, p)
    derived = commutator_subgroup(tbl)
    derived_elements = set(map(ring.from_bytes, derived.elements))
    for raw in tbl.generators:
        if ring.power(ring.from_bytes(raw), p) not in derived_elements:
            raise InvariantError(
                f"abelianization is not elementary abelian; witness {raw.hex()}"
            )
    quotient = tbl.order // derived.order
    d = 0
    while quotient % p == 0:
        quotient //= p
        d += 1
    if quotient != 1:
        raise InvariantError("abelianization order is not a power of p")
    return d


def profile_generators(profile: BoundProfile, field: GF) -> list[GroupElement]:
    """In-cap elementaries I + E_ij(t^r), enough to generate the group."""
    gens = []
    for (i, j) in profile.upper_pairs():
        for r in range(1, profile.b[(i, j)] + 1):
            gens.append(elementary(i, j, Poly.monomial(field, r), profile.n))
    return gens


def expected_order_exponent(profile: BoundProfile) -> int:
    """Coefficient count: sum of max(0, b_ij) over the upper triangle."""
    return sum(max(0, profile.b[pair]) for pair in profile.upper_pairs())


def verify_h1_formula(profile: BoundProfile, field: GF,
                      limit: int = DEFAULT_LIMIT) -> bool:
    """Brute-force abelianization dimension versus the surviving-slot count."""
    gens = profile_generators(profile, field)
    m = 1 + profile.max_bound()
    if not gens:
        return h1_basis(profile).dim == 0
    tbl = generate_group(gens, m, limit)
    if tbl.order != field.p ** expected_order_exponent(profile):
        raise InvariantError("enumerated order disagrees with the coefficient count")
    return abelianization_dim(tbl) == h1_basis(profile).dim


def adjacency_oracle(r: Vertex, rp: Vertex) -> bool:
    """Adjacency by lattice chains, independent of the arithmetic rule.

    Two vertex classes are adjacent when some power-of-t scaling of one
    diagonal lattice sits properly between the other and t times it.
    """
    if len(r) != len(rp):
        raise ValueError("vertices of different dimension")
    if not (is_standard_vertex(r) and is_standard_vertex(rp)):
        raise ValueError("not standard vertices")
    field = GF(2)  # containment of t-power diagonal lattices is field-independent
    n = len(r) + 1
    exps_a = tuple(r) + (0,)
    exps_b = tuple(rp) + (0,)
    span = max(exps_a + exps_b) + 1
    for k in range(-span, span + 1):
        c = max(0, -k)
        if min(e + k + c for e in exps_b) < 0:
            continue
        a1 = PolyMatrix.diagonal_powers(field, [e + 1 + c for e in exps_a])   # t^{c+1} A
        mid = PolyMatrix.diagonal_powers(field, [e + k + c for e in exps_b])  # t^{c+k} B
        a0 = PolyMatrix.diagonal_powers(field, [e + c for e in exps_a])       # t^c A
        if not (lattice_contains(a0, mid) and lattice_contains(mid, a1)):
            continue
        if column_hnf(mid) == column_hnf(a0) or column_hnf(mid) == column_hnf(a1):
            continue
        return True
    return False
