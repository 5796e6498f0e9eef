"""Independent brute-force checks of the graded model and the adjacency rule.

Stabilizer groups have entries of bounded degree, so reducing modulo
t^m with m = 1 + max cap embeds them in a finite matrix group.  One
breadth-first closure enumerates both the group and its derived
subgroup, the normal closure of the generator commutators (Holt, Eick &
O'Brien, Handbook of Computational Group Theory, 2005).  The
abelianization orders certify the surviving-slot count; lattice
containment certifies the arithmetic adjacency rule.  Nothing here
shares code paths with the graded model it is checking, and nothing
here loads the construction of Z_R or its boundary.

Generators are written directly as truncated matrices
(profile_generators): each in-cap elementary I + t^r E_ij is the
identity's entries with the coefficient of t^r set at (i, j).
generate_group checks that each generator is the identity mod t.

The closures and the p-th power check multiply packed matrices
(Kronecker substitution): an entry c_0 + c_1 t + ... + c_{m-1} t^{m-1}
is the int sum_d c_d << (d*B), and a matrix is the row-major tuple of
its n*n entry ints.  A slot of B = (n*m*(p-1)^2).bit_length() bits
holds any coefficient of an unreduced product entry, a sum of at most
n*m terms each at most (p-1)^2, so no slot carries into the next.  A
product is int products and sums, a mask that keeps slots 0..m-1, and
one % p per slot.  A closure multiplies every element on the right by
the same generators and conjugator inverses, so it reads the column
structure of each such fixed factor once (_Packing.mul_by).  Inverses
sum the Neumann series only up to the first zero power, one product
for an elementary.  Group tables hold these packed matrices too, and
the p-th power of each generator is looked up among them as it is
computed.  The only decoder, _Packing.unpack, names a witness.

adjacency_oracle compares t-power diagonal lattices, written as rows of
coefficient tuples over F_2.  The same few exponent tuples recur across
the vertex pairs of a ball, so the diagonal bases and their column HNFs
are cached on their exponent tuples (functools.cache; one entry per
tuple that occurs).  The HNFs are still computed by the generic
column_hnf, and every containment by the generic lattice_contains of
conghom.poly, with no shortcut for diagonal lattices, so they stay
independent of wedge.adjacency.  Containments are not cached: no
(outer, inner) pair recurs among the pairs of one ball.
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from operator import add, lshift
from typing import Callable, NamedTuple, Sequence

from .errors import DEFAULT_LIMIT, InvariantError, OracleLimitError
from .poly import column_hnf, lattice_contains
from .wedge import BoundProfile, Vertex, h1_basis, is_standard_vertex

Trunc = tuple[tuple[int, ...], ...]   # n*n entries, each m coefficients
Packed = tuple[int, ...]              # n*n entries, each m slots of one int


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

    def unpack(self, x: Packed) -> Trunc:
        slot, shifts = self.slot, self.shifts
        return tuple(tuple(v >> s & slot for s in shifts) for v in x)

    def mul_by(self, b: Packed) -> Callable[[Packed], Packed]:
        """x -> x*b mod (p, t^m), by Kronecker substitution on each entry.

        b's column structure is read once, here.  Zero entries of b cost
        nothing, and wherever b's column j is the unit vector e_k the
        product's column j is x's column k, copied.
        """
        n, p, slot, keep, shifts = self.n, self.p, self.slot, self.keep, self.shifts
        rows = range(0, n * n, n)
        plan = []  # (j, k when column j of b is e_k else None, the nonzero (k, b_kj))
        for j in range(n):
            col = [(k, y) for k, y in enumerate(b[j::n]) if y]
            unit = col[0][0] if len(col) == 1 and col[0][1] == 1 else None
            plan.append((j, unit, col))

        def times(x: Packed) -> Packed:
            out = [0] * (n * n)
            for j, unit, col in plan:
                if unit is not None:
                    out[j::n] = x[unit::n]
                    continue
                for i in rows:
                    v = 0
                    for k, y in col:
                        v += x[i + k] * y
                    v &= keep
                    if v >= p:  # any slot above 0 is at least 2^width > p
                        v = sum([(v >> s & slot) % p << s for s in shifts])
                    out[i + j] = v
            return tuple(out)

        return times

    def mul(self, a: Packed, b: Packed) -> Packed:
        """a*b mod (p, t^m), for a b that is used once."""
        return self.mul_by(b)(a)

    def _reduce(self, v: int) -> int:
        """v with every slot taken mod p; slots below 2^width, none above m-1."""
        p, slot = self.p, self.slot
        return v if v < p else sum([(v >> s & slot) % p << s for s in self.shifts])

    def inverse(self, a: Packed) -> Packed:
        """The Neumann series I + d + d^2 + ..., d = I - a, which inverts a = I mod t.

        d is divisible by t, so d^m = 0 mod t^m, and the sum stops at the
        first zero power of d: an elementary a, with d^2 = 0, costs one
        product.  Raises ValueError when d^m is not zero, which happens
        only when a is not the identity mod t.
        """
        p, slot, shifts, reduce = self.p, self.slot, self.shifts, self._reduce
        minus_a = (sum([-(v >> s & slot) % p << s for s in shifts]) if v else 0 for v in a)
        d = tuple(map(reduce, map(add, minus_a, self.identity)))
        times_d = self.mul_by(d)
        acc, term = self.identity, d
        for _ in range(self.m):
            if not any(term):
                return acc
            acc = tuple(map(reduce, map(add, acc, term)))
            term = times_d(term)
        raise ValueError("matrix is not the identity mod t")

    def power(self, x: Packed, e: int) -> Packed:
        """x^e for e >= 1, by left-to-right square-and-multiply."""
        acc = x
        for bit in bin(e)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, x)
        return acc


class FiniteGroupTable(NamedTuple):
    """Closure of a generating set inside SL_n(F_q[t]/(t^m)), as packed matrices.

    Packed matrices are canonical (_Packing): every slot is reduced into
    0..p-1 and nothing sits above slot m-1, so two tuples are equal
    exactly when their matrices are, and set equality, <= and membership
    compare the matrices.
    """

    n: int
    m: int
    p: int
    elements: frozenset[Packed]
    generators: tuple[Packed, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _closure(mults: list[Packed], conjugators: list[tuple[Packed, Packed]], ring: _Packing,
             limit: int) -> set[Packed]:
    """Smallest set holding I, closed under x -> x*g and x -> c*x*c^-1.

    g runs over `mults`, (c, c^-1) over `conjugators`.  In a finite
    group this is the normal closure of <mults> under the conjugators:
    each c^-1 is a power of c, so x*y is reached by conjugating x past
    y's moves.  Each g and each c^-1 is a fixed right factor
    (_Packing.mul_by).
    """
    mul = ring.mul
    right = [ring.mul_by(g) for g in mults]
    conjugate = [(c, ring.mul_by(c_inv)) for c, c_inv in conjugators]
    seen = {ring.identity}
    frontier = [ring.identity]
    while frontier:
        nxt = []
        for x in frontier:
            images = [times(x) for times in right]
            images += [times_inverse(mul(c, x)) for c, times_inverse in conjugate]
            for y in images:
                if y not in seen:
                    seen.add(y)
                    if len(seen) > limit:
                        raise OracleLimitError("group too large for oracle")
                    nxt.append(y)
        frontier = nxt
    return seen


def generate_group(generators: Sequence[Trunc], p: int,
                   limit: int = DEFAULT_LIMIT) -> FiniteGroupTable:
    """Breadth-first closure modulo t^m of truncated generators over F_p.

    Each generator is an n x n matrix over F_p[t]/(t^m): its n*n entries
    in row-major order, each the tuple of its m coefficients in 0..p-1.
    n and m are read off the first; every generator must have that
    shape and be the identity mod t.
    """
    if not generators:
        raise ValueError("at least one context element is required")
    n, m = isqrt(len(generators[0])), len(generators[0][0])
    ring = _Packing(n, m, p)
    for g in generators:
        if len(g) != n * n or any(len(entry) != m for entry in g):
            raise ValueError("generators must be n x n matrices of m coefficients each")
        if tuple(entry[0] for entry in g) != ring.identity:
            raise ValueError("generator is not congruent to the identity mod t")
    packed = [ring.pack(g) for g in generators]
    seen = _closure(packed, [], ring, limit)
    order = len(seen)
    while order % p == 0:
        order //= p
    if order != 1:
        raise InvariantError("closure order is not a power of the characteristic")
    return FiniteGroupTable(n=n, m=m, p=p, elements=frozenset(seen), generators=tuple(packed))


def commutator_subgroup(tbl: FiniteGroupTable) -> FiniteGroupTable:
    """G' as the normal closure of the generator commutators [g_a, g_b], a < b.

    For G = <S>, [G, G] is the normal closure of {[a, b] : a, b in S}
    (Magnus, Karrass & Solitar, Combinatorial Group Theory; Holt, Eick &
    O'Brien, Handbook of Computational Group Theory).  The result's
    generators are those commutators.
    """
    ring = _Packing(tbl.n, tbl.m, tbl.p)
    mul = ring.mul
    gens = tbl.generators
    inverses = [ring.inverse(g) for g in gens]
    comms = [
        mul(mul(gens[a], gens[b]), mul(inverses[a], inverses[b]))
        for a in range(len(gens)) for b in range(a + 1, len(gens))
    ]
    seen = frozenset(_closure(comms, list(zip(gens, inverses)), ring, tbl.order))
    if not seen <= tbl.elements:
        raise InvariantError("commutator subgroup leaves the group")
    return tbl._replace(elements=seen, generators=tuple(comms))


def abelianization_dim(tbl: FiniteGroupTable) -> int:
    """log_p of the abelianization order; requires an elementary quotient.

    G' comes from `commutator_subgroup`, the normal closure of the
    generator commutators.  Checks that the p-th power of every
    generator lands in G'.  That certifies it for every element: G/G'
    is abelian, so x -> x^p is a homomorphism on it, and its kernel
    holds all of G exactly when it holds the generators.  Each power is
    looked up among G''s packed elements.  A violating generator would
    disprove the graded model, so it is raised with its coefficients
    attached as the witness.
    """
    p = tbl.p
    ring = _Packing(tbl.n, tbl.m, p)
    derived = commutator_subgroup(tbl)
    for g in tbl.generators:
        if ring.power(g, p) not in derived.elements:
            raise InvariantError(
                f"abelianization is not elementary abelian; witness {ring.unpack(g)}"
            )
    quotient = tbl.order // derived.order
    d = 0
    while quotient % p == 0:
        quotient //= p
        d += 1
    if quotient != 1:
        raise InvariantError("abelianization order is not a power of p")
    return d


def profile_generators(profile: BoundProfile) -> list[Trunc]:
    """In-cap elementaries I + t^r E_ij mod t^m, m = 1 + max cap; they generate the group.

    Each is written directly, in the order of b's keys: the identity's
    entries, with the coefficient of t^r set at entry (i, j).
    """
    n, m = profile.n, 1 + profile.max_bound()
    zero = (0,) * m
    identity = [(1,) + zero[1:] if i == j else zero for i in range(n) for j in range(n)]
    gens = []
    for (i, j), cap in profile.b.items():
        for r in range(1, cap + 1):
            g = identity[:]
            g[(i - 1) * n + j - 1] = zero[:r] + (1,) + zero[r + 1:]
            gens.append(tuple(g))
    return gens


def expected_order_exponent(profile: BoundProfile) -> int:
    """Coefficient count: the sum of the upper caps b_ij, each >= 0."""
    return sum(profile.b.values())


def verify_h1_formula(profile: BoundProfile, p: int, limit: int = DEFAULT_LIMIT) -> bool:
    """Brute-force abelianization dimension versus the surviving-slot count, over GF(p)."""
    gens = profile_generators(profile)
    if not gens:
        return h1_basis(profile).dim == 0
    tbl = generate_group(gens, p, limit)
    if tbl.order != p ** expected_order_exponent(profile):
        raise InvariantError("enumerated order disagrees with the coefficient count")
    return abelianization_dim(tbl) == h1_basis(profile).dim


@cache
def _diagonal(exps: tuple[int, ...]) -> tuple:
    """diag(t^e1, ..., t^en) over F_2.

    Containment and equality of t-power diagonal lattices do not depend
    on the field.
    """
    return tuple(tuple((0,) * e + (1,) if i == j else () for j in range(len(exps)))
                 for i, e in enumerate(exps))


@cache
def _hnf(exps: tuple[int, ...]) -> tuple:
    return column_hnf(_diagonal(exps), 2)


def adjacency_oracle(r: Vertex, rp: Vertex) -> bool:
    """Adjacency by lattice chains, independent of the arithmetic rule.

    Two vertex classes are adjacent when some power-of-t scaling of one
    diagonal lattice sits properly between the other and t times it.
    The lattices and their HNFs are cached on their exponent tuples.
    """
    if len(r) != len(rp):
        raise ValueError("vertices of different dimension")
    if not (is_standard_vertex(r) and is_standard_vertex(rp)):
        raise ValueError("not standard vertices")
    exps_a = tuple(r) + (0,)
    exps_b = tuple(rp) + (0,)
    span = max(exps_a + exps_b) + 1
    for k in range(-span, span + 1):
        c = max(0, -k)  # k + c >= 0, so every exponent below is too
        a1 = tuple(e + 1 + c for e in exps_a)   # t^{c+1} A
        mid = tuple(e + k + c for e in exps_b)  # t^{c+k} B
        a0 = tuple(e + c for e in exps_a)       # t^c A
        if not (lattice_contains(_diagonal(a0), _diagonal(mid), 2)
                and lattice_contains(_diagonal(mid), _diagonal(a1), 2)):
            continue
        if _hnf(mid) == _hnf(a0) or _hnf(mid) == _hnf(a1):
            continue
        return True
    return False
