"""Independent brute-force checks of the graded model and the adjacency rule.

Stabilizer groups have entries of bounded degree, so reducing modulo
t^m with m = 1 + max cap embeds them in a finite matrix group.  One
breadth-first closure enumerates both the group and its derived
subgroup, the normal closure of the generator commutators.  The
abelianization orders certify the surviving-slot count; lattice
containment certifies the arithmetic adjacency rule.  Nothing here
shares code paths with the graded model it is checking.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .building import BoundProfile, Vertex, adjacency, is_standard_vertex
from .congruence import GroupElement, elementary
from .errors import DEFAULT_LIMIT, InvariantError, OracleLimitError
from .gf import GF
from .homology import h1_basis
from .poly import Poly, PolyMatrix, column_hnf, lattice_contains

Trunc = tuple[tuple[int, ...], ...]   # n*n entries, each m coefficients


def _trunc_from_group_element(g: GroupElement, m: int) -> Trunc:
    n = g.n
    out = []
    for i in range(n):
        for j in range(n):
            cs = g.matrix.entries[i][j].coeffs
            out.append(tuple(cs[k] if k < len(cs) else 0 for k in range(m)))
    return tuple(out)


def _trunc_identity(n: int, m: int) -> Trunc:
    one = (1,) + (0,) * (m - 1)
    zero = (0,) * m
    return tuple(one if i == j else zero for i in range(n) for j in range(n))


def _trunc_mul(a: Trunc, b: Trunc, n: int, m: int, p: int) -> Trunc:
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


def _trunc_sub_identity(a: Trunc, n: int, m: int, p: int) -> Trunc:
    out = []
    for i in range(n):
        for j in range(n):
            cs = list(a[i * n + j])
            if i == j:
                cs[0] = (cs[0] - 1) % p
            out.append(tuple(cs))
    return tuple(out)


def _trunc_inverse(a: Trunc, n: int, m: int, p: int) -> Trunc:
    # Neumann series: a = I + N with N divisible by t, so N^m = 0 mod t^m.
    nil = _trunc_sub_identity(a, n, m, p)
    acc = _trunc_identity(n, m)
    term = _trunc_identity(n, m)
    sign = 1
    for _ in range(1, m):
        term = _trunc_mul(term, nil, n, m, p)
        sign = -sign
        acc = tuple(
            tuple((x + sign * y) % p for x, y in zip(acc[e], term[e]))
            for e in range(n * n)
        )
    return acc


def _typecode(p: int) -> str:
    """array type code of a coefficient in 0..p-1: one byte for every p <= 256."""
    return "B" if p <= 1 << 8 else "H" if p <= 1 << 16 else "Q"


def _serialize(a: Trunc, p: int) -> bytes:
    return array(_typecode(p), [c for entry in a for c in entry]).tobytes()


def _deserialize(raw: bytes, n: int, m: int, p: int) -> Trunc:
    cs = array(_typecode(p), raw)
    return tuple(tuple(cs[e * m:(e + 1) * m]) for e in range(n * n))


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


def _closure(mults: list[Trunc], conjugators: list[Trunc], n: int, m: int,
             p: int, limit: int) -> set[bytes]:
    """Smallest set holding I, closed under x -> x*g and x -> c*x*c^-1.

    g runs over `mults`, c over `conjugators`.  In a finite group this is
    the normal closure of <mults> under the conjugators: each c^-1 is a
    power of c, so x*y is reached by conjugating x past y's moves.
    """
    inverses = [_trunc_inverse(c, n, m, p) for c in conjugators]
    ident = _trunc_identity(n, m)
    seen = {_serialize(ident, p)}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            images = [_trunc_mul(x, g, n, m, p) for g in mults]
            images += [_trunc_mul(_trunc_mul(c, x, n, m, p), ci, n, m, p)
                       for c, ci in zip(conjugators, inverses)]
            for y in images:
                raw = _serialize(y, p)
                if raw not in seen:
                    seen.add(raw)
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

    seen = _closure(gens, [], n, m, p, limit)
    order = len(seen)
    while order % p == 0:
        order //= p
    if order != 1:
        raise InvariantError("closure order is not a power of the characteristic")
    return FiniteGroupTable(
        n=n, m=m, p=p,
        elements=frozenset(seen),
        generators=tuple(_serialize(g, p) for g in gens),
    )


def commutator_subgroup(tbl: FiniteGroupTable) -> FiniteGroupTable:
    """G' as the normal closure of the generator commutators [g_a, g_b], a < b.

    For G = <S>, [G, G] is the normal closure of {[a, b] : a, b in S}
    (Magnus, Karrass & Solitar, Combinatorial Group Theory; Holt, Eick &
    O'Brien, Handbook of Computational Group Theory).  The result's
    generators are those commutators.
    """
    n, m, p = tbl.n, tbl.m, tbl.p
    gens = [_deserialize(raw, n, m, p) for raw in tbl.generators]
    inverses = [_trunc_inverse(g, n, m, p) for g in gens]
    comms = [
        _trunc_mul(_trunc_mul(gens[a], gens[b], n, m, p),
                   _trunc_mul(inverses[a], inverses[b], n, m, p), n, m, p)
        for a in range(len(gens)) for b in range(a + 1, len(gens))
    ]
    seen = _closure(comms, gens, n, m, p, tbl.order)
    if not seen <= tbl.elements:
        raise InvariantError("commutator subgroup leaves the group")
    return FiniteGroupTable(
        n=n, m=m, p=p,
        elements=frozenset(seen),
        generators=tuple(_serialize(c, p) for c in comms),
    )


def abelianization_dim(tbl: FiniteGroupTable) -> int:
    """log_p of the abelianization order; requires an elementary quotient.

    G' comes from `commutator_subgroup`, the normal closure of the
    generator commutators.  Checks that the p-th power of every element
    lands in G'.  A violating element would disprove the graded model,
    so it is raised with the witness attached.
    """
    n, m, p = tbl.n, tbl.m, tbl.p
    derived = commutator_subgroup(tbl)
    for raw in tbl.elements:
        g = _deserialize(raw, n, m, p)
        power = g
        for _ in range(p - 1):
            power = _trunc_mul(power, g, n, m, p)
        if _serialize(power, p) not in derived.elements:
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
