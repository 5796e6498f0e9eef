"""The standard wedge and the graded model of H1 of its simplex stabilizers.

Standard vertices are weakly decreasing exponent tuples (r_1, ...,
r_{n-1}) with an implicit trailing 0; standard_ball lists those with
r_1 <= R and the edges among them.  A standard simplex has a bound
profile, the degree caps b_ij of its stabilizer's entries.

For a bound profile, the stabilizer kernel is the group of strictly
upper unipotent matrices with t-divisible entries obeying the caps.
Its abelianization splits into one-dimensional graded pieces indexed by
(i, j, degree): a degree survives unless it can be written as l + m
with an in-cap pair through some intermediate index, in which case the
commutator of two in-bounds elementaries kills it.  Coefficient
extraction at the surviving slots is a homomorphism because every
bilinear cross term of a product lands in a killed degree.

Nothing here depends on q or on the flags of F_q^n.  survive and
oracle load this module without conghom.building, which translates the
wedge by the flags to build Z_R, or conghom.homology, its boundary.
"""

from __future__ import annotations

from typing import NamedTuple

Vertex = tuple[int, ...]
Edge = tuple[Vertex, Vertex]


def is_standard_vertex(r: Vertex) -> bool:
    padded = tuple(r) + (0,)
    return all(a >= b for a, b in zip(padded, padded[1:])) and padded[-1] == 0 and min(padded) >= 0


def adjacency(r: Vertex, rp: Vertex) -> bool:
    """Whether two standard vertices are joined by an edge.

    With the implicit final 0 appended, the componentwise difference
    must lie in {0,1}^n or {-1,0}^n and be nonzero; this matches the
    chain characterization checked by the lattice oracle.
    """
    if len(r) != len(rp):
        raise ValueError("vertices of different dimension")
    diff = [a - b for a, b in zip(tuple(r) + (0,), tuple(rp) + (0,))]
    if all(d == 0 for d in diff):
        return False
    return all(d in (0, 1) for d in diff) or all(d in (-1, 0) for d in diff)


def standard_ball(n: int, radius: int) -> tuple[tuple[Vertex, ...], tuple[Edge, ...]]:
    """All standard vertices with r_1 <= radius, and the edges among them."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    verts: list[Vertex] = []

    def grow(prefix: tuple[int, ...], cap: int) -> None:
        if len(prefix) == n - 1:
            verts.append(prefix)
            return
        for v in range(cap + 1):
            grow(prefix + (v,), v)

    grow((), radius)
    verts.sort()
    edges = tuple(
        (a, b)
        for idx, a in enumerate(verts)
        for b in verts[idx + 1:]
        if adjacency(a, b)
    )
    return tuple(verts), edges


class BoundProfile(NamedTuple):
    """Degree caps b_ij for the entries of a simplex stabilizer.

    Keys are 1-based ordered pairs (i, j), i != j.  For standard
    simplices b_ij = min over vertices of r_i - r_j (r_n = 0), which is
    superadditive: b_ij >= b_ik + b_kj whenever i < k < j.
    """

    n: int
    b: dict[tuple[int, int], int]

    def upper_pairs(self):
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                yield (i, j)

    def is_superadditive(self) -> bool:
        for i in range(1, self.n + 1):
            for j in range(i + 2, self.n + 1):
                for k in range(i + 1, j):
                    if self.b[(i, j)] < self.b[(i, k)] + self.b[(k, j)]:
                        return False
        return True

    def max_bound(self) -> int:
        return max([self.b[p] for p in self.upper_pairs()] + [0])

    @classmethod
    def from_upper_bounds(cls, n: int, values: list[int]) -> "BoundProfile":
        """Build from explicit upper-triangle caps.

        Values are in root_order: (1,2), (2,3), ..., (n-1,n), (1,3),
        ..., (1,n).  Below-diagonal caps are zero.
        Upper caps of standard simplices are minima of r_i - r_j >= 0, so a
        negative value is rejected.
        """
        pairs = root_order(n)
        if len(values) != len(pairs):
            raise ValueError(f"expected {len(pairs)} bounds for n={n}")
        if any(v < 0 for v in values):
            raise ValueError("bounds must be non-negative")
        b = {}
        for (i, j), v in zip(pairs, values):
            b[(i, j)] = v
            b[(j, i)] = 0
        return cls(n, b)


def root_order(n: int) -> list[tuple[int, int]]:
    """Upper pairs ordered by column distance then row; matches from_upper_bounds."""
    return [(i, i + d) for d in range(1, n) for i in range(1, n - d + 1)]


def bound_profile(simplex) -> BoundProfile:
    """Profile of a standard simplex given as its vertex set."""
    verts = [tuple(v) for v in simplex]
    if not verts:
        raise ValueError("empty simplex")
    n = len(verts[0]) + 1
    for v in verts:
        if len(v) != n - 1 or not is_standard_vertex(v):
            raise ValueError("vertices do not lie in the standard wedge")
    for idx, a in enumerate(verts):
        for b in verts[idx + 1:]:
            if a == b or not adjacency(a, b):
                raise ValueError("vertices do not span a simplex")
    b = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            padded = [tuple(v) + (0,) for v in verts]
            b[(i, j)] = min(v[i - 1] - v[j - 1] for v in padded)
    return BoundProfile(n, b)


class WeightSlot(NamedTuple):
    i: int
    j: int
    degree: int


def surviving_degrees(profile: BoundProfile) -> dict[tuple[int, int], list[int]]:
    """Degrees at each root that a single commutator cannot kill.

    For i < j with cap >= 1, degree r in [1, cap] survives when no
    intermediate index k admits a split r = l + m with 1 <= l <= b_ik
    and 1 <= m <= b_kj.  Degree one always survives.  Raises on
    profiles violating superadditivity, which no simplex realizes.
    """
    if not profile.is_superadditive():
        raise ValueError("unrealizable profile")
    out: dict[tuple[int, int], list[int]] = {}
    for (i, j) in profile.upper_pairs():
        cap = profile.b[(i, j)]
        if cap < 1:
            continue
        degs = []
        for r in range(1, cap + 1):
            killed = False
            for k in range(1, profile.n + 1):
                if k == i or k == j:
                    continue
                bik = profile.b[(i, k)]
                bkj = profile.b[(k, j)]
                if bik >= 1 and bkj >= 1 and max(1, r - bkj) <= min(bik, r - 1):
                    killed = True
                    break
            if not killed:
                degs.append(r)
        if degs:
            out[(i, j)] = degs
    return out


class H1Basis(NamedTuple):
    """Ordered basis of the abelianization attached to a profile."""

    profile: BoundProfile
    slots: tuple[WeightSlot, ...]

    @property
    def dim(self) -> int:
        return len(self.slots)


def h1_basis(profile: BoundProfile) -> H1Basis:
    surv = surviving_degrees(profile)
    slots = tuple(
        WeightSlot(i, j, r)
        for (i, j) in sorted(surv)
        for r in surv[(i, j)]
    )
    return H1Basis(profile=profile, slots=slots)
