"""The boundary of the H1 coefficient system on Z_R and the H0 cokernel report.

Each simplex of Z_R carries the graded H1 basis of its stabilizer
(conghom.wedge.h1_basis); an edge slot maps into its endpoints' slots
by the inclusion of stabilizers, conjugated by the constant matrix
W = s_v^-1 s_e that relates the two translates.
"""

from __future__ import annotations

from functools import cache
from operator import lshift, mul
from typing import Iterator, NamedTuple

from .building import ComplexZ, partial_flag_count, vertex_breaks
from .errors import InvariantError
from .gf import DenseMatrix, SparseMatrix, inverse as gf_inverse, inverse_entries, reduce_columns
from .wedge import H1Basis, Vertex, bound_profile, h1_basis, standard_ball


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
    an invariant violation.  This is the uncached per-pair route to the
    _inclusion entries that boundary_columns memoizes, so the tests
    hold the boundary to these blocks and these blocks to the
    polynomial conjugation route of tests/reference.py.
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
    M = W E_ij W^-1; slots of different degrees are not listed.  The
    result, and whether the endpoint and support checks raise, depend
    only on (W, simplex, r_v): the bases are those of the simplex and
    of r_v.  boundary_columns memoizes it on that key.
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


def closed_form_dims(n: int, q: int, radius: int) -> tuple[int, int]:
    """dim C0 and dim C1 of Z_R, from the ball alone.

    Each ball simplex of break type B has partial_flag_count(n, q, B)
    translates in Z_R, and each carries the H1 basis of the simplex's
    profile, so the dimensions are the sums of count times basis
    dimension over the ball's vertices and over its edges.
    """
    verts, edges = standard_ball(n, radius)
    dim_c0 = sum(partial_flag_count(n, q, vertex_breaks(r)) * h1_basis(bound_profile([r])).dim
                 for r in verts)
    dim_c1 = sum(partial_flag_count(n, q, set(vertex_breaks(a)) | set(vertex_breaks(b)))
                 * h1_basis(bound_profile([a, b])).dim for a, b in edges)
    return dim_c0, dim_c1


class BlockIndex(NamedTuple):
    """Row and column layout of the boundary matrix."""

    vertex_blocks: tuple  # (vertex key, row offset, H1Basis)
    edge_blocks: tuple    # (vertex key pair, col offset, H1Basis)
    dim_c0: int
    dim_c1: int


def block_index(z: ComplexZ) -> BlockIndex:
    """Row and column layout of the boundary, from z and the H1 bases alone.

    Rows are the concatenated vertex slot bases in the order of
    z.vertices (the origin contributes none); columns the edge bases in
    the order of z.edges.  No inclusion is computed, so dimensions other
    than closed_form_dims raise InvariantError before any of them.
    """
    basis_of = cache(lambda simplex: h1_basis(bound_profile(list(simplex))))

    def blocks(simplices) -> tuple[tuple, int]:
        out = []
        off = 0
        for key, simplex in simplices:
            out.append((key, off, basis_of(simplex)))
            off += basis_of(simplex).dim
        return tuple(out), off

    vertex_blocks, dim_c0 = blocks((key, (rep.vertex,)) for key, rep in z.vertices.items())
    edge_blocks, dim_c1 = blocks((pair, rep.simplex) for pair, rep in z.edges.items())
    want = closed_form_dims(z.n, z.q, z.radius)
    if (dim_c0, dim_c1) != want:
        raise InvariantError(
            f"C0 and C1 have dimensions {dim_c0} and {dim_c1}, but the partial-flag "
            f"counts give {want[0]} and {want[1]}")
    return BlockIndex(vertex_blocks, edge_blocks, dim_c0, dim_c1)


def _slot_bits(n: int, p: int) -> int:
    """Bits per packed entry: an entry of a product of two n x n residue matrices is <= n(p-1)^2."""
    return (n * (p - 1) ** 2).bit_length()


def _pack_columns(entries: tuple, n: int, bits: int) -> tuple[int, ...]:
    """Each column of a row-major n x n matrix as one int, entry i in slot i of `bits` bits."""
    shifts = range(0, bits * n, bits)
    return tuple([sum(map(lshift, entries[k::n], shifts)) for k in range(n)])


def _packed_product(packed: tuple, b: tuple, unpack: dict, bits: int, p: int
                    ) -> tuple[int, ...]:
    """Column-major entries of A B mod p, from A's columns packed by _pack_columns and B's entries.

    Column j of A B, packed, is sum_k B[k][j] packed[k] (Kronecker
    substitution): slot i holds sum_k A[i][k] B[k][j] <= n (p-1)^2,
    which fits in `bits` bits, so no slot carries into the next.
    `unpack` memoizes the residues of each packed column; few distinct
    ones occur.
    """
    n = len(packed)
    out: tuple = ()
    for j in range(n):
        x = sum(map(mul, b[j::n], packed))
        col = unpack.get(x)
        if col is None:
            mask = (1 << bits) - 1
            col = unpack[x] = tuple([(x >> shift & mask) % p for shift in range(0, bits * n, bits)])
        out += col
    return out


def boundary_columns(z: ComplexZ, index: BlockIndex) -> Iterator[dict[int, int]]:
    """The boundary's columns, one {row: residue mod p} dict per edge slot.

    Columns come in the order of index.edge_blocks, which is z.edges
    order, and in slot order within each edge; edges without slots
    yield none.  Each edge column is the inclusion into the first
    endpoint of its key pair, the key-smaller one for build_Z, minus
    the inclusion into the second, so the key-pair order is the edge's
    orientation.

    W = s_v^-1 s_e is the identity when the two flags have equal entries,
    and no product is formed.  Otherwise W's column-major entries are
    memoized on the flag pair (s_v entries, s_e entries) and formed by
    _packed_product from the columns of s_v^-1 (gf.inverse_entries),
    packed into one int each once per vertex flag, and the entries of
    s_e; equal W values share one tuple.  The _inclusion entries are
    memoized on (W, edge simplex, r_v), which fixes both bases, so only
    the few distinct inclusions are computed, each with W^-1 from
    gf.inverse_entries.  No DenseMatrix product, rref or inverse runs.
    Every pair looks up its own key, and a key whose inclusion raises
    is never stored, so every pair passes the endpoint and support
    checks.  The entries are offset by the endpoint's row and signed
    into the columns.
    """
    n = z.n
    field = z.field
    p = field.p
    bits = _slot_bits(n, p)
    vertex_of = {key: (z.vertices[key], off, basis) for key, off, basis in index.vertex_blocks}
    identity = DenseMatrix.identity(field, n).entries  # equal to its transpose
    inv_packed = {}  # s_v entries -> columns of s_v^-1, packed
    unpack = {}      # packed column of W -> its residues
    w_of = {}        # (s_v entries, s_e entries) -> W entries, column-major
    interned = {}    # W entries -> the one tuple that every equal W shares
    inclusions = {}  # (W entries, edge simplex, r_v) -> _inclusion entries
    for pair, _, basis in index.edge_blocks:
        if not basis.dim:
            continue
        erep = z.edges[pair]
        se = erep.flag.entries
        columns = [{} for _ in range(basis.dim)]
        for key, sign in ((pair[0], 1), (pair[1], -1)):
            vrep, r0, vert_basis = vertex_of[key]
            sv = vrep.flag.entries
            if sv == se:
                w = identity
            else:
                w = w_of.get((sv, se))
                if w is None:
                    packed = inv_packed.get(sv)
                    if packed is None:
                        packed = inv_packed[sv] = _pack_columns(inverse_entries(sv, n, p), n, bits)
                    w = _packed_product(packed, se, unpack, bits, p)
                    w = w_of[sv, se] = interned.setdefault(w, w)
            memo = (w, erep.simplex, vrep.vertex)
            entries = inclusions.get(memo)
            if entries is None:
                w_mat = DenseMatrix(field, n, n, w).transpose()
                entries = inclusions[memo] = _inclusion(
                    w_mat, DenseMatrix(field, n, n, inverse_entries(w_mat.entries, n, p)),
                    erep.simplex, basis, vrep.vertex, vert_basis)
            for a, b, v in entries:
                columns[b][r0 + a] = sign * v % p
        yield from columns


def assemble_boundary(z: ComplexZ) -> tuple[SparseMatrix, BlockIndex]:
    """The boundary map from edge coefficients to vertex coefficients.

    Materializes boundary_columns into a SparseMatrix laid out by
    block_index, whose dimension check runs before any inclusion.  The
    rank never needs this matrix; export writes it.
    """
    index = block_index(z)
    triples = [(r, c, v) for c, column in enumerate(boundary_columns(z, index))
               for r, v in column.items()]
    return SparseMatrix(z.field, index.dim_c0, index.dim_c1, triples), index


F3_COUNTS_NOTE = (
    "computed 26 coefficient-bearing vertices and 52 edges for n=3, q=3, "
    "radius=1; an earlier reported count of 25 vertices and 42 edges does "
    "not match this construction, but the cokernel dimension is 8 either way"
)


class HomologyReport(NamedTuple):
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
        return self._asdict()

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def h0_dimension(z: ComplexZ) -> HomologyReport:
    """Dimension of the degree-zero homology of the coefficient system on Z_R.

    Equals dim C0 minus the rank of the boundary.  The columns of
    boundary_columns are reduced as they arrive by reduce_columns, so the
    whole boundary is never held: only the reduced basis is.  Reversing
    edges only negates their columns, so the result does not depend on
    the orientation z carries.  It can never drop below n^2 - 1: the
    coefficient classes surject onto the traceless matrices through the
    depth-one coefficient map, so a smaller value signals a bug and
    raises.  The reduction does not stop once the rank reaches
    C0 - (n^2 - 1), because that would skip the endpoint and support
    checks of the remaining edges.
    """
    index = block_index(z)
    rank = len(reduce_columns(z.field, boundary_columns(z, index)))
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
