"""The boundary of the H1 coefficient system on Z_R and the H0 cokernel report.

Each simplex of Z_R carries the graded H1 basis of its stabilizer
(conghom.wedge.h1_basis); an edge slot maps into its endpoints' slots
by the inclusion of stabilizers, conjugated by the constant matrix
W = s_v^-1 s_e that relates the two translates.  compute_h0, the report
of conghom compute, reduces only the columns of a sub-boundary that lie
on the rows of Z_1, checks that the rest cover every later row, and
reduces the full boundary only when that does not certify the answer.
"""

from __future__ import annotations

from functools import cache
from operator import lshift, mul
from typing import Iterator, NamedTuple

from .building import ComplexZ, build_Z, certificate_edges, partial_flag_count, vertex_breaks
from .errors import InvariantError
from .gf import SparseMatrix, inverse_entries, reduce_columns
from .wedge import H1Basis, Vertex, simplex_basis, standard_ball


def _inclusion(w: tuple[int, ...], n: int, p: int, simplex: tuple[Vertex, Vertex],
               edge_basis: H1Basis, rv: Vertex, vert_basis: H1Basis
               ) -> list[tuple[int, int, int]]:
    """Nonzero entries (vertex slot, edge slot, value) of H1 of an edge into an endpoint.

    Takes the column-major entries of W = s_v^-1 s_e over GF(p) and both
    bases.  Conjugation by W carries the generator I + E_ij(t^d) of edge
    slot (i, j, d) to I + t^d M with the constant matrix M = W E_ij W^-1,
    so the value at vertex slot (a, b, d) is M[a][b]; slots of different
    degrees are not listed.  The vertex is an endpoint when its wedge
    coordinates r_v lie in the simplex and W lies in the parabolic
    subgroup of r_v (W[a][b] = 0 wherever r_a < r_b, r padded with 0),
    which is exactly when the two translates share a label; otherwise
    ValueError.  M must be supported on {a < b, b_ab >= d} of the vertex
    profile; failure means the representatives do not name the same
    simplices and raises InvariantError.  On the compute path the
    simplex is read from the edge's endpoints, so r_v lies in it by
    construction, and the parabolic and support checks are what catch a
    wrong flag.  The result, and whether these checks raise, depend only
    on (W, simplex, r_v): the bases are those of the simplex and of r_v.
    boundary_columns keeps it in W's record, keyed by (simplex, r_v).
    W^-1 comes from gf.inverse_entries: read row-major, the column-major
    entries of W are W^T, whose inverse is W^-1 column-major, so row j
    of W^-1 is every n-th entry from j.  The tests read these entries
    as a dense block, per (edge, endpoint) pair and uncached, and hold
    them to the polynomial conjugation route.
    """
    exps = tuple(rv) + (0,)
    if rv not in simplex or any(
        w[b * n + a] for a in range(n) for b in range(n) if exps[a] < exps[b]
    ):
        raise ValueError("vertex is not an endpoint of the edge")
    w_inv = inverse_entries(w, n, p)  # column-major
    caps = vert_basis.profile.b
    entries = []
    for col, s in enumerate(edge_basis.slots):
        wcol = w[(s.i - 1) * n:s.i * n]
        wrow = w_inv[s.j - 1::n]
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


def _edge_terms(n: int, q: int, edges) -> list[tuple[int, int]]:
    """(translates in Z_R, H1 basis dimension) of each ball edge."""
    return [(partial_flag_count(n, q, set(vertex_breaks(a)) | set(vertex_breaks(b))),
             simplex_basis((a, b)).dim) for a, b in edges]


def closed_form_dims(n: int, q: int, radius: int,
                     ball_edges: tuple | None = None) -> tuple[int, int]:
    """dim C0 and dim C1 of Z_R, from the ball alone.

    Each ball simplex of break type B has partial_flag_count(n, q, B)
    translates in Z_R, and each carries the H1 basis of the simplex's
    profile, so the dimensions are the sums of count times basis
    dimension over the ball's vertices and over its edges: over
    ball_edges alone when given, as build_Z takes them.
    """
    verts, edges = standard_ball(n, radius)
    dim_c0 = sum(partial_flag_count(n, q, vertex_breaks(r)) * simplex_basis((r,)).dim
                 for r in verts)
    terms = _edge_terms(n, q, edges if ball_edges is None else ball_edges)
    return dim_c0, sum(count * dim for count, dim in terms)


class BlockIndex(NamedTuple):
    """Row and column layout of the boundary matrix."""

    vertex_blocks: tuple  # (vertex rank, row offset, H1Basis), by rank
    edge_blocks: tuple    # (rank pair (ia, ib), col offset, H1Basis), in z.edges order
    dim_c0: int
    dim_c1: int


def block_index(z: ComplexZ) -> BlockIndex:
    """Row and column layout of the boundary, from z and the H1 bases alone.

    Rows are the concatenated vertex slot bases by rank (the origin
    contributes none); columns the edge bases in the order of z.edges,
    each under z.edges' own key tuple, its simplex read from its endpoints.
    No inclusion is computed, so dimensions other than closed_form_dims
    over the ball edges z translated raise InvariantError before any of
    them.
    """
    def blocks(simplices) -> tuple[tuple, int]:
        out = []
        off = 0
        for at, simplex in simplices:
            basis = simplex_basis(simplex)
            out.append((at, off, basis))
            off += basis.dim
        return tuple(out), off

    vertex = [rep.vertex for rep in z.vertices]
    vertex_blocks, dim_c0 = blocks(enumerate((r,) for r in vertex))
    edge_blocks, dim_c1 = blocks((pair, (vertex[pair[0]], vertex[pair[1]])) for pair in z.edges)
    want = closed_form_dims(z.n, z.q, z.radius, z.ball_edges)
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
    ones occur, and boundary_columns shares one among its products.
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
    """The boundary's columns, one {row: residue mod z.q} dict per edge slot.

    Columns come in the order of index.edge_blocks, which is z.edges
    order, and in slot order within each edge; edges without slots
    yield none.  Each edge column is the inclusion into the first
    endpoint of its rank pair, the smaller rank for build_Z, minus the
    inclusion into the second, so the rank-pair order is the edge's
    orientation.  An edge is its rank pair and its flag s_e; its simplex
    is read once from its endpoints.

    Flags are entry tuples, and W = s_v^-1 s_e depends only on them:
    w_of[s_v] maps each edge flag met at s_v to W's record, and starts
    as {s_v: the identity's record}, so equal flags form no product.  A
    new s_e forms W by _packed_product from the entries of s_e and the
    columns of s_v^-1 (gf.inverse_entries), which packed_inverse packs
    into one int each once per vertex flag.  per_w holds one record per
    distinct W: the W tuple that equal W share, and its _inclusion
    entries keyed by (edge simplex, r_v), which fixes both bases.  So
    only the few distinct inclusions are computed, each with W^-1 from
    gf.inverse_entries; no general matrix product runs.  Every pair
    looks up its own inclusion, and a key whose inclusion raises is
    never stored, so every pair passes the endpoint and support checks.
    The entries are offset by the endpoint's row and signed into the
    columns.
    """
    n = z.n
    p = z.q
    bits = _slot_bits(n, p)
    packed_inverse = cache(lambda sv: _pack_columns(inverse_entries(sv, n, p), n, bits))
    unpack = {}  # packed column of W -> its residues
    identity = tuple([int(i == j) for i in range(n) for j in range(n)])  # equal to its transpose
    per_w = {identity: (identity, {})}  # W entries -> (W, {(simplex, r_v): _inclusion entries})
    w_of = {}    # s_v entries -> {s_e entries -> per_w record of W = s_v^-1 s_e}
    for ((ia, ib), se), (_, _, basis) in zip(z.edges.items(), index.edge_blocks, strict=True):
        if not basis.dim:
            continue
        simplex = (z.vertices[ia].vertex, z.vertices[ib].vertex)
        columns = [{} for _ in range(basis.dim)]
        for at, sign in ((ia, 1), (ib, -1)):
            vrep = z.vertices[at]
            _, r0, vert_basis = index.vertex_blocks[at]
            sv = vrep.flag
            of_sv = w_of.get(sv)
            if of_sv is None:
                of_sv = w_of[sv] = {sv: per_w[identity]}
            record = of_sv.get(se)
            if record is None:
                w = _packed_product(packed_inverse(sv), se, unpack, bits, p)
                record = of_sv[se] = per_w.setdefault(w, (w, {}))
            w, inclusions = record
            memo = (simplex, vrep.vertex)
            entries = inclusions.get(memo)
            if entries is None:
                entries = inclusions[memo] = _inclusion(
                    w, n, p, simplex, basis, vrep.vertex, vert_basis)
            for a, b, v in entries:
                columns[b][r0 + a] = sign * v % p
        yield from columns


def assemble_boundary(z: ComplexZ) -> tuple[SparseMatrix, BlockIndex]:
    """The boundary map from edge coefficients to vertex coefficients.

    Materializes boundary_columns into a SparseMatrix laid out by
    block_index, whose dimension check runs before any inclusion; the
    columns stream into the matrix, so the boundary is held only once.
    The rank never needs this matrix; export writes it.
    """
    index = block_index(z)
    triples = ((r, c, v) for c, column in enumerate(boundary_columns(z, index))
               for r, v in column.items())
    return SparseMatrix(z.q, index.dim_c0, index.dim_c1, triples), index


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


def _report(z: ComplexZ, index: BlockIndex, rank: int) -> HomologyReport:
    """The report of z laid out by index, for a boundary of the given rank.

    dim_h0 = dim C0 - rank can never drop below n^2 - 1: the
    coefficient classes surject onto the traceless matrices through the
    depth-one coefficient map, which kills the boundary, so a smaller
    value signals a bug and raises.
    """
    dim_h0 = index.dim_c0 - rank
    target = z.n * z.n - 1
    if z.radius >= 1 and dim_h0 < target:
        raise InvariantError(
            f"cokernel dimension {dim_h0} fell below the guaranteed floor {target}"
        )
    return HomologyReport(
        n=z.n,
        q=z.q,
        radius=z.radius,
        num_vertices=sum(1 for _, _, basis in index.vertex_blocks if basis.dim),
        num_edges=sum(1 for _, _, basis in index.edge_blocks if basis.dim),
        dim_c0=index.dim_c0,
        dim_c1=index.dim_c1,
        rank_boundary=rank,
        dim_h0=dim_h0,
        target=target,
        meets_conjecture=dim_h0 == target,
        counts_note=F3_COUNTS_NOTE if (z.n, z.q, z.radius) == (3, 3, 1) else None,
    )


def h0_dimension(z: ComplexZ) -> HomologyReport:
    """Dimension of the degree-zero homology of the coefficient system on Z_R.

    Equals dim C0 minus the rank of the boundary over GF(z.q).  The
    columns of boundary_columns are reduced as they arrive by
    reduce_columns(z.q, ...), so the whole boundary is never held: only
    the basis tails are.  Reversing edges only negates their columns,
    so the result does not depend on the orientation z carries.  A
    value below n^2 - 1 raises InvariantError (_report).  On a z that
    holds only some ball edges (build_Z's ball_edges) every number is
    that of their sub-boundary, and the floor still holds, since its
    rank is at most the full rank.
    """
    index = block_index(z)
    return _report(z, index, len(reduce_columns(z.q, boundary_columns(z, index))))


def compute_h0(n: int, q: int, radius: int) -> HomologyReport:
    """The report of conghom compute, certified from the columns of a few ball edges when it can be.

    The shell argument.  Rows are in key order, and a key starts with
    its wedge vertex r, so the c01 = C0(Z_1) rows of the vertices with
    r_1 <= 1 come first, and each shell r_1 = rho >= 2 is a contiguous
    block after them; a first shell row other than c01 raises
    InvariantError.  Let A be the columns whose largest row is below
    c01.  If every later row is the largest row of some column, one
    such column per row, restricted to the rows from c01 on, is
    triangular with a nonzero diagonal, so rank d >= rank A + (C0 - c01).
    The depth-one coefficient map on the rows of Z_1 still has rank
    n^2 - 1 and kills A, so rank A <= c01 - (n^2 - 1), and a larger rank
    raises InvariantError.  Equality gives rank d >= C0 - (n^2 - 1), and
    the floor then gives dim H0 = n^2 - 1 exactly.  These are the
    apparent pairs of Bauer, "Ripser" (2021): rows from c01 on need no
    elimination, only a covered flag.

    So Z_R is built with the ball edges of building.certificate_edges,
    and of its columns those of A go to reduce_columns while any other
    marks its largest row covered.  A certified report equals
    h0_dimension(build_Z(n, q, radius)) field for field: dim_c1 and
    num_edges, the edges with H1 slots, come from the closed-form
    partial-flag counts of every ball edge.  Otherwise, and when the
    certificate keeps every column (for n = 2, where dim H0 = (q + 1) R,
    and at (3, q, 1)), h0_dimension runs on the full Z_R, so a
    dimension above n^2 - 1 always comes from the full boundary.  The trade: edges that are never translated get no
    endpoint or support check on compute; export and the tests still
    check them.
    """
    terms = _edge_terms(n, q, standard_ball(n, radius)[1])
    dim_c1 = sum(count * dim for count, dim in terms)
    kept = certificate_edges(n, radius)
    if sum(count * dim for count, dim in _edge_terms(n, q, kept)) < dim_c1:
        z = build_Z(n, q, radius, ball_edges=kept)
        index = block_index(z)
        c01 = closed_form_dims(n, q, 1)[0]
        shells = next((off for at, off, _ in index.vertex_blocks
                       if z.vertices[at].vertex[0] >= 2), index.dim_c0)
        if shells != c01:
            raise InvariantError(f"the shell rows start at {shells}, but C0(Z_1) is {c01}")
        covered = bytearray(index.dim_c0 - c01)  # 1 at each shell row that is a largest row

        def on_z1() -> Iterator[dict[int, int]]:
            for column in boundary_columns(z, index):
                low = max(column, default=0)
                if low < c01:
                    yield column
                else:
                    covered[low - c01] = 1

        # rank A and one pivot per shell row; the floor check raises when rank A is too large
        report = _report(z, index, len(reduce_columns(q, on_z1())) + len(covered))
        if report.meets_conjecture and 0 not in covered:
            return report._replace(num_edges=sum(count for count, dim in terms if dim),
                                   dim_c1=dim_c1)
    return h0_dimension(build_Z(n, q, radius))
