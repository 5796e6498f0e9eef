"""Flag translates of the standard wedge, and the complex Z_R.

The standard vertices and the radius-R ball of the wedge are in
conghom.wedge.  The radius-R slice of the fundamental domain is the
union of the translates of the truncated wedge by one constant matrix
per full flag of F_q^n.  The translate of a wedge vertex r by a flag
matrix s depends only on r and on the partial flag of F_q^n that s
cuts out at the breaks of r, so Z_R takes one canonical flag per
partial flag, and keys and orders translates by that partial flag,
written as RREF column spans.  Canonical HNF lattice labels are
computed only on export (order_by_label), to name the vertices of Z_R
and fix the published order.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import InvariantError
from .field import GF
from .gf import DenseMatrix, gauss_jordan, inverse as gf_inverse
from .wedge import Vertex, is_standard_vertex, standard_ball

if TYPE_CHECKING:
    from .poly import CanonicalLabel


def bruhat_cells(n: int, field: GF, break_types=None
                 ) -> Iterator[tuple[frozenset[int], list[DenseMatrix]]]:
    """Each Bruhat cell of complete flags of F_q^n, with its ascent set.

    For each row permutation w, in lexicographic order, the cell holds
    one determinant-one matrix per flag: column k < n-1 is e_w(k) plus
    free entries at the rows r > w(k) not already used by w(0), ...,
    w(k-1), and the last column is e_w(n-1), signed so that the
    determinant is 1.  So w(k) is the first nonzero row of column k,
    and the cell's ascent set is {k in 1..n-1 : w(k-1) < w(k)}.  The
    cells together hold [n]_q! = (1)(1+q)...(1+q+...+q^(n-1)) flags,
    each exactly once.  The coset w W_B of the Young subgroup of a break
    set B has a unique longest element, the one decreasing inside every
    block of B (Bjorner-Brenti, GTM 231, 2.4), so the flags whose
    ascents lie in B are one per partial flag of type B.  With
    break_types given, only the cells whose ascent set lies in one of
    them are enumerated.
    """
    p = field.p
    types = None if break_types is None else [frozenset(b) for b in break_types]
    for w in permutations(range(n)):
        ascents = frozenset(k for k in range(1, n) if w[k - 1] < w[k])
        if types is not None and not any(ascents <= b for b in types):
            continue
        free = [r * n + k for k in range(n - 1) for r in range(w[k] + 1, n) if r not in w[:k]]
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
        base = [0] * (n * n)
        for k in range(n):
            base[w[k] * n + k] = 1
        # permuting rows makes the matrix unitriangular, so det = sign(w)
        base[w[n - 1] * n + n - 1] = (-1) ** inversions
        flags = []
        for values in product(range(p), repeat=len(free)):
            ent = base[:]
            for at, v in zip(free, values):
                ent[at] = v
            flags.append(DenseMatrix(field, n, n, ent))
        yield ascents, flags


def enumerate_flag_reps(n: int, field: GF) -> list[DenseMatrix]:
    """One determinant-one matrix per complete flag of F_q^n: every bruhat_cells flag.

    Column j of a representative spans the j-th step of its flag over
    the previous ones.  The list is sorted by column tuples.  build_Z
    reads it only when given it as flag_reps: by default it enumerates
    just the cells whose ascents lie in a break type of its ball.
    """
    reps = [s for _, flags in bruhat_cells(n, field) for s in flags]
    reps.sort(key=lambda s: [s.col(j) for j in range(n)])
    return reps


def vertex_label(s: DenseMatrix, r: Vertex) -> CanonicalLabel:
    """Canonical label of the translate of a wedge vertex by the flag matrix s.

    The flag matrix acts through its inverse transpose: with that
    convention, two pairs (s, r) and (s', r) share a label exactly when
    s^-1 s' lies in the parabolic subgroup of constant matrices
    supported where r_i >= r_j, which is precisely the group that
    normalizes the stabilizer attached to r.  Labels therefore identify
    translated vertices exactly when their stabilizers in the
    congruence kernel agree.  The label costs an n! cofactor
    determinant and a polynomial HNF, so build_Z keys the translates of
    one canonical flag per partial flag by partial_flag_keys instead,
    and only order_by_label calls this, once per vertex, to name the
    vertices on export.
    """
    from .poly import Poly, PolyMatrix, lattice_label  # export only: keeps compute off poly

    field = s.field
    n = s.rows
    if len(r) != n - 1 or not is_standard_vertex(r):
        raise ValueError("not a standard vertex")
    st_inv = gf_inverse(s.transpose())
    exps = tuple(r) + (0,)
    entries = [
        [Poly.monomial(field, exps[j], st_inv.get(i, j)) if st_inv.get(i, j) else Poly.zero(field)
         for j in range(n)]
        for i in range(n)
    ]
    return lattice_label(PolyMatrix(field, entries))


def vertex_breaks(r: Vertex) -> tuple[int, ...]:
    """The k in 1..n-1 where the padded exponents (r, 0) drop: r_k > r_{k+1}."""
    exps = tuple(r) + (0,)
    return tuple(k for k in range(1, len(exps)) if exps[k - 1] > exps[k])


def partial_flag_keys(s: DenseMatrix, vertices, spans: dict | None = None) -> dict:
    """Partial-flag key of the translate of each wedge vertex r by s.

    The key is (r, the RREF of the span of the first k columns of s for
    each break k of r).  (s, r) and (s', r) share a vertex_label exactly
    when s^-1 s' lies in the parabolic of r, that is, block upper
    triangular with blocks ending at the breaks, which holds exactly
    when the leading column spans agree at every break.  `spans`
    carries the last RREF computed at each k from one call to the next
    (see _flag_keys); pass one dict to calls on flags that share
    leading columns.
    """
    return _flag_keys(s, _with_top({r: vertex_breaks(r) for r in vertices}),
                      {} if spans is None else spans)


def _with_top(breaks: dict) -> tuple:
    """The (wedge vertex, its breaks) pairs of `breaks`, and the largest break (0 for none)."""
    return list(breaks.items()), max((b[-1] for b in breaks.values() if b), default=0)


def _flag_keys(s: DenseMatrix, vertices: tuple, spans: dict) -> dict:
    """partial_flag_keys for vertices given by _with_top.

    The span at k, of the first k columns, is the span at k - 1 plus
    column k, so its RREF is the RREF at k - 1 with that column appended
    as a row and reduced by gauss_jordan, which eliminates the one new
    row against rows already reduced.  `spans` holds, for each k, the
    last (RREF at k - 1, column k, RREF at k) computed: a flag that
    shares the span at k - 1 (the same tuple) and column k with it
    reuses that RREF.  Flags in cell order share many leading columns.
    """
    pairs, top = vertices
    n = s.rows
    ent = s.entries
    span = ()
    at = [span]  # at[k]: RREF entries of the span at k
    for k in range(1, top + 1):
        col = ent[k - 1::n]
        last = spans.get(k)
        if last is not None and last[0] is span and last[1] == col:
            span = last[2]
        else:
            rows = [list(span[i:i + n]) for i in range(0, len(span), n)]
            rows.append(list(col))
            gauss_jordan(rows, s.field.p, n)
            spans[k] = (span, col, tuple([v for row in rows for v in row]))
            span = spans[k][2]
        at.append(span)
    return {r: (r, tuple([at[k] for k in b])) for r, b in pairs}


def partial_flag_count(n: int, q: int, breaks) -> int:
    """Number of partial flags of F_q^n with subspaces of the given dimensions.

    With b_0 = 0 < b_1 < ... < b_k < b_{k+1} = n this is the q-multinomial
    [n]_q! / prod [b_{i+1} - b_i]_q!, where [m]_q! = prod_{i<=m} (q^i - 1)/(q - 1).
    """
    def q_factorial(m: int) -> int:
        out = 1
        for i in range(1, m + 1):
            out *= (q ** i - 1) // (q - 1)
        return out

    dims = (0, *sorted(breaks), n)
    count = q_factorial(n)
    for a, b in zip(dims, dims[1:]):
        count //= q_factorial(b - a)
    return count


class VertexRep(NamedTuple):
    flag: DenseMatrix
    vertex: Vertex


class EdgeRep(NamedTuple):
    flag: DenseMatrix
    simplex: tuple[Vertex, Vertex]  # aligned with the edge's key pair


class ComplexZ(NamedTuple):
    """1-skeleton of the radius-R fundamental-domain slice, one entry per partial flag."""

    n: int
    q: int
    radius: int
    field: GF
    vertices: dict  # partial-flag key -> VertexRep of its canonical flag
    edges: dict     # (key, key), the vertex dict's key objects -> EdgeRep

    def origin_key(self):
        """Key of the break-free vertex: the origin, fixed by every flag."""
        return ((0,) * (self.n - 1), ())


def build_Z(n: int, q: int, radius: int,
            flag_reps: list[DenseMatrix] | None = None) -> ComplexZ:
    """Union of the flag translates of the radius-R wedge, one per partial flag.

    A ball vertex or edge of break type B, for an edge the union of its
    vertices' breaks, is keyed (partial_flag_keys) only by the full
    flags whose ascents lie in B, one per partial flag of type B, and
    stores that flag with its standard simplex.  By default the flags
    are those of the bruhat_cells whose ascents lie in some break type
    of the ball, so no other cell is enumerated; given flag_reps, each
    flag's ascents are read off its matrix instead.  Each flag is keyed
    once per pass for all the break types that hold its ascents, and
    the RREF of each leading column span extends the RREF of the
    shorter one by a column (_flag_keys).  A key reached twice, an edge
    endpoint that is not a vertex key, or counts other than the wedge's
    closed-form partial_flag_count sums raise InvariantError.  Both
    dicts are sorted by key: the vertex keys are sorted once, and the
    edges by the ranks of their endpoints there, each edge oriented
    from its key-smaller endpoint.
    """
    field = GF(q)
    ball_vertices, ball_edges = standard_ball(n, radius)
    breaks = {r: vertex_breaks(r) for r in ball_vertices}
    vertex_types: dict = {}  # break type -> ball vertices of that type, as 1-simplices
    for r in ball_vertices:
        vertex_types.setdefault(frozenset(breaks[r]), []).append((r,))
    edge_types: dict = {}    # break type -> ball edges of that type
    for a, b in ball_edges:
        edge_types.setdefault(frozenset(breaks[a] + breaks[b]), []).append((a, b))
    if flag_reps is None:
        cells = list(bruhat_cells(n, field, vertex_types.keys() | edge_types.keys()))
    else:
        by_ascents: dict = {}  # ascent set of a flag's Bruhat permutation -> flags
        for s in flag_reps:
            w = [next(r for r in range(n) if s.entries[r * n + k]) for k in range(n)]
            by_ascents.setdefault(frozenset(k for k in range(1, n) if w[k - 1] < w[k]),
                                  []).append(s)
        cells = list(by_ascents.items())
    spans: dict = {}

    def canonical(types: dict):
        """(flag, simplices, keys): each flag, the simplices whose break types hold its ascents."""
        for ascents, flags in cells:
            mine = [simplex for btype, group in types.items() if ascents <= btype
                    for simplex in group]
            if mine:
                verts = _with_top({r: breaks[r] for simplex in mine for r in simplex})
                for s in flags:
                    yield s, mine, _flag_keys(s, verts, spans)

    found_v: dict = {}
    for s, mine, keys in canonical(vertex_types):
        for (r,) in mine:
            key = keys[r]
            if key in found_v:
                raise InvariantError(f"{key} is reached by two flags")
            found_v[key] = VertexRep(flag=s, vertex=r)
    order = sorted(found_v)
    rank = {key: i for i, key in enumerate(order)}
    found_e: dict = {}  # (rank, rank) -> EdgeRep
    for s, mine, keys in canonical(edge_types):
        for a, b in mine:
            try:
                ia, ib = rank[keys[a]], rank[keys[b]]
            except KeyError as missing:
                raise InvariantError(f"edge endpoint {missing} is not a vertex") from None
            if ib < ia:
                ia, ib, a, b = ib, ia, b, a
            if (ia, ib) in found_e:
                raise InvariantError(f"{(order[ia], order[ib])} is reached by two flags")
            found_e[ia, ib] = EdgeRep(flag=s, simplex=(a, b))

    want_v = sum(partial_flag_count(n, q, breaks[r]) for r in ball_vertices)
    want_e = sum(partial_flag_count(n, q, set(breaks[a]) | set(breaks[b])) for a, b in ball_edges)
    if (len(found_v), len(found_e)) != (want_v, want_e):
        raise InvariantError(
            f"{len(found_v)} vertices and {len(found_e)} edges, but the partial-flag "
            f"counts give {want_v} and {want_e}")
    return ComplexZ(n=n, q=q, radius=radius, field=field,
                    vertices={key: found_v[key] for key in order},
                    edges={(order[ia], order[ib]): found_e[ia, ib] for ia, ib in sorted(found_e)})


def order_by_label(z: ComplexZ) -> tuple[ComplexZ, dict]:
    """Z_R in HNF label order, for export, and the label of each vertex key.

    Calls vertex_label once per vertex; two vertices with one label raise
    InvariantError, since a label determines the wedge coordinates.  Keys
    and representatives are kept, sorted by label key, and each edge is
    oriented from its label-smaller endpoint, its simplex reversed with it.
    """
    labels = {key: vertex_label(rep.flag, rep.vertex) for key, rep in z.vertices.items()}
    label_key = {key: label.key() for key, label in labels.items()}
    if len(set(label_key.values())) != len(label_key):
        raise InvariantError("vertex label does not match its wedge coordinates")
    edges = {}
    for (ka, kb), rep in z.edges.items():
        if label_key[kb] < label_key[ka]:
            ka, kb, rep = kb, ka, EdgeRep(flag=rep.flag, simplex=rep.simplex[::-1])
        edges[(ka, kb)] = rep
    ordered = z._replace(
        vertices=dict(sorted(z.vertices.items(), key=lambda item: label_key[item[0]])),
        edges=dict(sorted(edges.items(),
                          key=lambda item: (label_key[item[0][0]], label_key[item[0][1]]))))
    return ordered, labels
