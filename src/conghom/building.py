"""The standard wedge, flag translates, and the complex Z_R.

Standard vertices are weakly decreasing exponent tuples (r_1, ...,
r_{n-1}) with an implicit trailing 0.  The radius-R slice of the
fundamental domain is the union of the translates of the truncated
wedge by one constant matrix per full flag of F_q^n.  The translate of
a wedge vertex r by a flag matrix s depends only on r and on the
partial flag of F_q^n that s cuts out at the breaks of r, so Z_R takes
one canonical flag per partial flag, and keys and orders translates by
that partial flag, written as RREF column spans.  Canonical HNF lattice
labels are computed only on export (order_by_label), to name the
vertices of Z_R and fix the published order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations, product

from .errors import InvariantError
from .gf import GF, DenseMatrix, inverse as gf_inverse, rref
from .poly import CanonicalLabel, Poly, PolyMatrix, lattice_label

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


@dataclass(frozen=True)
class BoundProfile:
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


def enumerate_flag_reps(n: int, field: GF) -> list[DenseMatrix]:
    """One determinant-one matrix per complete flag of F_q^n.

    Column j of a representative spans the j-th step of its flag over
    the previous ones.  The flags are enumerated by Bruhat cells: for
    each row permutation w, column k < n-1 is e_w(k) plus free entries
    at the rows r > w(k) not already used by w(0), ..., w(k-1), and the
    last column is e_w(n-1), signed so that the determinant is 1.  The
    cells together hold [n]_q! = (1)(1+q)...(1+q+...+q^(n-1)) flags,
    each exactly once, and the list is sorted by column tuples.  The
    coset w W_B of the Young subgroup of a break set B has a unique
    longest element, the one decreasing inside every block of B
    (Bjorner-Brenti, GTM 231, 2.4), so the flags whose ascents
    (w(k-1) < w(k), k in 1..n-1) lie in B are one per partial flag of
    type B.
    """
    p = field.p
    reps: list[DenseMatrix] = []
    for w in permutations(range(n)):
        free = [(r, k) for k in range(n - 1) for r in range(w[k] + 1, n) if r not in w[:k]]
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
        base = [0] * (n * n)
        for k in range(n):
            base[w[k] * n + k] = 1
        # permuting rows makes the matrix unitriangular, so det = sign(w)
        base[w[n - 1] * n + n - 1] = (-1) ** inversions
        for values in product(range(p), repeat=len(free)):
            ent = base[:]
            for (r, k), v in zip(free, values):
                ent[r * n + k] = v
            reps.append(DenseMatrix(field, n, n, ent))
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
    memoizes each RREF on the leading columns; flags sorted by columns
    share many of them.
    """
    if spans is None:
        spans = {}
    n = s.rows
    by_column = tuple(v for j in range(n) for v in s.entries[j::n])  # column j at [j*n:(j+1)*n]
    keys = {}
    for r in vertices:
        flag = []
        for k in vertex_breaks(r):
            lead = by_column[:k * n]
            span = spans.get(lead)
            if span is None:
                span = spans[lead] = rref(DenseMatrix(s.field, k, n, lead))[1].entries
            flag.append(span)
        keys[r] = (r, tuple(flag))
    return keys


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


@dataclass(frozen=True)
class VertexRep:
    flag: DenseMatrix
    vertex: Vertex


@dataclass(frozen=True)
class EdgeRep:
    flag: DenseMatrix
    simplex: tuple[Vertex, Vertex]  # aligned with the edge's key pair


@dataclass
class ComplexZ:
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

    Of the full flags (flag_reps, default enumerate_flag_reps), a ball
    vertex or edge of break type B, for an edge the union of its
    vertices' breaks, is keyed (partial_flag_keys) only by those whose
    ascents lie in B, one per partial flag of type B, and stores that
    flag with its standard simplex.  A key reached twice, an edge
    endpoint that is not a vertex key, or counts other than the wedge's
    closed-form partial_flag_count sums raise InvariantError.  Both
    dicts are sorted by key, and each edge is oriented by key order.
    """
    field = GF(q)
    ball_vertices, ball_edges = standard_ball(n, radius)
    by_ascents: dict = {}  # ascent set of a flag's Bruhat permutation -> flags
    for s in flag_reps if flag_reps is not None else enumerate_flag_reps(n, field):
        w = [next(r for r in range(n) if s.entries[r * n + k]) for k in range(n)]
        by_ascents.setdefault(frozenset(k for k in range(1, n) if w[k - 1] < w[k]), []).append(s)
    spans: dict = {}

    def canonical(simplices):
        """(flag, simplex, keys) for each simplex and each flag whose ascents lie in its breaks."""
        by_type: dict = {}  # break type -> simplices
        for simplex in simplices:
            breaks = frozenset(k for r in simplex for k in vertex_breaks(r))
            by_type.setdefault(breaks, []).append(simplex)
        for breaks, group in by_type.items():
            ball = {r for simplex in group for r in simplex}
            for ascents, flags in by_ascents.items():
                if ascents <= breaks:
                    for s in flags:
                        keys = partial_flag_keys(s, ball, spans)
                        for simplex in group:
                            yield s, simplex, keys

    def put(found: dict, key, rep) -> None:
        if key in found:
            raise InvariantError(f"{key} is reached by two flags")
        found[key] = rep

    found_v: dict = {}
    for s, (r,), keys in canonical([(r,) for r in ball_vertices]):
        put(found_v, keys[r], VertexRep(flag=s, vertex=r))
    own = {key: key for key in found_v}  # edges share the vertex dict's key objects
    found_e: dict = {}
    for s, simplex, keys in canonical(ball_edges):
        try:
            ka, kb = sorted(own[keys[r]] for r in simplex)
        except KeyError as missing:
            raise InvariantError(f"edge endpoint {missing} is not a vertex") from None
        put(found_e, (ka, kb), EdgeRep(flag=s, simplex=(ka[0], kb[0])))

    want_v = sum(partial_flag_count(n, q, vertex_breaks(r)) for r in ball_vertices)
    want_e = sum(partial_flag_count(n, q, set(vertex_breaks(a)) | set(vertex_breaks(b)))
                 for a, b in ball_edges)
    if (len(found_v), len(found_e)) != (want_v, want_e):
        raise InvariantError(
            f"{len(found_v)} vertices and {len(found_e)} edges, but the partial-flag "
            f"counts give {want_v} and {want_e}")
    return ComplexZ(n=n, q=q, radius=radius, field=field,
                    vertices=dict(sorted(found_v.items())), edges=dict(sorted(found_e.items())))


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
    ordered = replace(
        z,
        vertices=dict(sorted(z.vertices.items(), key=lambda item: label_key[item[0]])),
        edges=dict(sorted(edges.items(),
                          key=lambda item: (label_key[item[0][0]], label_key[item[0][1]]))))
    return ordered, labels
