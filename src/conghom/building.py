"""The standard wedge, flag translates, and the deduplicated complex Z_R.

Standard vertices are weakly decreasing exponent tuples (r_1, ...,
r_{n-1}) with an implicit trailing 0.  The radius-R slice of the
fundamental domain is the union of the translates of the truncated
wedge by one constant matrix per full flag of F_q^n, deduplicated by
canonical lattice label.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .errors import InvariantError
from .gf import GF, DenseMatrix, inverse as gf_inverse
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

        Values are ordered by column distance then row: (1,2), (2,3),
        ..., (n-1,n), (1,3), ..., (1,n).  Below-diagonal caps are zero.
        """
        pairs = [(i, i + d) for d in range(1, n) for i in range(1, n - d + 1)]
        if len(values) != len(pairs):
            raise ValueError(f"expected {len(pairs)} bounds for n={n}")
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
    each exactly once, and the list is sorted by column tuples.
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
    congruence kernel agree.
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


@dataclass(frozen=True)
class VertexRep:
    label: CanonicalLabel
    flag: DenseMatrix
    vertex: Vertex


@dataclass(frozen=True)
class EdgeRep:
    labels: tuple  # (key_small, key_big), label-sorted
    flag: DenseMatrix
    simplex: tuple[Vertex, Vertex]  # aligned with `labels`


@dataclass
class ComplexZ:
    """Deduplicated 1-skeleton of the radius-R fundamental-domain slice."""

    n: int
    q: int
    radius: int
    field: GF
    vertices: dict  # label key -> VertexRep
    edges: dict     # (key, key) -> EdgeRep

    def origin_key(self):
        return CanonicalLabel(PolyMatrix.identity(self.field, self.n)).key()


def build_Z(n: int, q: int, radius: int,
            flag_reps: list[DenseMatrix] | None = None) -> ComplexZ:
    """Union of the flag translates of the radius-R wedge, deduplicated.

    Every retained vertex or edge stores the lexicographically first
    (flag matrix, standard simplex) representative, so the result is
    independent of enumeration order.  A label determines the wedge
    coordinates of every (flag, vertex) pair that carries it; a label
    reached from two different wedge vertices raises InvariantError.
    """
    field = GF(q)
    ball_vertices, ball_edges = standard_ball(n, radius)
    flags = flag_reps if flag_reps is not None else enumerate_flag_reps(n, field)

    best_v: dict = {}
    best_e: dict = {}
    for s in flags:
        labels = {r: vertex_label(s, r) for r in ball_vertices}
        keys = {r: lbl.key() for r, lbl in labels.items()}
        for r in ball_vertices:
            held = best_v.get(keys[r])
            if held is not None and held[1] != r:
                raise InvariantError("vertex label does not match its wedge coordinates")
            if held is None or s.entries < held[0].entries:
                best_v[keys[r]] = (s, r, labels[r])
        for (ra, rb) in ball_edges:
            ka, kb = keys[ra], keys[rb]
            if ka < kb:
                pair, simplex = (ka, kb), (ra, rb)
            else:
                pair, simplex = (kb, ka), (rb, ra)
            held = best_e.get(pair)
            if held is None or (s.entries, simplex) < (held[0].entries, held[1]):
                best_e[pair] = (s, simplex)

    vertices = {
        k: VertexRep(label=cand[2], flag=cand[0], vertex=cand[1])
        for k, cand in sorted(best_v.items())
    }
    edges = {
        k: EdgeRep(labels=k, flag=cand[0], simplex=cand[1])
        for k, cand in sorted(best_e.items())
    }
    return ComplexZ(n=n, q=q, radius=radius, field=field, vertices=vertices, edges=edges)
