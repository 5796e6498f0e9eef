"""Flag translates of the standard wedge, and the complex Z_R.

The standard vertices and the radius-R ball of the wedge are in
conghom.wedge.  The radius-R slice of the fundamental domain is the
union of the translates of the truncated wedge by one constant matrix
per full flag of F_q^n.  The translate of a wedge vertex r by a flag
matrix s depends only on r and on the partial flag of F_q^n that s
cuts out at the breaks of r, so Z_R takes one canonical flag per
partial flag.  build_Z keys translates by that partial flag, as the
RREFs (gf.extend_rref) of its leading column spans, only to deduplicate
and order them: a vertex of Z_R is its rank in key order, and an edge
a pair of ranks.  Canonical HNF lattice labels are computed only on
export (order_by_label), to name the vertices and fix their order.
compute translates only the ball edges of certificate_edges first: the
clause rule's edges, pruned to those its ball-level H0, read off the
standard translates alone, needs.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, NamedTuple

from .errors import GF, InvariantError
from .gf import extend_rref, inverse_entries
from .wedge import Vertex, is_standard_vertex, simplex_basis, standard_ball


def bruhat_cells(n: int, p: int, break_types
                 ) -> Iterator[tuple[frozenset[int], list[tuple[int, ...]]]]:
    """Each Bruhat cell of complete flags of F_p^n whose ascents lie in a break type.

    For each row permutation w, in lexicographic order, the cell holds
    one determinant-one matrix per flag, as its n^2 row-major residues
    mod p: column k < n-1 is e_w(k) plus free entries at the rows
    r > w(k) not already used by w(0), ..., w(k-1), and the last column
    is e_w(n-1) times 1 or p - 1, so that the determinant is 1.  So
    w(k) is the first nonzero row of column k, and the cell's ascent set
    is {k in 1..n-1 : w(k-1) < w(k)}.  The cells together hold
    [n]_p! = (1)(1+p)...(1+p+...+p^(n-1)) flags, each exactly once.  The
    coset w W_B of the Young subgroup of a break set B has a unique
    longest element, the one decreasing inside every block of B
    (Bjorner-Brenti, GTM 231, 2.4), so the flags whose ascents lie in B
    are one per partial flag of type B.  The break types [range(1, n)]
    hold every ascent set, so they yield every cell.
    """
    types = [frozenset(b) for b in break_types]
    for w in permutations(range(n)):
        ascents = frozenset(k for k in range(1, n) if w[k - 1] < w[k])
        if not any(ascents <= b for b in types):
            continue
        free = [r * n + k for k in range(n - 1) for r in range(w[k] + 1, n) if r not in w[:k]]
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])
        base = [0] * (n * n)
        for k in range(n):
            base[w[k] * n + k] = 1
        # permuting rows makes the matrix unitriangular, so det = sign(w), as a residue
        base[w[n - 1] * n + n - 1] = p - 1 if inversions % 2 else 1
        flags = []
        for values in product(range(p), repeat=len(free)):
            ent = base[:]
            for at, v in zip(free, values):
                ent[at] = v
            flags.append(tuple(ent))
        yield ascents, flags


def enumerate_flag_reps(n: int, p: int) -> list[tuple[int, ...]]:
    """One determinant-one matrix per complete flag of F_p^n: every bruhat_cells flag.

    Column j of a representative spans the j-th step of its flag over
    the previous ones.  The list is sorted by column tuples.  build_Z
    reads it only when given it as flag_reps: by default it enumerates
    just the cells whose ascents lie in a break type of its ball.
    """
    reps = [s for _, flags in bruhat_cells(n, p, [range(1, n)]) for s in flags]
    reps.sort(key=lambda s: [s[j::n] for j in range(n)])
    return reps


def vertex_label(s: tuple[int, ...], p: int, r: Vertex) -> tuple:
    """Canonical label of the translate of a wedge vertex by the flag matrix s.

    s is given by its row-major residues mod the prime p, and is n x n for
    the n - 1 coordinates of r.  The flag matrix acts through its
    inverse transpose: with that convention, two pairs (s, r) and
    (s', r) share a label exactly when s^-1 s' lies in the parabolic
    subgroup of constant matrices supported where r_i >= r_j, which is
    precisely the group that normalizes the stabilizer attached to r.
    Labels therefore identify translated vertices exactly when their
    stabilizers in the congruence kernel agree.  The label is
    conghom.poly.lattice_label of that basis, its scale-normalized HNF
    as rows of coefficient tuples.  It costs a polynomial HNF, so
    build_Z keys the translates of one canonical flag per partial flag
    by partial_flag_keys instead, and only order_by_label calls this,
    once per vertex, to name the vertices on export.
    """
    from .poly import lattice_label  # export only: keeps compute off poly

    n = len(r) + 1
    if len(s) != n * n or not is_standard_vertex(r):
        raise ValueError("not a standard vertex")
    s_inv = inverse_entries(s, n, p)
    exps = tuple(r) + (0,)
    # row i of (s^T)^-1 = (s^-1)^T is column i of s^-1; its entries are v t^e
    entries = tuple(tuple((0,) * exps[j] + (v,) if v else () for j, v in enumerate(s_inv[i::n]))
                    for i in range(n))
    return lattice_label(entries, p)


def vertex_breaks(r: Vertex) -> tuple[int, ...]:
    """The k in 1..n-1 where the padded exponents (r, 0) drop: r_k > r_{k+1}."""
    exps = tuple(r) + (0,)
    return tuple(k for k in range(1, len(exps)) if exps[k - 1] > exps[k])


def partial_flag_keys(s: tuple[int, ...], n: int, p: int, vertices) -> dict:
    """Partial-flag key of the translate of each wedge vertex r by s.

    s is an n x n flag matrix given by its row-major residues mod p.
    The key is (r, the RREF of the span of the first k columns of s,
    as a tuple of row tuples, for each break k of r).  (s, r) and
    (s', r) share a vertex_label exactly when s^-1 s' lies in the
    parabolic of r, that is, block upper triangular with blocks ending
    at the breaks, which holds exactly when the leading column spans
    agree at every break.
    """
    return _flag_keys(s, n, p, _with_top({r: vertex_breaks(r) for r in vertices}))


def _with_top(breaks: dict) -> tuple:
    """The (wedge vertex, its breaks) pairs of `breaks`, and the largest break (0 for none)."""
    return list(breaks.items()), max((b[-1] for b in breaks.values() if b), default=0)


def _flag_keys(s: tuple[int, ...], n: int, p: int, vertices: tuple) -> dict:
    """partial_flag_keys for vertices given by _with_top.

    The RREF of the span of the first k columns is extend_rref of the
    one at k - 1 and column k.  A flag's columns are independent, so it
    has k rows of n entries, and the keys of one wedge vertex sort as
    their entries read row by row.
    """
    pairs, top = vertices
    span = ()
    at = [span]  # at[k]: RREF of the span at k
    for k in range(1, top + 1):
        span = extend_rref(span, s[k - 1::n], p, n)
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


def _clause_rule(n: int, radius: int) -> tuple:
    """The ball edges that certificate_edges starts from, in standard_ball order.

    An edge (a, b) is kept when one endpoint is the line vertex
    (1, 0, ..., 0), when |b - a| is a prefix of ones (1, ..., 1, 0, ...,
    0), or when one endpoint is a scaled vertex c (1, ..., 1, 0, ..., 0)
    with c >= 2.  At radius 1 its edges with H1 slots are exactly the
    line star (the edges at the origin carry none); for n = 2 it is
    every edge.

    Why these edges plausibly reach the floor (a sketch, not a proof): at
    radius 1 a vertex of type (1^k, 0, ...) is a k-dimensional subspace
    V, and its slots are the rank-one maps x (x) phi with x in V and
    phi(V) = 0.  The edge to V from a line L in V carries L (x) V^perp,
    and these span V (x) V^perp, so modulo the line rows the line star
    reaches every row; that it reaches the rest of the rank on the line
    rows is measured, not proven.  For radius >= 2 the line star and the
    prefix edges fall short by the degree-two slots of the scaled
    vertices 2(1, ..., 1, 0, ..., 0), which the edges at scaled vertices
    close.
    """
    line = (1,) + (0,) * (n - 2)

    def scaled(r: Vertex) -> bool:
        return r[0] >= 2 and all(x in (0, r[0]) for x in r)

    def prefix(d: tuple) -> bool:
        k = d.count(1)
        return k > 0 and d == (1,) * k + (0,) * (len(d) - k)

    return tuple((a, b) for a, b in standard_ball(n, radius)[1]
                 if line in (a, b) or scaled(a) or scaled(b)
                 or prefix(tuple(abs(y - x) for x, y in zip(a, b))))


def _joined(graph: dict, x, y, gone: set) -> bool:
    """Whether x and y are connected in graph, an adjacency {node: [(edge, node)]}, without gone."""
    if x == y:
        return True
    seen = {x}
    stack = [x]
    while stack:
        for at, v in graph[stack.pop()]:
            if v not in seen and at not in gone:
                if v == y:
                    return True
                seen.add(v)
                stack.append(v)
    return False


def _ball_h0_prune(n: int, radius: int, weight_q: int) -> tuple:
    """_clause_rule's slot-bearing edges that ball-level H0 needs, weights counted over F_weight_q.

    The slot-level graph of certificate_edges gets one more node, the
    ground None, and a kill becomes an edge to it: free(s) is then the
    number of components apart from the ground's, and dropping an edge
    leaves it unchanged exactly when the edge's two nodes stay connected
    without it.  Each slot graph is built once, as an adjacency list
    over the rule's edges, and a dropped edge is skipped, not removed.
    """
    holders: dict = {}  # slot label -> the ball vertices whose H1 holds it
    for r in standard_ball(n, radius)[0]:
        for s in simplex_basis((r,)).slots:
            holders.setdefault(s, set()).add(r)
    rule = _clause_rule(n, radius)
    graphs: dict = {}  # slot label -> {node: [(rule position, node)]}
    carried = []       # (-weight, rule position, [(slot graph, node, node)]) per slot-bearing edge
    for at, (a, b) in enumerate(rule):
        slots = simplex_basis((a, b)).slots
        if not slots:
            continue
        ends = []
        for s in slots:
            held = holders.get(s, ())
            x, y = (a if a in held else None), (b if b in held else None)
            graph = graphs.setdefault(s, {})
            graph.setdefault(x, []).append((at, y))
            graph.setdefault(y, []).append((at, x))
            ends.append((graph, x, y))
        count = partial_flag_count(n, weight_q, set(vertex_breaks(a)) | set(vertex_breaks(b)))
        carried.append((-count * len(slots), at, ends))
    gone = set()
    kept = set()
    for _, at, ends in sorted(carried, key=lambda c: c[:2]):
        gone.add(at)
        if not all(_joined(graph, x, y, gone) for graph, x, y in ends):
            gone.discard(at)
            kept.add(at)
    return tuple(e for at, e in enumerate(rule) if at in kept)


def certificate_edges(n: int, radius: int) -> tuple:
    """The ball edges whose translates compute reduces first, in standard_ball order.

    They are the clause rule's edges (_clause_rule) that its ball-level
    H0 needs.  Ball-level H0 is the cokernel of the boundary of the
    standard translates alone, the ball's simplices with flag I: there
    W = I, so an edge slot (i, j, d) maps to the slot (i, j, d) of each
    endpoint whose H1 holds it, and the boundary splits by slot label.
    For a label s, take the graph on the ball vertices whose H1 holds s:
    an edge carrying s joins its endpoints when both hold s, and kills
    the component of its one endpoint when only that one does; free(s),
    the number of components with no kill, is the dimension of the
    label-s part of ball-level H0.  The rule's slot-bearing edges are
    visited heaviest first, by partial-flag count over F_2 times slot
    count, ties in standard_ball order, and an edge is dropped when
    free(s) is unchanged without it for every s it carries.  An edge is
    kept when some free(s) needs it, and later drops only remove edges,
    so it still does: without any one kept edge some free(s) of the
    final set changes.  The test is read off the
    ball alone, with no q and no flag; the weights read q, and over F_3
    or F_5 they give the same set on the rows tried.  Slot-free edges,
    such as the origin's, add no column and are dropped.  At radius 1
    the set is the line star's slot-bearing edges.

    Why any subset S of the boundary's columns is sound: rank S <= rank
    d <= C0 - (n^2 - 1).  The second inequality is the floor: the
    depth-one coefficient map Phi sends the coefficient classes onto the
    traceless matrices and kills d.  So rank S = C0 - (n^2 - 1) gives
    dim H0 = n^2 - 1 exactly, and a smaller rank S says nothing, so the
    full boundary runs.  Keeping ball-level H0 is only what makes the
    certificate likely: a translate's columns are the standard ones
    conjugated by its W, and the rows tried all certify.
    """
    return _ball_h0_prune(n, radius, 2)


class VertexRep(NamedTuple):
    flag: tuple[int, ...]  # row-major residues of the flag matrix
    vertex: Vertex


class ComplexZ(NamedTuple):
    """1-skeleton of the radius-R fundamental-domain slice, one simplex per partial flag.

    Vertex i is vertices[i].  An edge is its rank pair (ia, ib), from
    vertex ia to vertex ib, and its flag; Z_R is a flag complex, so its
    simplex is read from its endpoints, vertices[ia] and vertices[ib].
    Its prime is the int q, which every routine over GF(q) takes as p.
    A z whose ball_edges is not None holds every vertex of Z_R but only
    the translates of those ball edges.
    """

    n: int
    q: int
    radius: int
    vertices: tuple  # VertexRep of its canonical flag, by rank
    edges: dict      # (ia, ib), ia < ib, sorted -> row-major residues of its flag
    ball_edges: tuple | None = None  # the ball edges translated; None for all of them


def build_Z(n: int, q: int, radius: int,
            flag_reps: list[tuple[int, ...]] | None = None,
            ball_edges: tuple | None = None) -> ComplexZ:
    """Union of the flag translates of the radius-R wedge, one per partial flag.

    A ball vertex or edge of break type B, for an edge the union of its
    vertices' breaks, is keyed (partial_flag_keys) only by the full
    flags whose ascents lie in B, one per partial flag of type B.  By
    default the flags are those of the bruhat_cells whose ascents lie in
    some break type of the ball, so no other cell is enumerated; given
    flag_reps, each flag's ascents are read off its matrix instead.
    Each flag is keyed once per pass for all the break types that hold
    its ascents; extend_rref grows the RREF of each leading column span,
    a tuple of row tuples, from the shorter one (_flag_keys).  A key
    reached twice, an edge endpoint that is not a vertex key, or counts
    other than the wedge's closed-form partial_flag_count sums raise
    InvariantError.  The keys stay here: a vertex's rank is its place in
    key order, and each edge is its rank pair (ia, ib), mapped to its
    flag, the edges sorted; a key starts with its wedge vertex, so the
    endpoints give the edge's simplex.  Ball edges (a, b) have a < b, so
    the key of a sorts before the key of b and ia < ib needs no swap.
    Given ball_edges, a subset of standard_ball's edges such as
    certificate_edges, only those are translated and counted, and z
    records them; every vertex is translated either way.
    """
    GF(q)  # checks that q is prime
    ball_vertices, every_edge = standard_ball(n, radius)
    if ball_edges is not None and not set(ball_edges) <= set(every_edge):
        raise ValueError("not edges of the ball")
    edges = every_edge if ball_edges is None else ball_edges
    breaks = {r: vertex_breaks(r) for r in ball_vertices}
    vertex_types: dict = {}  # break type -> ball vertices of that type, as 1-simplices
    for r in ball_vertices:
        vertex_types.setdefault(frozenset(breaks[r]), []).append((r,))
    edge_types: dict = {}    # break type -> ball edges of that type
    for a, b in edges:
        edge_types.setdefault(frozenset(breaks[a] + breaks[b]), []).append((a, b))
    if flag_reps is None:
        cells = list(bruhat_cells(n, q, vertex_types.keys() | edge_types.keys()))
    else:
        by_ascents: dict = {}  # ascent set of a flag's Bruhat permutation -> flags
        for s in flag_reps:
            w = [next(r for r in range(n) if s[r * n + k]) for k in range(n)]
            by_ascents.setdefault(frozenset(k for k in range(1, n) if w[k - 1] < w[k]),
                                  []).append(s)
        cells = list(by_ascents.items())

    def canonical(types: dict):
        """(flag, simplices, keys): each flag, the simplices whose break types hold its ascents."""
        for ascents, flags in cells:
            mine = [simplex for btype, group in types.items() if ascents <= btype
                    for simplex in group]
            if mine:
                verts = _with_top({r: breaks[r] for simplex in mine for r in simplex})
                for s in flags:
                    yield s, mine, _flag_keys(s, n, q, verts)

    found_v: dict = {}
    for s, mine, keys in canonical(vertex_types):
        for (r,) in mine:
            key = keys[r]
            if key in found_v:
                raise InvariantError(f"{key} is reached by two flags")
            found_v[key] = VertexRep(flag=s, vertex=r)
    order = sorted(found_v)
    rank = {key: i for i, key in enumerate(order)}
    found_e: dict = {}  # (rank, rank) -> flag
    for s, mine, keys in canonical(edge_types):
        for a, b in mine:
            try:
                ia, ib = rank[keys[a]], rank[keys[b]]
            except KeyError as missing:
                raise InvariantError(f"edge endpoint {missing} is not a vertex") from None
            if (ia, ib) in found_e:
                raise InvariantError(f"{(order[ia], order[ib])} is reached by two flags")
            found_e[ia, ib] = s

    want_v = sum(partial_flag_count(n, q, breaks[r]) for r in ball_vertices)
    want_e = sum(partial_flag_count(n, q, set(breaks[a]) | set(breaks[b])) for a, b in edges)
    if (len(found_v), len(found_e)) != (want_v, want_e):
        raise InvariantError(
            f"{len(found_v)} vertices and {len(found_e)} edges, but the partial-flag "
            f"counts give {want_v} and {want_e}")
    return ComplexZ(n=n, q=q, radius=radius,
                    vertices=tuple([found_v[key] for key in order]),
                    edges=dict(sorted(found_e.items())), ball_edges=ball_edges)


def order_by_label(z: ComplexZ) -> tuple[ComplexZ, list]:
    """Z_R in HNF label order, for export, and the label of each vertex by its new rank.

    Calls vertex_label once per vertex; two vertices with one label raise
    InvariantError, since a label determines the wedge coordinates.  The
    labels are tuples, and the ranks are permuted into their order,
    representatives kept; each edge keeps its flag under its new rank
    pair, sorted, so it runs from its label-smaller endpoint.
    """
    labels = [vertex_label(rep.flag, z.q, rep.vertex) for rep in z.vertices]
    if len(set(labels)) != len(labels):
        raise InvariantError("vertex label does not match its wedge coordinates")
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = {old: new for new, old in enumerate(order)}
    edges = {}
    for (ia, ib), s in z.edges.items():
        ia, ib = rank[ia], rank[ib]
        edges[(ia, ib) if ia < ib else (ib, ia)] = s
    ordered = z._replace(vertices=tuple([z.vertices[i] for i in order]),
                         edges=dict(sorted(edges.items())))
    return ordered, [labels[i] for i in order]
