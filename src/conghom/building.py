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
line star of the radius-1 ball and, at R >= 2, a cover of the shells
r_1 >= 2 read off the ball (the argument is in homology.compute_h0).
"""

from __future__ import annotations

from collections import Counter
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


def _shell_cover(n: int, radius: int) -> list:
    """Ball edges that offer every slot of every ball vertex b with b_1 >= 2, picked greedily.

    The Levi label of a slot s = (i, j, d) at a ball vertex v is
    (v, v'[i], v'[j], d), v' being v padded with 0.  A slot e of a ball
    edge (a, b), b_1 >= 2, offers the slots of b with b's label of e;
    when b holds none, its columns have no entry at b, and if a_1 >= 2
    it offers the slots of a with a's label of e instead.  Each step
    takes the edge with the most newly offered slots per unit of weight,
    the partial-flag count over F_2 times the slot count, the lighter
    edge on a tie and then the first in standard_ball order, until
    every slot is offered or no edge offers a new one.
    """
    def label(r: Vertex, s) -> tuple:
        padded = r + (0,)
        return r, padded[s.i - 1], padded[s.j - 1], s.degree

    ball_vertices, ball_edges = standard_ball(n, radius)
    need = Counter(label(b, s) for b in ball_vertices if b[0] >= 2  # label -> its slots
                   for s in simplex_basis((b,)).slots)
    offers = []  # (edge, the labels it offers, weight)
    for a, b in ball_edges:
        slots = simplex_basis((a, b)).slots
        if b[0] < 2 or not slots:
            continue
        offer = set()
        for e in slots:
            at = label(b, e)
            if at not in need and a[0] >= 2:
                at = label(a, e)
            if at in need:
                offer.add(at)
        if offer:
            weight = partial_flag_count(n, 2, set(vertex_breaks(a)) | set(vertex_breaks(b)))
            offers.append(((a, b), offer, weight * len(slots)))
    cover = []
    while offers:
        edge, offer, _ = max(offers, key=lambda o: (sum(map(need.get, o[1])) / o[2], -o[2]))
        cover.append(edge)
        for x in offer:
            del need[x]
        offers = [(e, o & need.keys(), w) for e, o, w in offers if not need.keys().isdisjoint(o)]
    return cover


def certificate_edges(n: int, radius: int) -> tuple:
    """The ball edges whose translates compute reads first, in standard_ball order.

    Two parts.  The line star: the edges of the radius-1 ball with H1
    slots at the line vertex (1, 0, ..., 0).  Their columns lie on the
    rows of Z_1, and they are meant to reach rank C0(Z_1) - (n^2 - 1)
    there.  Why (a sketch, not a proof): a vertex of type (1^k, 0, ...)
    is a k-dimensional subspace V, and its slots are the rank-one maps
    x (x) phi with x in V and phi(V) = 0.  The edge to V from a line L
    in V carries L (x) V^perp, and these span V (x) V^perp, so modulo
    the line rows the line star reaches every row; that it reaches the
    rest of the rank on the line rows is measured, not proven.  At
    radius >= 2 they are joined by a shell cover (_shell_cover), whose
    translates are meant to give every row of a vertex with r_1 >= 2 a
    column whose largest row it is.  homology.compute_h0 checks both at
    run time, so neither part has to be right for the answer to be.
    """
    line = (1,) + (0,) * (n - 2)
    kept = set(_shell_cover(n, radius))  # empty at radius 1
    kept.update(e for e in standard_ball(n, 1)[1] if line in e and simplex_basis(e).dim)
    return tuple(e for e in standard_ball(n, radius)[1] if e in kept)


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
