import random
from itertools import combinations

import pytest

from conghom import building
from conghom.building import (
    BoundProfile,
    adjacency,
    bound_profile,
    build_Z,
    enumerate_flag_reps,
    standard_ball,
    vertex_label,
)
from conghom.errors import InvariantError
from conghom.gf import GF, DenseMatrix, det, rref

F2 = GF(2)
F3 = GF(3)


def test_standard_ball_n3_r1():
    verts, edges = standard_ball(3, 1)
    assert set(verts) == {(0, 0), (1, 0), (1, 1)}
    assert set(edges) == {((0, 0), (1, 0)), ((0, 0), (1, 1)), ((1, 0), (1, 1))}


def test_standard_ball_n2_path():
    verts, edges = standard_ball(2, 3)
    assert list(verts) == [(0,), (1,), (2,), (3,)]
    assert set(edges) == {((0,), (1,)), ((1,), (2,)), ((2,), (3,))}


def test_standard_ball_n3_r2():
    verts, _ = standard_ball(3, 2)
    assert set(verts) == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


def test_adjacency_examples():
    assert adjacency((0, 0), (1, 0))
    assert adjacency((1, 0), (1, 1))
    assert not adjacency((0, 0), (2, 0))
    assert not adjacency((1, 0), (1, 0))
    assert not adjacency((2, 1), (0, 0))


def test_bound_profile_examples():
    p = bound_profile([(2, 1)])
    assert p.b[(1, 2)] == 1 and p.b[(2, 3)] == 1 and p.b[(1, 3)] == 2

    p = bound_profile([(1, 0), (1, 1)])
    assert p.b[(1, 2)] == 0 and p.b[(2, 3)] == 0 and p.b[(1, 3)] == 1

    p = bound_profile([(0, 0)])
    assert all(p.b[pair] == 0 for pair in p.upper_pairs())


def test_bound_profile_rejects_non_simplex():
    with pytest.raises(ValueError):
        bound_profile([(0, 0), (2, 0)])
    with pytest.raises(ValueError):
        bound_profile([(1, 0), (1, 0)])


def test_bound_profile_superadditive_everywhere():
    verts, edges = standard_ball(3, 4)
    for v in verts:
        assert bound_profile([v]).is_superadditive()
    for e in edges:
        p = bound_profile(list(e))
        assert p.is_superadditive()
        assert all(p.b[(i, j)] <= 0 for i in range(1, 4) for j in range(1, 4) if i > j)


def _flag_chain(s):
    """RREF keys of the ascending column spans: identifies the flag."""
    field = s.field
    n = s.rows
    chain = []
    for k in range(1, n):
        cols = [[s.get(i, j) for j in range(k)] for i in range(n)]
        m = DenseMatrix.from_rows(field, cols).transpose()
        _, red, _ = rref(m)
        chain.append(red.entries)
    return tuple(chain)


@pytest.mark.parametrize("n,q,count", [(2, 2, 3), (3, 2, 21), (3, 3, 52), (2, 3, 4), (4, 2, 315),
                                         (3, 5, 186), (4, 3, 2080)])
def test_flag_reps_counts(n, q, count):
    # count = [n]_q! = sum over permutations w of q^inv(w)
    field = GF(q)
    reps = enumerate_flag_reps(n, field)
    assert len(reps) == count
    columns = [tuple(s.col(j) for j in range(n)) for s in reps]
    assert columns == sorted(columns)
    assert all(det(s) == 1 for s in reps)
    chains = {_flag_chain(s) for s in reps}
    assert len(chains) == count  # pairwise inequivalent, hence exhaustive


def test_vertex_label_origin():
    reps = enumerate_flag_reps(3, F2)
    origin = vertex_label(DenseMatrix.identity(F2, 3), (0, 0))
    for s in reps:
        assert vertex_label(s, (0, 0)) == origin
    assert origin.hnf.entries[0][0].coeffs == (1,)


def test_vertex_label_classes_match_line_subspaces():
    # translated (1, 0) vertices coincide exactly when the flags share
    # their line s<e1>; the label quotient mod t is the orthogonal plane
    reps = enumerate_flag_reps(3, F2)
    by_label = {}
    by_line = {}
    for s in reps:
        key = vertex_label(s, (1, 0)).key()
        line = tuple(s.col(0))
        by_label.setdefault(key, set()).add(s.entries)
        by_line.setdefault(line, set()).add(s.entries)
    assert len(by_label) == 7
    assert set(map(frozenset, by_label.values())) == set(map(frozenset, by_line.values()))


def test_vertex_label_depends_only_on_reduction_mod_t():
    # two representatives of the same label reduce to the same subspace of L0/tL0
    reps = enumerate_flag_reps(3, F3)
    seen = {}
    for s in reps:
        lbl = vertex_label(s, (1, 1))
        sub = _label_subspace_mod_t(lbl)
        prev = seen.setdefault(lbl.key(), sub)
        assert prev == sub
    assert len(seen) == 13


def _label_subspace_mod_t(lbl):
    field = lbl.hnf.field
    n = lbl.n
    cols = []
    for j in range(n):
        col = tuple(lbl.hnf.entries[i][j].coefficient(0) for i in range(n))
        if any(col):
            cols.append(col)
    _, red, _ = rref(DenseMatrix.from_rows(field, cols))
    return red.entries


def test_build_z_golden_counts():
    z = build_Z(3, 2, 1)
    assert len(z.vertices) == 15
    assert len(z.edges) == 35
    origin = z.origin_key()
    assert origin in z.vertices
    v0_edges = [e for e in z.edges if origin in e]
    assert len(v0_edges) == 14
    # bipartite between the two distance-one types
    for (ka, kb), rep in z.edges.items():
        if origin in (ka, kb):
            continue
        types = {z.vertices[ka].vertex, z.vertices[kb].vertex}
        assert types == {(1, 0), (1, 1)}
    planes = [k for k, r in z.vertices.items() if r.vertex == (1, 0)]
    lines = [k for k, r in z.vertices.items() if r.vertex == (1, 1)]
    assert len(planes) == 7 and len(lines) == 7


def test_build_z_f3_counts_vs_subspace_enumeration():
    z = build_Z(3, 3, 1)
    origin = z.origin_key()
    dist1 = [k for k in z.vertices if k != origin]
    coeff_edges = [e for e in z.edges if origin not in e]
    # independent oracle: proper nonzero subspaces of F_3^3 and their incidences
    n_subspaces = _count_proper_subspaces(3, 3)
    n_incidences = _count_line_plane_incidences(3, 3)
    assert len(dist1) == n_subspaces == 26
    assert len(coeff_edges) == n_incidences == 52


def _all_subspaces(n, p):
    field = GF(p)
    from itertools import product

    vecs = [v for v in product(range(p), repeat=n) if any(v)]
    seen = set()
    for r in range(1, n):
        for basis in combinations(vecs, r):
            m = DenseMatrix.from_rows(field, list(basis))
            rank, red, _ = rref(m)
            if rank == r:
                seen.add((r, red.entries))
    return seen


def _count_proper_subspaces(n, p):
    return len(_all_subspaces(n, p))


def _count_line_plane_incidences(n, p):
    assert n == 3
    field = GF(p)
    subs = _all_subspaces(n, p)
    lines = [s for r, s in subs if r == 1]
    planes = [s for r, s in subs if r == 2]
    count = 0
    for ln in lines:
        for pl in planes:
            rows = [tuple(pl[i * n:(i + 1) * n]) for i in range(2)] + [tuple(ln[:n])]
            m = DenseMatrix.from_rows(field, rows)
            if rref(m)[0] == 2:
                count += 1
    return count


def test_build_z_n2():
    z = build_Z(2, 2, 1)
    assert len(z.vertices) == 4   # origin plus the three projective points
    assert len(z.edges) == 3


def test_build_z_order_invariance():
    base = build_Z(3, 2, 1)
    reps = enumerate_flag_reps(3, F2)
    rng = random.Random(30)
    shuffled = reps[:]
    rng.shuffle(shuffled)
    other = build_Z(3, 2, 1, flag_reps=shuffled)
    assert set(base.vertices) == set(other.vertices)
    assert set(base.edges) == set(other.edges)
    # lexicographically-first representatives are order independent too
    for k in base.vertices:
        assert base.vertices[k].flag.entries == other.vertices[k].flag.entries
        assert base.vertices[k].vertex == other.vertices[k].vertex


def test_build_z_rejects_label_shared_by_two_wedge_vertices(monkeypatch):
    # a label names one wedge vertex; make (1, 1) borrow the label of (1, 0)
    real = building.vertex_label

    def clashing(s, r):
        return real(s, (1, 0) if r == (1, 1) else r)

    monkeypatch.setattr(building, "vertex_label", clashing)
    with pytest.raises(InvariantError):
        build_Z(3, 2, 1)


def test_graph_distance_equals_r1():
    z = build_Z(3, 2, 2)
    origin = z.origin_key()
    adjacency_map = {k: set() for k in z.vertices}
    for (ka, kb) in z.edges:
        adjacency_map[ka].add(kb)
        adjacency_map[kb].add(ka)
    dist = {origin: 0}
    frontier = [origin]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency_map[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    for k, rep in z.vertices.items():
        r1 = rep.vertex[0] if rep.vertex else 0
        assert dist[k] == r1


def test_from_upper_bounds_layout():
    p = BoundProfile.from_upper_bounds(3, [1, 1, 3])
    assert p.b[(1, 2)] == 1 and p.b[(2, 3)] == 1 and p.b[(1, 3)] == 3
    with pytest.raises(ValueError):
        BoundProfile.from_upper_bounds(3, [1, 1])
