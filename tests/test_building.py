import json
import random
import re
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conghom import building, poly
from conghom.building import (
    ComplexZ,
    VertexRep,
    bruhat_cells,
    build_Z,
    enumerate_flag_reps,
    order_by_label,
    partial_flag_count,
    partial_flag_keys,
    vertex_breaks,
    vertex_label,
)
from conghom.cli import main
from conghom.errors import InvariantError
from conghom.homology import h0_dimension
from conghom.wedge import BoundProfile, adjacency, bound_profile, standard_ball
from reference import DenseMatrix, det, rref



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


def test_standard_ball_rejects_bad_dimension_and_radius():
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        standard_ball(1, 1)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        standard_ball(3, -1)


def test_adjacency_rejects_vertices_of_different_dimension():
    with pytest.raises(ValueError, match="vertices of different dimension"):
        adjacency((1,), (1, 0))


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
    assert list(p.b.items()) == [((1, 2), 0), ((1, 3), 0), ((2, 3), 0)]


def test_bound_profile_rejects_non_simplex():
    with pytest.raises(ValueError):
        bound_profile([(0, 0), (2, 0)])
    with pytest.raises(ValueError):
        bound_profile([(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="empty simplex"):
        bound_profile([])
    with pytest.raises(ValueError, match="vertices do not lie in the standard wedge"):
        bound_profile([(0, 1)])


def test_bound_profile_superadditive_everywhere():
    verts, edges = standard_ball(3, 4)
    for v in verts:
        assert bound_profile([v]).is_superadditive()
    for e in edges:
        p = bound_profile(list(e))
        assert p.is_superadditive()


def _flag_chain(s, n, p):
    """RREF keys of the ascending column spans of the flag entries s: identifies the flag."""
    chain = []
    for k in range(1, n):
        _, red, _ = rref(DenseMatrix.from_rows(p, [s[j::n] for j in range(k)]))
        chain.append(red.entries)
    return tuple(chain)


@pytest.mark.parametrize("n,q,count", [(2, 2, 3), (3, 2, 21), (3, 3, 52), (2, 3, 4), (4, 2, 315),
                                         (3, 5, 186), (4, 3, 2080)])
def test_flag_reps_counts(n, q, count):
    # count = [n]_q! = sum over permutations w of q^inv(w)
    reps = enumerate_flag_reps(n, q)
    assert len(reps) == count
    columns = [tuple(s[j::n] for j in range(n)) for s in reps]
    assert columns == sorted(columns)
    chains = {_flag_chain(s, n, q) for s in reps}
    assert len(chains) == count  # pairwise inequivalent, hence exhaustive
    # flags are n^2 residues in [0, p), the determinant's sign written as p - 1,
    # not -1: the packed flag products of boundary_columns need every entry in [0, p)
    cells = [s for _, flags in bruhat_cells(n, q, [range(1, n)]) for s in flags]
    assert sorted(cells) == sorted(reps)
    for s in reps:
        assert type(s) is tuple and len(s) == n * n
        assert all(type(v) is int and 0 <= v < q for v in s)
        assert det(DenseMatrix(q, n, n, s)) == 1


def test_vertex_label_origin():
    reps = enumerate_flag_reps(3, 2)
    origin = vertex_label(DenseMatrix.identity(2, 3).entries, 2, (0, 0))
    for s in reps:
        assert vertex_label(s, 2, (0, 0)) == origin
    assert origin[0][0] == (1,)


def test_vertex_label_rejects_non_standard_vertex():
    with pytest.raises(ValueError, match="not a standard vertex"):
        vertex_label(DenseMatrix.identity(2, 3).entries, 2, (0, 1))


def test_vertex_label_classes_match_line_subspaces():
    # translated (1, 0) vertices coincide exactly when the flags share
    # their line s<e1>; the label quotient mod t is the orthogonal plane
    reps = enumerate_flag_reps(3, 2)
    by_label = {}
    by_line = {}
    for s in reps:
        key = vertex_label(s, 2, (1, 0))
        line = s[0::3]
        by_label.setdefault(key, set()).add(s)
        by_line.setdefault(line, set()).add(s)
    assert len(by_label) == 7
    assert set(map(frozenset, by_label.values())) == set(map(frozenset, by_line.values()))


def test_vertex_label_depends_only_on_reduction_mod_t():
    # two representatives of the same label reduce to the same subspace of L0/tL0
    reps = enumerate_flag_reps(3, 3)
    seen = {}
    for s in reps:
        lbl = vertex_label(s, 3, (1, 1))
        sub = _label_subspace_mod_t(lbl, 3)
        prev = seen.setdefault(lbl, sub)
        assert prev == sub
    assert len(seen) == 13


def _label_subspace_mod_t(lbl, p):
    n = len(lbl)
    cols = []
    for j in range(n):
        col = tuple(lbl[i][j][0] if lbl[i][j] else 0 for i in range(n))
        if any(col):
            cols.append(col)
    _, red, _ = rref(DenseMatrix.from_rows(p, cols))
    return red.entries


def _origin(z):
    """Rank of the origin, the one vertex whose wedge coordinates are all zero."""
    (origin,) = [i for i, rep in enumerate(z.vertices) if not any(rep.vertex)]
    return origin


def test_build_z_golden_counts():
    z = build_Z(3, 2, 1)
    assert len(z.vertices) == 15
    assert len(z.edges) == 35
    origin = _origin(z)
    v0_edges = [e for e in z.edges if origin in e]
    assert len(v0_edges) == 14
    # bipartite between the two distance-one types
    for (ia, ib), rep in z.edges.items():
        if origin in (ia, ib):
            continue
        types = {z.vertices[ia].vertex, z.vertices[ib].vertex}
        assert types == {(1, 0), (1, 1)}
    planes = [i for i, r in enumerate(z.vertices) if r.vertex == (1, 0)]
    lines = [i for i, r in enumerate(z.vertices) if r.vertex == (1, 1)]
    assert len(planes) == 7 and len(lines) == 7


def test_build_z_f3_counts_vs_subspace_enumeration():
    z = build_Z(3, 3, 1)
    origin = _origin(z)
    dist1 = [i for i in range(len(z.vertices)) if i != origin]
    coeff_edges = [e for e in z.edges if origin not in e]
    # independent oracle: proper nonzero subspaces of F_3^3 and their incidences
    n_subspaces = _count_proper_subspaces(3, 3)
    n_incidences = _count_line_plane_incidences(3, 3)
    assert len(dist1) == n_subspaces == 26
    assert len(coeff_edges) == n_incidences == 52


def _all_subspaces(n, p):
    from itertools import product

    vecs = [v for v in product(range(p), repeat=n) if any(v)]
    seen = set()
    for r in range(1, n):
        for basis in combinations(vecs, r):
            m = DenseMatrix.from_rows(p, list(basis))
            rank, red, _ = rref(m)
            if rank == r:
                seen.add((r, red.entries))
    return seen


def _count_proper_subspaces(n, p):
    return len(_all_subspaces(n, p))


def _count_line_plane_incidences(n, p):
    assert n == 3
    subs = _all_subspaces(n, p)
    lines = [s for r, s in subs if r == 1]
    planes = [s for r, s in subs if r == 2]
    count = 0
    for ln in lines:
        for pl in planes:
            rows = [tuple(pl[i * n:(i + 1) * n]) for i in range(2)] + [tuple(ln[:n])]
            m = DenseMatrix.from_rows(p, rows)
            if rref(m)[0] == 2:
                count += 1
    return count


def test_build_z_n2():
    z = build_Z(2, 2, 1)
    assert len(z.vertices) == 4   # origin plus the three projective points
    assert len(z.edges) == 3


def test_build_z_order_invariance():
    base = build_Z(3, 2, 1)
    reps = enumerate_flag_reps(3, 2)
    rng = random.Random(30)
    shuffled = reps[:]
    rng.shuffle(shuffled)
    other = build_Z(3, 2, 1, flag_reps=shuffled)
    # ranks, rank pairs and canonical representatives are order independent
    assert base.vertices == other.vertices
    assert base.edges == other.edges


def test_build_z_pins_translate_counts_to_partial_flags():
    # without its last flag, (3,2,1) misses one complete flag: 34 edges, not [3]_2! + 14 = 35
    reps = enumerate_flag_reps(3, 2)
    with pytest.raises(InvariantError, match="15 vertices and 34 edges.* 15 and 35"):
        build_Z(3, 2, 1, flag_reps=reps[:-1])


def test_build_z_rejects_partial_flag_reached_twice():
    reps = enumerate_flag_reps(3, 2)
    with pytest.raises(InvariantError, match="reached by two flags"):
        build_Z(3, 2, 1, flag_reps=reps + [reps[0]])


def test_build_z_rejects_edge_reached_twice():
    # the identity flag's ascents {1, 2} are the break type of the edge
    # (1, 0)-(1, 1) only, so the vertex pass never keys the duplicate and
    # the edge pass names the two endpoint keys, each span a tuple of rows
    reps = enumerate_flag_reps(3, 2)
    edge = "((1, 0), (((1, 0, 0),),)), ((1, 1), (((1, 0, 0), (0, 1, 0)),))"
    with pytest.raises(InvariantError, match=re.escape(f"({edge}) is reached by two flags")):
        build_Z(3, 2, 1, flag_reps=reps + [(1, 0, 0, 0, 1, 0, 0, 0, 1)])


def test_build_z_rejects_edge_endpoint_that_is_not_a_vertex():
    # reps[0] is the one flag with no ascent, so without it the origin is no vertex,
    # while the flags of the 14 edges at the origin still reach its key
    reps = enumerate_flag_reps(3, 2)
    assert _ascents(reps[0], 3) == frozenset()
    with pytest.raises(InvariantError, match=r"edge endpoint \(\(0, 0\), \(\)\) is not a vertex"):
        build_Z(3, 2, 1, flag_reps=reps[1:])


def _ascents(s, n):
    """Ascents of the Bruhat permutation w of s, w(k) the first nonzero row of column k."""
    w = [next(i for i, v in enumerate(s[k::n]) if v) for k in range(n)]
    return frozenset(k for k in range(1, len(w)) if w[k - 1] < w[k])


def _vertex_of_type(n, breaks):
    """The standard vertex whose breaks are exactly `breaks`."""
    return tuple(sum(1 for b in breaks if b >= k) for k in range(1, n))


@pytest.mark.parametrize("n,q", [(2, 5), (3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (5, 2)])
def test_ascent_rule_picks_one_flag_per_partial_flag(n, q):
    # for every break type B, the flags whose ascents lie in B are one per partial flag
    types = {_vertex_of_type(n, b): b for size in range(n) for b in combinations(range(1, n), size)}
    chosen = {r: 0 for r in types}
    keys = {r: set() for r in types}
    selected = {r: [] for r in types}
    for s in _flag_reps(n, q):
        ascents = _ascents(s, n)
        mine = [r for r, breaks in types.items() if ascents <= set(breaks)]
        for r in mine:
            selected[r].append(s)
        for r, key in partial_flag_keys(s, n, q, mine).items():
            chosen[r] += 1
            keys[r].add(key)
    for r, breaks in types.items():
        assert vertex_breaks(r) == breaks
        assert len(keys[r]) == chosen[r] == partial_flag_count(n, q, breaks)
        # the cells restricted to B yield exactly these flags, with their ascents
        cells = list(bruhat_cells(n, q, [breaks]))
        assert all(_ascents(s, n) == ascents for ascents, flags in cells for s in flags)
        assert sorted(s for _, flags in cells for s in flags) == sorted(selected[r])


def _full_flag_build_z(n, q, radius):
    """Z_R from every full flag times every ball simplex, keeping the lexicographically
    first flag that reaches each partial-flag key, and the sorted keys, one per rank."""
    ball_vertices, ball_edges = standard_ball(n, radius)
    best_v = {}
    best_e = {}
    for s in enumerate_flag_reps(n, q):
        keys = partial_flag_keys(s, n, q, ball_vertices)
        for key in keys.values():
            held = best_v.get(key)
            if held is None or s < held:
                best_v[key] = s
        for ra, rb in ball_edges:
            pair = tuple(sorted((keys[ra], keys[rb])))
            held = best_e.get(pair)
            if held is None or s < held:
                best_e[pair] = s
    order = sorted(best_v)
    rank = {key: i for i, key in enumerate(order)}
    vertices = tuple(VertexRep(flag=best_v[key], vertex=key[0]) for key in order)
    edges = {(rank[ka], rank[kb]): best_e[(ka, kb)] for ka, kb in sorted(best_e)}
    return ComplexZ(n=n, q=q, radius=radius, vertices=vertices, edges=edges), order


@pytest.mark.parametrize("n,q,radius", [(3, 2, 3), (3, 3, 4), (4, 2, 2), (4, 3, 1)])
def test_build_z_matches_full_flag_reference(n, q, radius):
    z = build_Z(n, q, radius)
    ref, keys = _full_flag_build_z(n, q, radius)
    assert [partial_flag_keys(rep.flag, n, q, [rep.vertex])[rep.vertex]
            for rep in z.vertices] == keys
    assert list(z.edges) == list(ref.edges)
    if q == 2:
        # over F_2 the canonical flag is the lexicographically first one, so the
        # complexes are equal, flags included, and so are their h0_dimension reports
        assert z == ref
    else:
        assert h0_dimension(z).to_dict() == h0_dimension(ref).to_dict()


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counting(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counting)


def test_compute_path_computes_no_labels(monkeypatch, capsys):
    calls = []
    for module, name in ((building, "vertex_label"), (poly, "lattice_label"),
                         (poly, "label_hex"), (poly, "column_hnf")):
        _count_calls(monkeypatch, module, name, calls)
    want = {"n": 4, "q": 2, "radius": 1, "num_vertices": 65, "num_edges": 315, "dim_c0": 230,
            "dim_c1": 525, "rank_boundary": 215, "dim_h0": 15, "target": 15,
            "meets_conjecture": True, "counts_note": None}
    assert h0_dimension(build_Z(4, 2, 1)).to_dict() == want
    assert main(["compute", "--n", "4", "--q", "2", "--radius", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["timing_ms"]
    assert doc == want
    assert calls == []


def test_export_labels_each_vertex_once(monkeypatch, tmp_path):
    calls = []
    _count_calls(monkeypatch, building, "vertex_label", calls)
    code = main(["export", "--n", "4", "--q", "2", "--radius", "1",
                 "--dot", str(tmp_path / "z.dot"), "--matrix", str(tmp_path / "m.txt")])
    assert code == 0
    assert len(calls) == len(build_Z(4, 2, 1).vertices) == 66


def test_export_rejects_label_shared_by_two_wedge_vertices(monkeypatch, tmp_path, capsys):
    # a label names one wedge vertex; make (1, 1) borrow the label of (1, 0)
    real = building.vertex_label
    monkeypatch.setattr(building, "vertex_label",
                        lambda s, p, r: real(s, p, (1, 0) if r == (1, 1) else r))
    code = main(["export", "--n", "3", "--q", "2", "--radius", "1",
                 "--dot", str(tmp_path / "z.dot"), "--matrix", str(tmp_path / "m.txt")])
    assert code == 4
    assert "vertex label does not match its wedge coordinates" in capsys.readouterr().err
    assert main(["compute", "--n", "3", "--q", "2", "--radius", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["dim_h0"] == 8


def _reference_build_z(n, q, radius):
    """build_Z's vertices and edges, keyed by the HNF label of every (flag, ball vertex) pair.

    Vertices map a label to (flag, wedge vertex), edges a label pair to
    (flag, simplex aligned with the pair).  Each keeps
    the flag whose ascents lie in the simplex's breaks.
    """
    ball_vertices, ball_edges = standard_ball(n, radius)
    wedge = {}  # label -> wedge vertex
    best_v = {}
    best_e = {}
    for s in enumerate_flag_reps(n, q):
        ascents = _ascents(s, n)
        keys = {r: vertex_label(s, q, r) for r in ball_vertices}
        for r in ball_vertices:
            if wedge.setdefault(keys[r], r) != r:
                raise InvariantError("vertex label does not match its wedge coordinates")
            if ascents <= set(vertex_breaks(r)):
                assert keys[r] not in best_v
                best_v[keys[r]] = (s, r)
        for (ra, rb) in ball_edges:
            if not ascents <= set(vertex_breaks(ra)) | set(vertex_breaks(rb)):
                continue
            ka, kb = keys[ra], keys[rb]
            if ka < kb:
                pair, simplex = (ka, kb), (ra, rb)
            else:
                pair, simplex = (kb, ka), (rb, ra)
            assert pair not in best_e
            best_e[pair] = (s, simplex)
    return dict(sorted(best_v.items())), dict(sorted(best_e.items()))


REFERENCE_CONFIGS = [(3, 2, 1), (3, 2, 2), (3, 3, 1), (2, 5, 3), (2, 2, 4), (4, 2, 1), (3, 7, 1),
                     (3, 3, 4)]


@pytest.mark.parametrize("n,q,radius", REFERENCE_CONFIGS)
def test_build_z_matches_per_pair_label_reference(n, q, radius):
    z, labels = order_by_label(build_Z(n, q, radius))
    vertices, edges = _reference_build_z(n, q, radius)
    assert [(labels[i], rep.flag, rep.vertex)
            for i, rep in enumerate(z.vertices)] == [(k, *v) for k, v in vertices.items()]
    # each edge's simplex is read from its endpoints, and matches the reference's
    assert [((labels[ia], labels[ib]), s, (z.vertices[ia].vertex, z.vertices[ib].vertex))
            for (ia, ib), s in z.edges.items()] == [(k, *e) for k, e in edges.items()]


@pytest.mark.parametrize("n,q,radius", REFERENCE_CONFIGS)
def test_build_z_keys_are_partial_flag_keys_of_their_reps(n, q, radius):
    # a vertex's rank is its place in partial-flag key order, and an edge's
    # flag, keyed at its endpoints' wedge vertices, gives its endpoints' keys:
    # so the edge's standard simplex is the one its endpoints span
    z = build_Z(n, q, radius)
    ball_edges = set(standard_ball(n, radius)[1])
    keys = [partial_flag_keys(rep.flag, n, q, [rep.vertex])[rep.vertex] for rep in z.vertices]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert list(z.edges) == sorted(z.edges)
    for (ia, ib), s in z.edges.items():
        assert ia < ib < len(z.vertices)
        assert len(s) == n * n and all(type(v) is int and 0 <= v < q for v in s)
        simplex = (z.vertices[ia].vertex, z.vertices[ib].vertex)
        assert simplex in ball_edges or simplex[::-1] in ball_edges
        edge_keys = partial_flag_keys(s, n, q, simplex)
        assert (keys[ia], keys[ib]) == (edge_keys[simplex[0]], edge_keys[simplex[1]])


@cache
def _flag_reps(n, q):
    return enumerate_flag_reps(n, q)


def _parabolic_element(data, p, r):
    """A determinant-one matrix that is block upper triangular, blocks ending at r's breaks."""
    n = len(r) + 1
    exps = tuple(r) + (0,)
    entry = st.integers(0, p - 1)
    lower = [[1 if i == j else data.draw(entry) if i > j and exps[i] == exps[j] else 0
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else data.draw(entry) if i < j else 0 for j in range(n)]
             for i in range(n)]
    return DenseMatrix.from_rows(p, lower) @ DenseMatrix.from_rows(p, upper)


@given(st.data())
def test_partial_flag_key_partitions_like_vertex_label(data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    q = data.draw(st.sampled_from([2, 3, 5]))
    reps = _flag_reps(n, q)
    ball = standard_ball(n, 2)[0]
    r = data.draw(st.sampled_from(ball))
    s = data.draw(st.sampled_from(reps))
    if data.draw(st.booleans()):
        other = data.draw(st.sampled_from(reps))
    else:
        # s times the parabolic of a random wedge vertex: the same translate of r
        # when that vertex's breaks include r's, often a near miss otherwise
        parabolic = _parabolic_element(data, q, data.draw(st.sampled_from(ball)))
        other = (DenseMatrix(q, n, n, s) @ parabolic).entries
    same_key = partial_flag_keys(s, n, q, [r])[r] == partial_flag_keys(other, n, q, [r])[r]
    same_label = vertex_label(s, q, r) == vertex_label(other, q, r)
    assert same_key == same_label


def test_graph_distance_equals_r1():
    z = build_Z(3, 2, 2)
    origin = _origin(z)
    adjacency_map = [set() for _ in z.vertices]
    for (ia, ib) in z.edges:
        adjacency_map[ia].add(ib)
        adjacency_map[ib].add(ia)
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
    for i, rep in enumerate(z.vertices):
        r1 = rep.vertex[0] if rep.vertex else 0
        assert dist[i] == r1


def test_from_upper_bounds_layout():
    p = BoundProfile.from_upper_bounds(3, [1, 1, 3])
    assert p.b[(1, 2)] == 1 and p.b[(2, 3)] == 1 and p.b[(1, 3)] == 3
    with pytest.raises(ValueError):
        BoundProfile.from_upper_bounds(3, [1, 1])
