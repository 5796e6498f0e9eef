import json
import random
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conghom import building, homology
from conghom.building import (VertexRep, build_Z, certificate_edges, enumerate_flag_reps,
                               order_by_label, vertex_label)
from conghom.cli import main
from conghom.errors import InvariantError
from conghom.gf import SparseMatrix, reduce_columns, sparse_rank
from conghom.homology import (
    assemble_boundary,
    block_index,
    boundary_columns,
    closed_form_dims,
    compute_h0,
    h0_dimension,
)
from conghom.wedge import BoundProfile, bound_profile, h1_basis, standard_ball, surviving_degrees
from reference import (DenseMatrix, GroupElement, Poly, PolyMatrix, class_vector, conjugate_by,
                       densify, depth_one_witness, edge_inclusion, elementary, group_mul, inverse,
                       membership, ref_lattice_label, rref, witness_defects)

IDENT3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def profile(n, upper):
    return BoundProfile.from_upper_bounds(n, upper)


def _simplex(z, pair):
    # an edge's standard simplex, read from the endpoints of its rank pair
    return z.vertices[pair[0]].vertex, z.vertices[pair[1]].vertex


def test_surviving_degrees_skip_example():
    surv = surviving_degrees(profile(3, [1, 1, 3]))
    assert surv == {(1, 2): [1], (2, 3): [1], (1, 3): [1, 3]}


def test_surviving_degrees_trivial():
    assert surviving_degrees(profile(3, [0, 0, 0])) == {}


def test_surviving_degrees_213():
    surv = surviving_degrees(profile(3, [2, 1, 3]))
    assert surv == {(1, 2): [1, 2], (2, 3): [1], (1, 3): [1]}


def test_surviving_degrees_unrealizable():
    with pytest.raises(ValueError):
        surviving_degrees(profile(3, [1, 1, 1]))


def test_degree_one_always_survives():
    verts, edges = standard_ball(3, 4)
    for simplex in [[v] for v in verts] + [list(e) for e in edges]:
        surv = surviving_degrees(bound_profile(simplex))
        for (i, j), degs in surv.items():
            assert degs[0] == 1


def test_h1_basis_examples():
    b = h1_basis(bound_profile([(1, 0)]))
    assert [(s.i, s.j, s.degree) for s in b.slots] == [(1, 2, 1), (1, 3, 1)]
    assert b.dim == 2

    b = h1_basis(bound_profile([(1, 0), (1, 1)]))
    assert [(s.i, s.j, s.degree) for s in b.slots] == [(1, 3, 1)]
    assert b.dim == 1

    b = h1_basis(bound_profile([(2, 1)]))
    assert [(s.i, s.j, s.degree) for s in b.slots] == [(1, 2, 1), (1, 3, 1), (2, 3, 1)]
    assert b.dim == 3


def test_membership_examples():
    p = profile(3, [1, 1, 3])
    assert membership(p, elementary(1, 3, Poly.monomial(2, 3), 3))
    assert not membership(p, elementary(1, 3, Poly.monomial(2, 4), 3))
    assert not membership(p, elementary(2, 1, Poly.monomial(2, 1), 3))
    assert not membership(p, elementary(1, 2, Poly.one(2), 3))  # constant term


def test_class_vector_examples():
    p = profile(3, [1, 1, 3])
    basis = h1_basis(p)
    assert [(s.i, s.j, s.degree) for s in basis.slots] == [
        (1, 2, 1), (1, 3, 1), (1, 3, 3), (2, 3, 1)]
    # nonzero exactly at the surviving corner slot of degree three
    assert class_vector(basis, elementary(1, 3, Poly.monomial(2, 3), 3)) == (0, 0, 1, 0)
    assert class_vector(basis, elementary(1, 3, Poly.monomial(2, 2), 3)) == (0, 0, 0, 0)
    g = elementary(1, 2, Poly.monomial(3, 1, 2), 3)
    basis3 = h1_basis(p)
    assert class_vector(basis3, g) == (2, 0, 0, 0)


def test_class_vector_rejects_non_member():
    basis = h1_basis(profile(3, [1, 1, 3]))
    with pytest.raises(ValueError):
        class_vector(basis, elementary(2, 1, Poly.monomial(2, 1), 3))


def random_member(rng, prof, p):
    n = prof.n
    rows = [[Poly.one(p) if i == j else Poly.zero(p) for j in range(n)]
            for i in range(n)]
    for (i, j), cap in prof.b.items():
        if cap >= 1:
            coeffs = [0] + [rng.randrange(p) for _ in range(cap)]
            rows[i - 1][j - 1] = Poly(p, coeffs)
    return GroupElement(PolyMatrix(p, rows))


def test_class_vector_is_homomorphism():
    rng = random.Random(40)
    for n in (2, 3):
        verts, edges = standard_ball(n, 3)
        simplices = [[v] for v in verts] + [list(e) for e in edges]
        for p in (2, 3):
            for simplex in simplices:
                prof = bound_profile(simplex)
                basis = h1_basis(prof)
                if basis.dim == 0:
                    continue
                for _ in range(200):
                    u = random_member(rng, prof, p)
                    v = random_member(rng, prof, p)
                    uv = group_mul(u, v)
                    assert membership(prof, uv)
                    expected = tuple(
                        (a + b) % p
                        for a, b in zip(class_vector(basis, u), class_vector(basis, v))
                    )
                    assert class_vector(basis, uv) == expected


def test_edge_inclusion_identity_flags():
    ident = IDENT3
    mat = edge_inclusion(2, (ident, ((1, 0), (1, 1))), (ident, (1, 0)))
    # edge slot (1,3,1) lands on vertex slot (1,3,1) with coefficient one
    assert (mat.rows, mat.cols) == (2, 1)
    assert mat.col(0) == (0, 1)
    mat = edge_inclusion(2, (ident, ((1, 0), (1, 1))), (ident, (1, 1)))
    assert (mat.rows, mat.cols) == (2, 1)
    assert mat.col(0) == (1, 0)


def test_edge_inclusion_deeper_slot_killed():
    # edge {(2,1),(2,2)}: slots (1,3,1),(1,3,2),(2,3,1)
    ident = IDENT3
    edge = (ident, ((2, 1), (2, 2)))
    basis_e = h1_basis(bound_profile([(2, 1), (2, 2)]))
    assert [(s.i, s.j, s.degree) for s in basis_e.slots] == [
        (1, 3, 1), (1, 3, 2), (2, 3, 1)]

    into_22 = edge_inclusion(2, edge, (ident, (2, 2)))
    # vertex (2,2) keeps all three identically inside its four slots
    basis_v = h1_basis(bound_profile([(2, 2)]))
    assert [(s.i, s.j, s.degree) for s in basis_v.slots] == [
        (1, 3, 1), (1, 3, 2), (2, 3, 1), (2, 3, 2)]
    assert into_22.to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]

    into_21 = edge_inclusion(2, edge, (ident, (2, 1)))
    # vertex (2,1) kills the degree-two class at the corner
    basis_v = h1_basis(bound_profile([(2, 1)]))
    assert [(s.i, s.j, s.degree) for s in basis_v.slots] == [
        (1, 2, 1), (1, 3, 1), (2, 3, 1)]
    assert into_21.to_rows() == [[0, 0, 0], [1, 0, 0], [0, 0, 1]]


def test_edge_inclusion_permuted_vertex_labels():
    # the swap of the last two coordinates carries the standard (2,2) and
    # (2,1) vertices to the lattices [t^2 e1, e2, t^2 e3] and [t^2 e1, e2, t e3]
    w = (1, 0, 0, 0, 0, 1, 0, 1, 0)  # det = 1 over GF(2)
    lbl_v = vertex_label(w, 2, (2, 2))
    direct = ref_lattice_label(PolyMatrix.diagonal_powers(2, [2, 0, 2]))
    assert lbl_v == direct
    lbl_vp = vertex_label(w, 2, (2, 1))
    direct = ref_lattice_label(PolyMatrix.diagonal_powers(2, [2, 0, 1]))
    assert lbl_vp == direct
    mat = edge_inclusion(2, (w, ((2, 1), (2, 2))), (w, (2, 2)))
    assert mat.to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_edge_inclusion_requires_endpoint():
    with pytest.raises(ValueError):
        edge_inclusion(2, (IDENT3, ((1, 0), (1, 1))), (IDENT3, (2, 2)))


def test_edge_inclusion_into_origin_is_empty():
    mat = edge_inclusion(2, (IDENT3, ((0, 0), (1, 0))), (IDENT3, (0, 0)))
    assert (mat.rows, mat.cols) == (0, 0)


def _reference_inclusion(p, edge_rep, vertex_rep):
    # the polynomial route: conjugate each edge generator by W = s_v^-1 s_e,
    # check membership and read the class vector in the vertex basis
    s_e, simplex = edge_rep
    s_v, rv = vertex_rep
    n = len(rv) + 1
    w = inverse(DenseMatrix(p, n, n, s_v)) @ DenseMatrix(p, n, n, s_e)
    vert_basis = h1_basis(bound_profile([rv]))
    cols = []
    for s in h1_basis(bound_profile(list(simplex))).slots:
        u = conjugate_by(elementary(s.i, s.j, Poly.monomial(p, s.degree), n), w)
        assert membership(vert_basis.profile, u)
        cols.append(class_vector(vert_basis, u))
    return [[col[a] for col in cols] for a in range(vert_basis.dim)]


def test_assembled_column_weight_radius_two():
    # through radius 2 every edge class lands in at least one endpoint, and
    # every constant-matrix inclusion matches the polynomial reference
    for z in (build_Z(3, 2, 2), build_Z(3, 3, 1), build_Z(4, 2, 1), build_Z(3, 3, 2),
              build_Z(3, 7, 1)):
        for pair, se in z.edges.items():
            simplex = _simplex(z, pair)
            basis = h1_basis(bound_profile(list(simplex)))
            if basis.dim == 0:
                continue
            mats = []
            for at in pair:
                vrep = z.vertices[at]
                edge_rep = (se, simplex)
                vertex_rep = (vrep.flag, vrep.vertex)
                mat = edge_inclusion(z.q, edge_rep, vertex_rep)
                assert mat.to_rows() == _reference_inclusion(z.q, edge_rep, vertex_rep)
                mats.append(mat)
            for b in range(basis.dim):
                weight = sum(1 for m in mats for a in range(m.rows) if m.get(a, b))
                assert weight >= 1


def test_endpoint_criterion_matches_vertex_labels():
    # edge_inclusion accepts (s', r) as an endpoint of (s, edge) exactly when
    # s^-1 s' lies in the parabolic of r, i.e. when the HNF labels agree
    rng = random.Random(2024)
    for n, q, radius in ((3, 2, 2), (3, 3, 2), (4, 2, 1)):
        reps = enumerate_flag_reps(n, q)
        verts, edges = standard_ball(n, radius)
        label = {(s, r): vertex_label(s, q, r) for s in reps for r in verts}
        outcomes = set()
        for _ in range(150):
            edge = rng.choice(edges)
            r = rng.choice(edge)
            s = rng.choice(reps)
            # half the partners are drawn from the flags that share s's label
            partners = [t for t in reps if label[(t, r)] == label[(s, r)]]
            sp = rng.choice(partners if rng.random() < 0.5 else reps)
            same = label[(s, r)] == label[(sp, r)]
            try:
                edge_inclusion(q, (s, edge), (sp, r))
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == same
            outcomes.add(same)
        assert outcomes == {True, False}


def test_edge_class_can_die_in_both_endpoints_at_radius_three():
    # caps 1+1 on the short roots block every split of 3, so (1,3,3) survives
    # the edge profile, while both endpoints admit splits and kill it
    edge = [(3, 1), (3, 2)]
    surv_edge = surviving_degrees(bound_profile(edge))
    assert 3 in surv_edge[(1, 3)]
    for v in edge:
        surv_v = surviving_degrees(bound_profile([v]))
        assert 3 not in surv_v.get((1, 3), [])


def test_assemble_boundary_golden_shape():
    z = build_Z(3, 2, 1)
    boundary, index = assemble_boundary(z)
    assert (boundary.rows, boundary.cols) == (28, 21)
    assert index.dim_c0 == 28 and index.dim_c1 == 21
    # v0-incident edges stay in the tables with empty blocks
    assert len(index.edge_blocks) == 35
    assert sum(1 for _, _, b in index.edge_blocks if b.dim) == 21
    assert closed_form_dims(3, 2, 1) == (28, 21)


def test_assemble_boundary_checks_closed_form_dims(monkeypatch):
    # both entry points raise on the layout, before any inclusion is computed
    z = build_Z(3, 2, 1)
    edges = dict(z.edges)
    del edges[next(pair for pair in z.edges if h1_basis(bound_profile(_simplex(z, pair))).dim)]
    calls = _record_inclusions(monkeypatch)
    for entry in (assemble_boundary, h0_dimension):
        with pytest.raises(InvariantError, match="partial-flag counts give 28 and 21"):
            entry(z._replace(edges=edges))
    assert calls == []


def test_edge_whose_ranks_span_no_simplex_raises_before_any_inclusion(monkeypatch):
    # an edge's simplex is read from its endpoints, so a rank pair naming two
    # translates of one wedge vertex spans no simplex, and both entry points
    # reject it while laying out the columns, before any inclusion
    z = build_Z(3, 2, 1)
    ia, ib = next((i, j) for i, a in enumerate(z.vertices) for j, b in enumerate(z.vertices)
                  if i < j and a.vertex == b.vertex and any(a.vertex))
    assert (ia, ib) not in z.edges
    edges = dict(z.edges)
    edges[ia, ib] = edges.pop(next(iter(z.edges)))
    bad = z._replace(edges=dict(sorted(edges.items())))
    assert len(bad.edges) == len(z.edges)
    calls = _record_inclusions(monkeypatch)
    for entry in (assemble_boundary, h0_dimension):
        with pytest.raises(ValueError, match="vertices do not span a simplex"):
            entry(bad)
    assert calls == []


def test_inclusion_rejects_a_class_outside_the_vertex_caps():
    # W = I and r_v = (2, 1) is an endpoint of the edge, but the basis passed
    # is that of (1, 0), whose cap b_13 = 1 cannot hold the edge slot (1, 3, 2)
    simplex = ((2, 1), (2, 2))
    edge_basis = h1_basis(bound_profile(simplex))
    assert (1, 3, 2) in edge_basis.slots
    own = h1_basis(bound_profile([(2, 1)]))
    assert homology._inclusion(IDENT3, 3, 3, simplex, edge_basis, (2, 1), own)
    with pytest.raises(InvariantError, match="representative inconsistency"):
        homology._inclusion(IDENT3, 3, 3, simplex, edge_basis, (2, 1),
                            h1_basis(bound_profile([(1, 0)])))


def _record_inclusions(monkeypatch):
    # each _inclusion call's (W entries, simplex, r_v), listed before the call runs
    calls = []
    real = homology._inclusion

    def recording(w, n, p, simplex, edge_basis, rv, vert_basis):
        calls.append((w, simplex, rv))
        return real(w, n, p, simplex, edge_basis, rv, vert_basis)

    monkeypatch.setattr(homology, "_inclusion", recording)
    return calls


def _through_both_entry_points(rows):
    # each row as it reads through assemble_boundary, and again, with
    # "-h0_dimension" added to its id, through the streamed h0_dimension
    return [pytest.param(*row, entry, id="-".join(map(str, row)) + suffix)
            for entry, suffix in ((assemble_boundary, ""), (h0_dimension, "-h0_dimension"))
            for row in rows]


@pytest.mark.parametrize("n,q,radius,distinct,entry", _through_both_entry_points([
    (3, 3, 4, 119), (4, 2, 2, 150), (3, 7, 1, 23), (4, 3, 1, 84)]))
def test_assemble_boundary_computes_each_distinct_inclusion_once(monkeypatch, n, q, radius,
                                                                 distinct, entry):
    # thousands of (edge, endpoint) pairs share these few inclusions
    z = build_Z(n, q, radius)
    calls = _record_inclusions(monkeypatch)
    entry(z)
    assert len(calls) == len(set(calls)) == distinct


@pytest.mark.parametrize("n,q,radius,products,pairs,same_flag,entry", _through_both_entry_points([
    (3, 3, 4, 78, 2444, 1898), (4, 2, 2, 1010, 5800, 2550)]))
def test_boundary_columns_forms_each_flag_pair_product_once(monkeypatch, n, q, radius, products,
                                                            pairs, same_flag, entry):
    # W = s_v^-1 s_e is formed once per distinct flag pair with s_v != s_e,
    # and never for a pair whose two flags are equal
    z = build_Z(n, q, radius)
    flag_pairs = [(z.vertices[at].flag, se)
                  for pair, se in z.edges.items()
                  if h1_basis(bound_profile(_simplex(z, pair))).dim for at in pair]
    assert len(flag_pairs) == pairs
    assert sum(sv == se for sv, se in flag_pairs) == same_flag
    assert len({(sv, se) for sv, se in flag_pairs if sv != se}) == products
    calls = []
    real = homology._packed_product

    def recording(packed, b, unpack, bits, p):
        calls.append((packed, b))
        return real(packed, b, unpack, bits, p)

    monkeypatch.setattr(homology, "_packed_product", recording)
    entry(z)
    assert len(calls) == len(set(calls)) == products


@pytest.mark.parametrize("n,q,radius,vertex_flags,distinct,entry", _through_both_entry_points([
    (3, 3, 4, 25, 119), (4, 2, 2, 251, 150)]))
def test_boundary_columns_inverts_each_vertex_flag_once(monkeypatch, n, q, radius, vertex_flags,
                                                        distinct, entry):
    # s_v^-1 is formed once per vertex flag that meets an edge flag other
    # than its own; the other inverse_entries calls are the W^-1 of the
    # distinct inclusions, made from inside _inclusion
    z = build_Z(n, q, radius)
    flag_pairs = [(z.vertices[at].flag, se)
                  for pair, se in z.edges.items()
                  if h1_basis(bound_profile(_simplex(z, pair))).dim for at in pair]
    assert len({sv for sv, se in flag_pairs if sv != se}) == vertex_flags
    inverted = {"flag": [], "w": []}
    inside = []
    real_inverse, real_inclusion = homology.inverse_entries, homology._inclusion

    def recording_inverse(entries, n, p):
        inverted["w" if inside else "flag"].append(entries)
        return real_inverse(entries, n, p)

    def recording_inclusion(*args):
        inside.append(True)
        entries = real_inclusion(*args)
        inside.pop()
        return entries

    monkeypatch.setattr(homology, "inverse_entries", recording_inverse)
    monkeypatch.setattr(homology, "_inclusion", recording_inclusion)
    entry(z)
    assert len(inverted["flag"]) == len(set(inverted["flag"])) == vertex_flags
    assert set(inverted["flag"]) == {sv for sv, se in flag_pairs if sv != se}
    assert len(inverted["w"]) == distinct


@given(st.data())
def test_packed_product_is_the_flag_pair_product(data):
    # W = s_v^-1 s_e from s_v^-1's packed columns, column-major, for random
    # flag pairs, and the same product for matrices drawn with entries of
    # p - 1, whose slot sums n (p-1)^2 are the largest a slot must hold;
    # one unpack memo serves every product of a field and size
    n = data.draw(st.sampled_from([2, 3, 4]))
    q = data.draw(st.sampled_from([2, 3, 5, 7, 257]))
    bits = homology._slot_bits(n, q)
    unpack = {}
    if q ** n <= 81 and data.draw(st.booleans()):
        reps = _flag_reps(n, q)
        s_v, s_e = (DenseMatrix(q, n, n, data.draw(st.sampled_from(reps))) for _ in range(2))
        a, b = inverse(s_v), s_e
    else:
        entry = st.one_of(st.just(q - 1), st.integers(0, q - 1))
        a, b = (DenseMatrix(q, n, n, data.draw(st.lists(entry, min_size=n * n,
                                                         max_size=n * n)))
                for _ in range(2))
    full = DenseMatrix(q, n, n, [q - 1] * (n * n))
    for x, y in ((a, b), (full, full), (full, b)):
        packed = homology._pack_columns(x.entries, n, bits)
        assert homology._packed_product(packed, y.entries, unpack, bits, q) == (
            (x @ y).transpose().entries)


@cache
def _flag_reps(n, q):
    return enumerate_flag_reps(n, q)


@pytest.mark.parametrize("n,q,radius,entry", _through_both_entry_points([(3, 2, 2), (3, 3, 1)]))
def test_swapped_vertex_flag_fails_endpoint_check_past_filled_cache(monkeypatch, n, q, radius,
                                                                    entry):
    # give the vertex reached last by a coefficient-bearing edge the flag of
    # another partial flag of its wedge vertex: its first edge must fail the
    # endpoint check, although earlier edges cached that simplex and r_v
    z = build_Z(n, q, radius)
    first_edge = {}
    for idx, pair in enumerate(z.edges):
        if h1_basis(bound_profile(_simplex(z, pair))).dim:
            for at in pair:
                first_edge.setdefault(at, idx)
    target = max(first_edge, key=first_edge.get)
    r = z.vertices[target].vertex
    donor = next(rep for i, rep in enumerate(z.vertices) if i != target and rep.vertex == r)
    swapped = z._replace(vertices=z.vertices[:target] + (VertexRep(flag=donor.flag, vertex=r),)
                         + z.vertices[target + 1:])
    calls = _record_inclusions(monkeypatch)
    with pytest.raises(ValueError, match="vertex is not an endpoint of the edge"):
        entry(swapped)
    failed = calls.pop()
    assert failed[2] == r
    assert failed[1:] in {call[1:] for call in calls}


def test_compute_path_builds_no_whole_boundary(monkeypatch):
    # h0_dimension reduces the column stream and never holds the boundary
    built = []
    real = SparseMatrix.__init__

    def recording(self, p, rows, cols, triples=()):
        built.append((rows, cols))
        real(self, p, rows, cols, triples)

    monkeypatch.setattr(SparseMatrix, "__init__", recording)
    z = build_Z(4, 2, 2)
    assert h0_dimension(z).dim_h0 == 15
    assert built == []
    assemble_boundary(z)
    assert built == [(2265, 11045)]


@pytest.mark.parametrize("n,q,radius,rank,tail_nnz", [(3, 3, 4, 1864, 1871),
                                                      (4, 2, 2, 2250, 2523)])
def test_boundary_stream_reduces_to_pinned_basis(n, q, radius, rank, tail_nnz):
    # pins the column order (z.edges, then slots) and the largest-row pivot:
    # counted with one pivot per column, the basis holds 3,735 and 4,773
    # nonzeros; reversed columns leave 4,951 and 8,533, and the
    # smallest-row pivot 5,204 and 8,556, after 20 to 57 times as many
    # column subtractions
    z = build_Z(n, q, radius)
    basis = reduce_columns(z.q, boundary_columns(z, block_index(z)))
    assert all(r < pivot and 1 <= v < q for pivot, tail in basis.items() for r, v in tail)
    assert (len(basis), sum(map(len, basis.values()))) == (rank, tail_nnz)


def test_assemble_boundary_n2():
    z = build_Z(2, 2, 1)
    boundary, index = assemble_boundary(z)
    assert (boundary.rows, boundary.cols) == (3, 0)


def test_assemble_boundary_r0():
    z = build_Z(3, 2, 0)
    boundary, index = assemble_boundary(z)
    assert (boundary.rows, boundary.cols) == (0, 0)


def test_h0_dimension_golden():
    rep = h0_dimension(build_Z(3, 2, 1))
    assert rep.num_vertices == 14
    assert rep.num_edges == 21
    assert rep.dim_c0 == 28
    assert rep.dim_c1 == 21
    assert rep.rank_boundary == 20
    assert rep.dim_h0 == 8
    assert rep.meets_conjecture
    assert rep.counts_note is None


def test_h0_dimension_f3_note():
    rep = h0_dimension(build_Z(3, 3, 1))
    assert rep.dim_h0 == 8
    assert rep.num_vertices == 26 and rep.num_edges == 52
    assert "25" in rep.counts_note and "42" in rep.counts_note


def _reversed_edges(z):
    # every edge re-oriented: its rank pair swapped, so its simplex, read from
    # its endpoints, is reversed with it
    return z._replace(edges={(kb, ka): se for (ka, kb), se in z.edges.items()})


def test_h0_dimension_invariances():
    for q in (2, 3):
        z = build_Z(3, q, 1)
        reversed_z = _reversed_edges(z)
        boundary, _ = assemble_boundary(z)
        reversed_boundary, _ = assemble_boundary(reversed_z)
        assert list(reversed_boundary.triples()) == [(r, c, -v % q)
                                                     for r, c, v in boundary.triples()]
        assert h0_dimension(reversed_z).to_json() == h0_dimension(z).to_json()


@pytest.mark.parametrize("n,q,radius", [(3, 3, 2), (4, 2, 1), (3, 7, 1)])
def test_h0_dimension_does_not_depend_on_label_order(n, q, radius):
    # order_by_label moves every row block to its vertex's label rank
    z = build_Z(n, q, radius)
    ordered, _ = order_by_label(z)
    assert ordered.vertices != z.vertices
    assert h0_dimension(ordered).to_json() == h0_dimension(z).to_json()


def _permuted_ranks(z, new):
    # vertex i moved to rank new[i]; each edge remapped, oriented from its
    # smaller new rank, its flag kept
    vertices = [None] * len(new)
    for i, rep in enumerate(z.vertices):
        vertices[new[i]] = rep
    edges = {}
    for (ia, ib), se in z.edges.items():
        ja, jb = new[ia], new[ib]
        edges[(ja, jb) if ja < jb else (jb, ja)] = se
    return z._replace(vertices=tuple(vertices), edges=dict(sorted(edges.items())))


def test_h0_dimension_does_not_depend_on_random_ranks():
    z = build_Z(3, 2, 2)
    base = h0_dimension(z).to_json()
    rng = random.Random(22)
    for _ in range(3):
        new = list(range(len(z.vertices)))
        rng.shuffle(new)
        moved = _permuted_ranks(z, new)
        assert sum(new[ia] > new[ib] for ia, ib in z.edges) > 0  # some edges were reoriented
        assert h0_dimension(moved).to_json() == base


@pytest.mark.parametrize("n,q,radius", [(3, 3, 2), (4, 2, 1), (3, 7, 1), (3, 3, 4), (4, 2, 2),
                                         (4, 3, 1)])
def test_assembled_boundary_matches_edge_inclusion_blocks(n, q, radius):
    # every edge column is +edge_inclusion into the first endpoint of its rank
    # pair and -edge_inclusion into the second, at the BlockIndex offsets
    z = build_Z(n, q, radius)
    boundary, index = assemble_boundary(z)
    row_offset = {at: off for at, off, _ in index.vertex_blocks}
    expected = []
    for pair, off, basis in index.edge_blocks:
        edge_rep = (z.edges[pair], _simplex(z, pair))
        for at, sign in ((pair[0], 1), (pair[1], -1)):
            vrep = z.vertices[at]
            mat = edge_inclusion(z.q, edge_rep, (vrep.flag, vrep.vertex))
            assert mat.cols == basis.dim
            expected += [(row_offset[at] + a, off + b, sign * mat.get(a, b) % q)
                         for a in range(mat.rows) for b in range(mat.cols) if mat.get(a, b)]
    assert list(boundary.triples()) == sorted(expected)


WITNESS_ROWS = [(3, 2, 1), (3, 3, 2), (3, 3, 4), (4, 2, 2), (3, 7, 1), (4, 3, 1), (2, 3, 3)]


@pytest.mark.parametrize("n,q,radius", WITNESS_ROWS)
def test_depth_one_witness_certifies_the_floor(n, q, radius):
    # Phi kills every boundary column and has rank n^2 - 1, so
    # rank boundary <= dim C0 - (n^2 - 1): the floor as a fact of this matrix
    z = build_Z(n, q, radius)
    boundary, index = assemble_boundary(z)
    phi = depth_one_witness(z, index)
    assert (phi.rows, phi.cols) == (n * n, index.dim_c0)
    assert witness_defects(phi, boundary) == []
    assert rref(phi)[0] == n * n - 1


@pytest.mark.parametrize("n,q,radius", WITNESS_ROWS)
def test_depth_one_witness_kills_the_sub_boundary(n, q, radius):
    # compute certifies from the columns of certificate_edges alone, so Phi
    # must kill exactly the matrix it reduces, not only the full boundary
    z = build_Z(n, q, radius, ball_edges=certificate_edges(n, radius))
    boundary, index = assemble_boundary(z)
    assert index.dim_c1 == closed_form_dims(n, q, radius, z.ball_edges)[1]
    phi = depth_one_witness(z, index)
    assert witness_defects(phi, boundary) == []
    assert rref(phi)[0] == n * n - 1


def test_h0_monotone_in_radius():
    d1 = h0_dimension(build_Z(3, 2, 1)).dim_h0
    d2 = h0_dimension(build_Z(3, 2, 2)).dim_h0
    assert d2 <= d1
    assert d2 >= 8


def _slot_degrees(blocks):
    return [s.degree for _, _, basis in blocks for s in basis.slots]


@pytest.mark.parametrize("n,q,radius,h0_by_degree", [
    (3, 2, 2, {1: 8, 2: 0}),
    (3, 3, 1, {1: 8}),
    (2, 3, 3, {1: 4, 2: 4, 3: 4}),
    (4, 2, 1, {1: 15}),
    (3, 2, 3, {1: 8, 2: 0, 3: 0}),
    (2, 2, 4, {1: 3, 2: 3, 3: 3, 4: 3}),
])
def test_degree_blocks_of_real_boundaries(n, q, radius, h0_by_degree):
    """The boundary splits by t-degree; sparse_rank matches rref on each block.

    H0 per degree shows where the cokernel lives: in degree 1 for the
    n >= 3 cases, and q + 1 in every degree for n = 2 (the mechanism
    behind criterion 08's growth).
    """
    boundary, index = assemble_boundary(build_Z(n, q, radius))
    row_deg = _slot_degrees(index.vertex_blocks)
    col_deg = _slot_degrees(index.edge_blocks)
    assert all(row_deg[r] == col_deg[c] for r, c, _ in boundary.triples())

    h0 = {}
    for d in sorted(set(row_deg)):
        rows = {r: i for i, r in enumerate(r for r, e in enumerate(row_deg) if e == d)}
        cols = {c: i for i, c in enumerate(c for c, e in enumerate(col_deg) if e == d)}
        block = SparseMatrix(boundary.p, len(rows), len(cols),
                             [(rows[r], cols[c], v) for r, c, v in boundary.triples()
                              if r in rows])
        rank = sparse_rank(block)
        assert rank == rref(densify(block))[0]
        h0[d] = len(rows) - rank
    assert sum(h0.values()) == index.dim_c0 - sparse_rank(boundary)
    assert h0 == h0_by_degree


# every compute row that tier-1 runs elsewhere, and the rows of the CLI
COMPUTE_ROWS = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (3, 2, 1), (3, 2, 2),
                (3, 2, 3), (3, 3, 1), (3, 3, 2), (3, 3, 4), (3, 7, 1), (4, 2, 1), (4, 2, 2),
                (4, 3, 1), (5, 2, 1)]


@pytest.mark.parametrize("n,q,radius", COMPUTE_ROWS)
def test_sub_boundary_rank_is_the_full_rank(n, q, radius, capsys):
    full = h0_dimension(build_Z(n, q, radius))
    sub = h0_dimension(build_Z(n, q, radius, ball_edges=certificate_edges(n, radius)))
    assert sub.rank_boundary == full.rank_boundary
    assert main(["compute", "--n", str(n), "--q", str(q), "--radius", str(radius)]) in (0, 3)
    doc = json.loads(capsys.readouterr().out)
    del doc["timing_ms"]
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == full.to_json()


@pytest.mark.parametrize("n,radius,star,cover", [(2, 3, 0, 2), (3, 1, 1, 0), (3, 2, 1, 5),
                                                 (3, 4, 1, 19), (4, 1, 2, 0), (4, 2, 2, 10),
                                                 (5, 1, 3, 0)])
def test_certificate_edges_are_the_line_star_and_a_shell_cover(n, radius, star, cover):
    # the line star of the radius-1 ball (its slot-free origin edge is dropped)
    # and, at R >= 2, the shell cover's edges into the shells r_1 >= 2
    line = (1,) + (0,) * (n - 2)
    line_star = [e for e in standard_ball(n, 1)[1] if line in e and h1_basis(bound_profile(e)).dim]
    shell_cover = building._shell_cover(n, radius)
    assert (len(line_star), len(shell_cover)) == (star, cover)
    assert all(b[0] >= 2 and h1_basis(bound_profile((a, b))).dim for a, b in shell_cover)
    kept = set(line_star) | set(shell_cover)
    assert certificate_edges(n, radius) == tuple(e for e in standard_ball(n, radius)[1] if e in kept)


@pytest.mark.parametrize("n,q,radius,dim_c1,full_c1", [(3, 3, 4, 3276, 5044),
                                                       (4, 2, 2, 3380, 11045),
                                                       (4, 3, 1, 1560, 2600),
                                                       (3, 7, 1, 456, 456)])
def test_sub_boundary_columns(n, q, radius, dim_c1, full_c1):
    z = build_Z(n, q, radius, ball_edges=certificate_edges(n, radius))
    assert block_index(z).dim_c1 == dim_c1
    assert closed_form_dims(n, q, radius)[1] == full_c1


def test_sub_boundary_count_checks_read_the_translated_edges():
    z = build_Z(4, 2, 1, ball_edges=certificate_edges(4, 1))
    with pytest.raises(InvariantError, match="dimensions 230 and 315, but the "
                                             "partial-flag counts give 230 and 525"):
        block_index(z._replace(ball_edges=None))
    with pytest.raises(ValueError, match="not edges of the ball"):
        build_Z(4, 2, 1, ball_edges=(((2, 0, 0), (1, 0, 0)),))


def _record_h0_dimension(monkeypatch):
    """The z and report of each h0_dimension call that compute_h0 makes."""
    calls = []

    def recording(z):
        report = h0_dimension(z)
        calls.append((z, report))
        return report

    monkeypatch.setattr(homology, "h0_dimension", recording)
    return calls


def _record_reductions(monkeypatch):
    """(columns in, rank) of each reduce_columns call that compute_h0 makes."""
    calls = []

    def recording(p, columns):
        columns = list(columns)
        basis = reduce_columns(p, columns)
        calls.append((len(columns), len(basis)))
        return basis

    monkeypatch.setattr(homology, "reduce_columns", recording)
    return calls


def test_compute_h0_falls_back_to_the_full_boundary(monkeypatch):
    # the line star alone leaves shell rows of (3,3,2) uncovered, so the full boundary runs
    def line_star(n, radius):
        line = (1,) + (0,) * (n - 2)
        return tuple(e for e in standard_ball(n, radius)[1] if line in e)

    monkeypatch.setattr(homology, "certificate_edges", line_star)
    calls = _record_h0_dimension(monkeypatch)
    reductions = _record_reductions(monkeypatch)
    report = compute_h0(3, 3, 2)
    [(full_z, full)] = calls
    assert full_z.ball_edges is None
    assert reductions[0][1] == 52 - 8  # Z_1 certifies; its shells do not
    assert full.rank_boundary == 304
    assert report.to_json() == full.to_json() == h0_dimension(build_Z(3, 3, 2)).to_json()


def test_compute_h0_falls_back_without_one_cover_edge(monkeypatch):
    # without the step into the scaled vertex (2, 2) no column has the rows of
    # its top-degree slots (1,3,2) and (2,3,2) as largest row, 26 rows over its
    # 13 translates; Z_1 still certifies, and the full boundary gives the same JSON
    real = certificate_edges
    monkeypatch.setattr(homology, "certificate_edges", lambda n, radius: tuple(
        e for e in real(n, radius) if e != ((2, 1), (2, 2))))
    calls = _record_h0_dimension(monkeypatch)
    reductions = _record_reductions(monkeypatch)
    report = compute_h0(3, 3, 2)
    [(full_z, full)] = calls
    assert full_z.ball_edges is None
    assert reductions[0] == (52, 52 - 8)
    assert report.to_json() == full.to_json() == h0_dimension(build_Z(3, 3, 2)).to_json()


def test_compute_h0_certifies_without_the_full_boundary(monkeypatch):
    # at (4,2,2) the certificate's 3,380 columns stream, and only the 315 of
    # the line star, on the 230 rows of Z_1, are reduced
    calls = _record_h0_dimension(monkeypatch)
    reductions = _record_reductions(monkeypatch)
    report = compute_h0(4, 2, 2)
    assert calls == []
    assert reductions == [(315, 230 - 15)]
    assert report.to_json() == h0_dimension(build_Z(4, 2, 2)).to_json()


# every tier-1 compute row with n >= 3 and R >= 2
@pytest.mark.parametrize("n,q,radius", [(3, 2, 2), (3, 2, 3), (3, 3, 2), (3, 3, 4), (4, 2, 2)])
def test_compute_h0_certifies_every_shell_row(n, q, radius, monkeypatch):
    calls = _record_h0_dimension(monkeypatch)
    report = compute_h0(n, q, radius)
    assert calls == []
    assert report.to_json() == h0_dimension(build_Z(n, q, radius)).to_json()


def test_compute_h0_checks_that_the_shells_start_at_c01(monkeypatch):
    real = homology.closed_form_dims

    def shifted(n, q, radius, ball_edges=None):
        dim_c0, dim_c1 = real(n, q, radius, ball_edges)
        return (dim_c0 + 1 if radius == 1 else dim_c0), dim_c1

    monkeypatch.setattr(homology, "closed_form_dims", shifted)
    with pytest.raises(InvariantError, match=r"the shell rows start at 230, but C0\(Z_1\) is 231"):
        compute_h0(4, 2, 2)


def test_compute_h0_rejects_a_column_on_z1_that_phi_does_not_kill(monkeypatch):
    # Z_R's first rows are Z_1's, and Phi is nonzero on row 0, so a unit
    # column there lifts the rank on Z_1 above c01 - (n^2 - 1) = 230 - 15
    z = build_Z(4, 2, 1)
    assert any(depth_one_witness(z, block_index(z)).col(0))
    real = homology.boundary_columns

    def one_more(z, index):
        yield from real(z, index)
        yield {0: 1}

    monkeypatch.setattr(homology, "boundary_columns", one_more)
    with pytest.raises(InvariantError, match="cokernel dimension 14 fell below the guaranteed floor 15"):
        compute_h0(4, 2, 2)


@pytest.mark.parametrize("n,q,radius", [(2, 3, 2), (2, 2, 3), (3, 3, 1)])
def test_compute_h0_skips_a_sub_boundary_with_every_column(n, q, radius, monkeypatch):
    # certificate_edges drops the origin's slot-free edges here, but keeps
    # every column, so only the full boundary is reduced
    assert len(certificate_edges(n, radius)) < len(standard_ball(n, radius)[1])
    calls = _record_h0_dimension(monkeypatch)
    report = compute_h0(n, q, radius)
    [(z, full)] = calls
    assert z.ball_edges is None
    assert report == full
