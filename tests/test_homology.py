import random
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conghom import homology
from conghom.building import EdgeRep, VertexRep, build_Z, enumerate_flag_reps, vertex_label
from conghom.errors import InvariantError
from conghom.gf import GF, DenseMatrix, SparseMatrix, inverse, reduce_columns, rref, sparse_rank
from conghom.homology import (
    assemble_boundary,
    block_index,
    boundary_columns,
    closed_form_dims,
    edge_inclusion,
    h0_dimension,
)
from conghom.poly import Poly, PolyMatrix, lattice_label
from conghom.wedge import BoundProfile, bound_profile, h1_basis, standard_ball, surviving_degrees
from reference import (GroupElement, class_vector, conjugate_by, depth_one_witness, elementary,
                       group_mul, membership, witness_defects)

F2 = GF(2)
F3 = GF(3)


def profile(n, upper):
    return BoundProfile.from_upper_bounds(n, upper)


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
    assert membership(p, elementary(1, 3, Poly.monomial(F2, 3), 3))
    assert not membership(p, elementary(1, 3, Poly.monomial(F2, 4), 3))
    assert not membership(p, elementary(2, 1, Poly.monomial(F2, 1), 3))
    assert not membership(p, elementary(1, 2, Poly.one(F2), 3))  # constant term


def test_class_vector_examples():
    p = profile(3, [1, 1, 3])
    basis = h1_basis(p)
    assert [(s.i, s.j, s.degree) for s in basis.slots] == [
        (1, 2, 1), (1, 3, 1), (1, 3, 3), (2, 3, 1)]
    # nonzero exactly at the surviving corner slot of degree three
    assert class_vector(basis, elementary(1, 3, Poly.monomial(F2, 3), 3)) == (0, 0, 1, 0)
    assert class_vector(basis, elementary(1, 3, Poly.monomial(F2, 2), 3)) == (0, 0, 0, 0)
    g = elementary(1, 2, Poly.monomial(F3, 1, 2), 3)
    basis3 = h1_basis(p)
    assert class_vector(basis3, g) == (2, 0, 0, 0)


def test_class_vector_rejects_non_member():
    basis = h1_basis(profile(3, [1, 1, 3]))
    with pytest.raises(ValueError):
        class_vector(basis, elementary(2, 1, Poly.monomial(F2, 1), 3))


def random_member(rng, prof, field):
    n = prof.n
    rows = [[Poly.one(field) if i == j else Poly.zero(field) for j in range(n)]
            for i in range(n)]
    for (i, j) in prof.upper_pairs():
        cap = prof.b[(i, j)]
        if cap >= 1:
            coeffs = [0] + [rng.randrange(field.p) for _ in range(cap)]
            rows[i - 1][j - 1] = Poly(field, coeffs)
    return GroupElement(PolyMatrix(field, rows))


def test_class_vector_is_homomorphism():
    rng = random.Random(40)
    for n in (2, 3):
        verts, edges = standard_ball(n, 3)
        simplices = [[v] for v in verts] + [list(e) for e in edges]
        for field in (F2, F3):
            for simplex in simplices:
                prof = bound_profile(simplex)
                basis = h1_basis(prof)
                if basis.dim == 0:
                    continue
                for _ in range(200):
                    u = random_member(rng, prof, field)
                    v = random_member(rng, prof, field)
                    uv = group_mul(u, v)
                    assert membership(prof, uv)
                    expected = tuple(
                        (a + b) % field.p
                        for a, b in zip(class_vector(basis, u), class_vector(basis, v))
                    )
                    assert class_vector(basis, uv) == expected


def test_edge_inclusion_identity_flags():
    ident = DenseMatrix.identity(F2, 3)
    mat = edge_inclusion((ident, ((1, 0), (1, 1))), (ident, (1, 0)))
    # edge slot (1,3,1) lands on vertex slot (1,3,1) with coefficient one
    assert (mat.rows, mat.cols) == (2, 1)
    assert mat.col(0) == (0, 1)
    mat = edge_inclusion((ident, ((1, 0), (1, 1))), (ident, (1, 1)))
    assert (mat.rows, mat.cols) == (2, 1)
    assert mat.col(0) == (1, 0)


def test_edge_inclusion_deeper_slot_killed():
    # edge {(2,1),(2,2)}: slots (1,3,1),(1,3,2),(2,3,1)
    ident = DenseMatrix.identity(F2, 3)
    edge = (ident, ((2, 1), (2, 2)))
    basis_e = h1_basis(bound_profile([(2, 1), (2, 2)]))
    assert [(s.i, s.j, s.degree) for s in basis_e.slots] == [
        (1, 3, 1), (1, 3, 2), (2, 3, 1)]

    into_22 = edge_inclusion(edge, (ident, (2, 2)))
    # vertex (2,2) keeps all three identically inside its four slots
    basis_v = h1_basis(bound_profile([(2, 2)]))
    assert [(s.i, s.j, s.degree) for s in basis_v.slots] == [
        (1, 3, 1), (1, 3, 2), (2, 3, 1), (2, 3, 2)]
    assert into_22.to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]

    into_21 = edge_inclusion(edge, (ident, (2, 1)))
    # vertex (2,1) kills the degree-two class at the corner
    basis_v = h1_basis(bound_profile([(2, 1)]))
    assert [(s.i, s.j, s.degree) for s in basis_v.slots] == [
        (1, 2, 1), (1, 3, 1), (2, 3, 1)]
    assert into_21.to_rows() == [[0, 0, 0], [1, 0, 0], [0, 0, 1]]


def test_edge_inclusion_permuted_vertex_labels():
    # the swap of the last two coordinates carries the standard (2,2) and
    # (2,1) vertices to the lattices [t^2 e1, e2, t^2 e3] and [t^2 e1, e2, t e3]
    w = DenseMatrix.from_rows(F2, [(1, 0, 0), (0, 0, 1), (0, 1, 0)])  # det = 1 over GF(2)
    lbl_v = vertex_label(w, (2, 2))
    direct = lattice_label(PolyMatrix.diagonal_powers(F2, [2, 0, 2]))
    assert lbl_v == direct
    lbl_vp = vertex_label(w, (2, 1))
    direct = lattice_label(PolyMatrix.diagonal_powers(F2, [2, 0, 1]))
    assert lbl_vp == direct
    mat = edge_inclusion((w, ((2, 1), (2, 2))), (w, (2, 2)))
    assert mat.to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_edge_inclusion_requires_endpoint():
    ident = DenseMatrix.identity(F2, 3)
    with pytest.raises(ValueError):
        edge_inclusion((ident, ((1, 0), (1, 1))), (ident, (2, 2)))


def test_edge_inclusion_into_origin_is_empty():
    ident = DenseMatrix.identity(F2, 3)
    mat = edge_inclusion((ident, ((0, 0), (1, 0))), (ident, (0, 0)))
    assert (mat.rows, mat.cols) == (0, 0)


def _reference_inclusion(edge_rep, vertex_rep):
    # the polynomial route: conjugate each edge generator by W = s_v^-1 s_e,
    # check membership and read the class vector in the vertex basis
    s_e, simplex = edge_rep
    s_v, rv = vertex_rep
    field, n = s_e.field, s_e.rows
    w = inverse(s_v) @ s_e
    vert_basis = h1_basis(bound_profile([rv]))
    cols = []
    for s in h1_basis(bound_profile(list(simplex))).slots:
        u = conjugate_by(elementary(s.i, s.j, Poly.monomial(field, s.degree), n), w)
        assert membership(vert_basis.profile, u)
        cols.append(class_vector(vert_basis, u))
    return [[col[a] for col in cols] for a in range(vert_basis.dim)]


def test_assembled_column_weight_radius_two():
    # through radius 2 every edge class lands in at least one endpoint, and
    # every constant-matrix inclusion matches the polynomial reference
    for z in (build_Z(3, 2, 2), build_Z(3, 3, 1), build_Z(4, 2, 1), build_Z(3, 3, 2),
              build_Z(3, 7, 1)):
        for pair, erep in z.edges.items():
            basis = h1_basis(bound_profile(list(erep.simplex)))
            if basis.dim == 0:
                continue
            mats = []
            for key in pair:
                vrep = z.vertices[key]
                edge_rep = (erep.flag, erep.simplex)
                vertex_rep = (vrep.flag, vrep.vertex)
                mat = edge_inclusion(edge_rep, vertex_rep)
                assert mat.to_rows() == _reference_inclusion(edge_rep, vertex_rep)
                mats.append(mat)
            for b in range(basis.dim):
                weight = sum(1 for m in mats for a in range(m.rows) if m.get(a, b))
                assert weight >= 1


def test_endpoint_criterion_matches_vertex_labels():
    # edge_inclusion accepts (s', r) as an endpoint of (s, edge) exactly when
    # s^-1 s' lies in the parabolic of r, i.e. when the HNF labels agree
    rng = random.Random(2024)
    for n, q, radius in ((3, 2, 2), (3, 3, 2), (4, 2, 1)):
        reps = enumerate_flag_reps(n, GF(q))
        verts, edges = standard_ball(n, radius)
        label = {(s, r): vertex_label(s, r).key() for s in reps for r in verts}
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
                edge_inclusion((s, edge), (sp, r))
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
    del edges[next(pair for pair, rep in z.edges.items()
                   if h1_basis(bound_profile(list(rep.simplex))).dim)]
    calls = _record_inclusions(monkeypatch)
    for entry in (assemble_boundary, h0_dimension):
        with pytest.raises(InvariantError, match="partial-flag counts give 28 and 21"):
            entry(z._replace(edges=edges))
    assert calls == []


def _record_inclusions(monkeypatch):
    # each _inclusion call's (W entries, simplex, r_v), listed before the call runs
    calls = []
    real = homology._inclusion

    def recording(w, w_inv, simplex, edge_basis, rv, vert_basis):
        calls.append((w.entries, simplex, rv))
        return real(w, w_inv, simplex, edge_basis, rv, vert_basis)

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
    flag_pairs = [(z.vertices[key].flag.entries, rep.flag.entries)
                  for pair, rep in z.edges.items()
                  if h1_basis(bound_profile(list(rep.simplex))).dim for key in pair]
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


@given(st.data())
def test_packed_product_is_the_flag_pair_product(data):
    # W = s_v^-1 s_e from s_v^-1's packed columns, column-major, for random
    # flag pairs, and the same product for matrices drawn with entries of
    # p - 1, whose slot sums n (p-1)^2 are the largest a slot must hold;
    # one unpack memo serves every product of a field and size
    n = data.draw(st.sampled_from([2, 3, 4]))
    q = data.draw(st.sampled_from([2, 3, 5, 7, 257]))
    field = GF(q)
    bits = homology._slot_bits(n, q)
    unpack = {}
    if q ** n <= 81 and data.draw(st.booleans()):
        reps = _flag_reps(n, q)
        a, b = inverse(data.draw(st.sampled_from(reps))), data.draw(st.sampled_from(reps))
    else:
        entry = st.one_of(st.just(q - 1), st.integers(0, q - 1))
        a, b = (DenseMatrix(field, n, n, data.draw(st.lists(entry, min_size=n * n,
                                                             max_size=n * n)))
                for _ in range(2))
    full = DenseMatrix(field, n, n, [q - 1] * (n * n))
    for x, y in ((a, b), (full, full), (full, b)):
        packed = homology._pack_columns(x.entries, n, bits)
        assert homology._packed_product(packed, y.entries, unpack, bits, q) == (
            (x @ y).transpose().entries)


@cache
def _flag_reps(n, q):
    return enumerate_flag_reps(n, GF(q))


@pytest.mark.parametrize("n,q,radius,entry", _through_both_entry_points([(3, 2, 2), (3, 3, 1)]))
def test_swapped_vertex_flag_fails_endpoint_check_past_filled_cache(monkeypatch, n, q, radius,
                                                                    entry):
    # give the vertex reached last by a coefficient-bearing edge the flag of
    # another partial flag of its wedge vertex: its first edge must fail the
    # endpoint check, although earlier edges cached that simplex and r_v
    z = build_Z(n, q, radius)
    first_edge = {}
    for idx, (pair, rep) in enumerate(z.edges.items()):
        if h1_basis(bound_profile(list(rep.simplex))).dim:
            for key in pair:
                first_edge.setdefault(key, idx)
    target = max(first_edge, key=first_edge.get)
    donor = next(key for key in z.vertices if key != target and key[0] == target[0])
    swapped = z._replace(vertices={**z.vertices,
                                   target: VertexRep(flag=z.vertices[donor].flag,
                                                     vertex=target[0])})
    calls = _record_inclusions(monkeypatch)
    with pytest.raises(ValueError, match="vertex is not an endpoint of the edge"):
        entry(swapped)
    failed = calls.pop()
    assert failed[2] == target[0]
    assert failed[1:] in {call[1:] for call in calls}


def test_compute_path_builds_no_whole_boundary(monkeypatch):
    # h0_dimension reduces the column stream and never holds the boundary
    built = []
    real = SparseMatrix.__init__

    def recording(self, field, rows, cols, triples=()):
        built.append((rows, cols))
        real(self, field, rows, cols, triples)

    monkeypatch.setattr(SparseMatrix, "__init__", recording)
    z = build_Z(4, 2, 2)
    assert h0_dimension(z).dim_h0 == 15
    assert built == []
    assemble_boundary(z)
    assert built == [(2265, 11045)]


@pytest.mark.parametrize("n,q,radius,rank,basis_nnz", [(3, 3, 4, 1864, 3735),
                                                       (4, 2, 2, 2250, 4773)])
def test_boundary_stream_reduces_to_pinned_basis(n, q, radius, rank, basis_nnz):
    # pins the column order (z.edges, then slots) and the largest-row pivot:
    # reversed columns leave 4,951 and 8,533 basis nonzeros, and the
    # smallest-row pivot 5,204 and 8,556, after 20 to 57 times as many
    # column subtractions
    z = build_Z(n, q, radius)
    basis = reduce_columns(z.field, boundary_columns(z, block_index(z)))
    assert all(max(column) == pivot and column[pivot] == 1 for pivot, column in basis.items())
    assert (len(basis), sum(map(len, basis.values()))) == (rank, basis_nnz)


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
    # every edge re-oriented: its key pair swapped and its simplex reversed with it
    return z._replace(edges={(kb, ka): EdgeRep(flag=rep.flag, simplex=rep.simplex[::-1])
                             for (ka, kb), rep in z.edges.items()})


def test_h0_dimension_invariances():
    for q in (2, 3):
        z = build_Z(3, q, 1)
        reversed_z = _reversed_edges(z)
        boundary, _ = assemble_boundary(z)
        reversed_boundary, _ = assemble_boundary(reversed_z)
        assert reversed_boundary.triples() == [(r, c, -v % q) for r, c, v in boundary.triples()]
        assert h0_dimension(reversed_z).to_json() == h0_dimension(z).to_json()


@pytest.mark.parametrize("n,q,radius", [(3, 3, 2), (4, 2, 1), (3, 7, 1), (3, 3, 4), (4, 2, 2),
                                         (4, 3, 1)])
def test_assembled_boundary_matches_edge_inclusion_blocks(n, q, radius):
    # every edge column is +edge_inclusion into the first endpoint of its key
    # pair and -edge_inclusion into the second, at the BlockIndex offsets
    z = build_Z(n, q, radius)
    boundary, index = assemble_boundary(z)
    row_offset = {key: off for key, off, _ in index.vertex_blocks}
    expected = []
    for pair, off, basis in index.edge_blocks:
        erep = z.edges[pair]
        for key, sign in ((pair[0], 1), (pair[1], -1)):
            vrep = z.vertices[key]
            mat = edge_inclusion((erep.flag, erep.simplex), (vrep.flag, vrep.vertex))
            assert mat.cols == basis.dim
            expected += [(row_offset[key] + a, off + b, sign * mat.get(a, b) % q)
                         for a in range(mat.rows) for b in range(mat.cols) if mat.get(a, b)]
    assert boundary.triples() == sorted(expected)


@pytest.mark.parametrize("n,q,radius", [(3, 2, 1), (3, 3, 2), (3, 3, 4), (4, 2, 2), (3, 7, 1),
                                         (4, 3, 1), (2, 3, 3)])
def test_depth_one_witness_certifies_the_floor(n, q, radius):
    # Phi kills every boundary column and has rank n^2 - 1, so
    # rank boundary <= dim C0 - (n^2 - 1): the floor as a fact of this matrix
    z = build_Z(n, q, radius)
    boundary, index = assemble_boundary(z)
    phi = depth_one_witness(z, index)
    assert (phi.rows, phi.cols) == (n * n, index.dim_c0)
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
        block = SparseMatrix(boundary.field, len(rows), len(cols),
                             [(rows[r], cols[c], v) for r, c, v in boundary.triples()
                              if r in rows])
        rank = sparse_rank(block)
        assert rank == rref(block.densify())[0]
        h0[d] = len(rows) - rank
    assert sum(h0.values()) == index.dim_c0 - sparse_rank(boundary)
    assert h0 == h0_by_degree
