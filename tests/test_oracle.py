import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conghom import oracle
from conghom.errors import InvariantError, OracleLimitError
from conghom.oracle import (
    FiniteGroupTable,
    _closure,
    _Packing,
    abelianization_dim,
    adjacency_oracle,
    commutator_subgroup,
    expected_order_exponent,
    generate_group,
    profile_generators,
    verify_h1_formula,
)
from conghom.wedge import BoundProfile, adjacency, bound_profile, h1_basis, standard_ball
from reference import (Poly, adjacency_lattice, elementary, trunc_from_group_element,
                       trunc_identity, trunc_inverse, trunc_mul)



def profile(n, upper):
    return BoundProfile.from_upper_bounds(n, upper)


def _group_for(prof, p, limit=2 ** 20):
    gens = profile_generators(prof)
    return generate_group(gens, p, limit)


def _group_of(elements, m, limit=2 ** 20):
    """generate_group on GroupElements, each truncated mod t^m."""
    gens = [trunc_from_group_element(g, m) for g in elements]
    return generate_group(gens, elements[0].p, limit)


def test_generate_group_single_involution():
    tbl = _group_of([elementary(1, 2, Poly.monomial(2, 1), 3)], m=2)
    assert tbl.order == 2


def test_profile_generators_are_the_truncated_elementaries():
    prof = profile(3, [2, 1, 3])
    m = 1 + prof.max_bound()
    want = [trunc_from_group_element(elementary(i, j, Poly.monomial(2, r), 3), m)
            for (i, j), cap in prof.b.items() for r in range(1, cap + 1)]
    assert profile_generators(prof) == want
    assert len(want) == 6 and all(len(entry) == m == 4 for g in want for entry in g)


def test_generate_group_orders():
    assert _group_for(profile(3, [1, 1, 2]), 2).order == 16
    assert _group_for(profile(3, [2, 1, 3]), 2).order == 64


def test_generate_group_limit():
    gens = profile_generators(profile(3, [2, 1, 3]))
    assert {len(entry) for g in gens for entry in g} == {4}  # m = 4
    with pytest.raises(OracleLimitError):
        generate_group(gens, 2, limit=4)


def test_generate_group_requires_a_generator():
    with pytest.raises(ValueError, match="at least one context element is required"):
        generate_group([], 2)


def test_generate_group_rejects_constant_part():
    with pytest.raises(ValueError):
        _group_of([elementary(1, 2, Poly.one(2), 3)], m=2)


def test_generate_group_rejects_mixed_shapes():
    g = trunc_from_group_element(elementary(1, 2, Poly.monomial(2, 1), 3), 2)
    deeper = trunc_from_group_element(elementary(2, 3, Poly.monomial(2, 1), 3), 3)
    for gens in ([g, deeper], [g, g[:4]]):
        with pytest.raises(ValueError, match="m coefficients"):
            generate_group(gens, 2)


def test_commutator_subgroup_abelian():
    tbl = _group_for(profile(3, [2, 0, 2]), 2)  # no middle entry: abelian
    assert commutator_subgroup(tbl).order == 1


def test_commutator_subgroup_112():
    tbl = _group_for(profile(3, [1, 1, 2]), 2)
    derived = commutator_subgroup(tbl)
    assert derived.order == 2
    # generated by the corner element of degree two
    corner = elementary(1, 3, Poly.monomial(2, 2), 3)
    ring = _Packing(tbl.n, tbl.m, tbl.p)
    assert ring.pack(trunc_from_group_element(corner, tbl.m)) in derived.elements


def test_pack_unpack_round_trips_at_every_slot_width():
    # width = (n*m*(p-1)^2).bit_length(): 5 bits at p = 3, 19 at 257, 35 at 65537
    for p, width in ((3, 5), (257, 19), (65537, 35)):
        top = p - 1
        a = ((1, top), (0, top - 1), (top, 0), (1, 0))
        ring = _Packing(2, 2, p)
        assert ring.width == width
        x = ring.pack(a)
        assert x[0] == 1 | top << width and x[2] == top
        assert ring.unpack(x) == a
        assert ring.pack(ring.unpack(x)) == x


@st.composite
def _packed_case(draw):
    """(n, m, p, a, b, u): u is a with the identity's constant term.

    Each column of a and b is a unit vector e_k or holds coefficients
    drawn with p-1, the slot-width worst case, as likely as 0; the
    all-(p-1) matrix and the identity are drawn as whole factors.
    """
    p = draw(st.sampled_from([2, 3, 5, 257]))
    n = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(1, 4))
    coeff = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    unit = tuple(int(d == 0) for d in range(m))
    zero = (0,) * m

    def column():
        k = draw(st.one_of(st.none(), st.integers(0, n - 1)))
        if k is not None:
            return [unit if i == k else zero for i in range(n)]
        return [draw(st.tuples(*[coeff] * m)) for _ in range(n)]

    def matrix():
        kind = draw(st.sampled_from(["columns", "full", "identity"]))
        if kind == "full":
            return ((p - 1,) * m,) * (n * n)
        if kind == "identity":
            return trunc_identity(n, m)
        cols = [column() for _ in range(n)]
        return tuple(cols[j][i] for i in range(n) for j in range(n))

    a, b = matrix(), matrix()
    u = tuple((int(e % (n + 1) == 0),) + c[1:] for e, c in enumerate(a))
    return n, m, p, a, b, u


@given(_packed_case(), st.integers(1, 12))
@example((2, 1, 2, ((1,),) * 4, ((1,),) * 4, ((1,), (0,), (0,), (1,))), 2)  # 1+1 = p
@example((4, 4, 257, ((256,) * 4,) * 16, ((256,) * 4,) * 16,
          tuple((int(e % 5 == 0), 256, 256, 256) for e in range(16))), 12)
def test_packed_arithmetic_matches_reference(case, e):
    n, m, p, a, b, u = case
    ring = _Packing(n, m, p)
    unpack = ring.unpack
    pa, pb, pu = ring.pack(a), ring.pack(b), ring.pack(u)
    assert unpack(pa) == a
    assert unpack(ring.mul(pa, pb)) == trunc_mul(a, b, n, m, p)
    inv = ring.inverse(pu)
    assert unpack(inv) == trunc_inverse(u, n, m, p)
    assert ring.mul(pu, inv) == ring.mul(inv, pu) == ring.identity
    power = u
    for _ in range(e - 1):
        power = trunc_mul(power, u, n, m, p)
    assert unpack(ring.power(pu, e)) == power


@given(_packed_case())
@example((4, 4, 257, ((256,) * 4,) * 16, ((256,) * 4,) * 16,
          tuple((int(e % 5 == 0), 256, 256, 256) for e in range(16))))
def test_fixed_factor_product_matches_mul(case):
    n, m, p, a, b, u = case
    ring = _Packing(n, m, p)
    pa, pb, pu = ring.pack(a), ring.pack(b), ring.pack(u)
    times_b = ring.mul_by(pb)
    # one fixed factor serves every left factor
    for x, tx in ((pa, a), (pu, u), (pb, b), (ring.identity, trunc_identity(n, m))):
        assert times_b(x) == ring.mul(x, pb) == ring.pack(trunc_mul(tx, b, n, m, p))


@st.composite
def _elementary_case(draw):
    """(n, m, p, i, j, c, r): the elementary I + c t^r E_ij mod t^m, i != j, 1 <= r < m."""
    p = draw(st.sampled_from([2, 3, 5, 257]))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 4))
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    c = draw(st.one_of(st.just(p - 1), st.integers(1, p - 1)))
    return n, m, p, i, j, c, draw(st.integers(1, m - 1))


def _counting_products(monkeypatch):
    """Counts every product formed through _Packing.mul_by, mul included."""
    real = _Packing.mul_by
    count = [0]

    def mul_by(self, b):
        times = real(self, b)

        def counted(x):
            count[0] += 1
            return times(x)
        return counted

    monkeypatch.setattr(_Packing, "mul_by", mul_by)
    return count


@given(_packed_case(), _elementary_case())
def test_early_stopping_inverse(case, elem):
    n, m, p, _, _, u = case
    ring = _Packing(n, m, p)
    pu = ring.pack(u)
    inv = ring.inverse(pu)
    assert ring.mul(pu, inv) == ring.mul(inv, pu) == ring.identity
    assert inv == ring.pack(trunc_inverse(u, n, m, p))

    n, m, p, i, j, c, r = elem
    ring = _Packing(n, m, p)
    g = ring.pack(trunc_from_group_element(elementary(i, j, Poly.monomial(p, r, c), n), m))
    with pytest.MonkeyPatch.context() as mp:
        products = _counting_products(mp)
        inv = ring.inverse(g)
    assert products[0] == 1  # d^2 = 0 for d = -c t^r E_ij
    assert ring.mul(g, inv) == ring.mul(inv, g) == ring.identity


def test_inverse_rejects_a_matrix_that_is_not_unipotent_mod_t():
    ring = _Packing(2, 2, 3)
    with pytest.raises(ValueError, match="identity mod t"):
        ring.inverse(ring.pack(((2, 0), (0, 0), (0, 0), (2, 0))))  # -I


def test_power_check_squares_and_multiplies(monkeypatch):
    # g^257 is 8 squarings and one product: 9 products per generator, not 256,
    # and the one generator is the only element whose power is checked
    tbl = _group_for(bound_profile([(1,)]), 257)
    assert tbl.order == 257
    mul, power = _Packing.mul, _Packing.power
    products = [0]
    calls = []

    def counting_mul(self, a, b):
        products[0] += 1
        return mul(self, a, b)

    def counting_power(self, x, e):
        start = products[0]
        result = power(self, x, e)
        calls.append((e, products[0] - start))
        return result

    monkeypatch.setattr(_Packing, "mul", counting_mul)
    monkeypatch.setattr(_Packing, "power", counting_power)
    assert abelianization_dim(tbl) == 1
    assert calls == [(257, 9)]


def test_commutator_subgroup_213():
    tbl = _group_for(profile(3, [2, 1, 3]), 2)
    assert commutator_subgroup(tbl).order == 4  # degrees two and three at the corner


def _reference_commutator_subgroup(tbl):
    """Closure of all pairwise commutators; normality is asserted.

    Works on coefficient tuples throughout and packs only the table it returns.
    """
    n, m, p = tbl.n, tbl.m, tbl.p
    ring = _Packing(n, m, p)
    elems = sorted(map(ring.unpack, tbl.elements))
    inv = {x: trunc_inverse(x, n, m, p) for x in elems}

    comms = set()
    for x in elems:
        for y in elems:
            comms.add(trunc_mul(trunc_mul(x, y, n, m, p),
                                trunc_mul(inv[x], inv[y], n, m, p), n, m, p))

    gens = sorted(comms)
    seen = {trunc_identity(n, m)}
    frontier = [trunc_identity(n, m)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = trunc_mul(x, g, n, m, p)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt

    for g in elems:
        for h in seen:
            conj = trunc_mul(trunc_mul(g, h, n, m, p), inv[g], n, m, p)
            if conj not in seen:
                raise InvariantError("commutator subgroup is not normal")

    return FiniteGroupTable(
        n=n, m=m, p=p,
        elements=frozenset(map(ring.pack, seen)),
        generators=tuple(map(ring.pack, gens)),
    )


def test_commutator_subgroup_matches_all_pairs_reference():
    checked = 0
    for n, q, radius in ((3, 2, 2), (4, 2, 1), (2, 3, 4), (2, 5, 3), (3, 3, 2)):
        verts, edges = standard_ball(n, radius)
        for simplex in [[v] for v in verts] + [list(e) for e in edges]:
            prof = bound_profile(simplex)
            if not profile_generators(prof):
                continue
            tbl = _group_for(prof, q)
            derived = commutator_subgroup(tbl)
            assert derived.elements == _reference_commutator_subgroup(tbl).elements, (
                n, q, simplex)
            checked += 1
    assert checked == 42


@pytest.mark.parametrize("q, order, derived_order, unconjugated_order",
                         [(2, 64, 8, 4), (3, 729, 27, 9)])
def test_commutator_subgroup_needs_conjugation(q, order, derived_order,
                                               unconjugated_order):
    # <I+tE12, I+tE23, I+tE34> mod t^4: the generator commutators
    # I+t^2E13 and I+t^2E24 close to an abelian group of order q^2 that is
    # not normal; conjugating by g3 or g1 adds the corner I+t^3E14.
    gens = [elementary(i, i + 1, Poly.monomial(q, 1), 4) for i in (1, 2, 3)]
    tbl = _group_of(gens, m=4)
    assert tbl.order == order
    derived = commutator_subgroup(tbl)
    assert derived.order == derived_order
    if q == 2:  # the all-pairs reference needs |G|^2 products: minutes at 729
        assert derived.elements == _reference_commutator_subgroup(tbl).elements
    ring = _Packing(4, 4, q)
    assert len(_closure(list(derived.generators), [], ring, tbl.order)) == unconjugated_order


def test_abelianization_dims():
    assert abelianization_dim(_group_for(profile(3, [1, 1, 3]), 2)) == 4
    assert abelianization_dim(_group_for(profile(3, [1, 1, 2]), 2)) == 3
    trivial = _group_of([elementary(1, 2, Poly.monomial(2, 1), 3)], m=1)
    assert abelianization_dim(trivial) == 0


def test_abelianization_rejects_a_generator_whose_square_is_not_in_g_prime():
    # g = I + tE12 + tE23 over F_2 mod t^3: <g> is cyclic of order 4, so
    # G' = {I}, but g^2 = I + t^2 E13
    one, t, zero = (1, 0, 0), (0, 1, 0), (0, 0, 0)
    g = (one, t, zero, zero, one, t, zero, zero, one)
    tbl = generate_group([g], 2)
    assert tbl.order == 4
    with pytest.raises(InvariantError, match="not elementary abelian") as err:
        abelianization_dim(tbl)
    # the witness is the offending generator, written as its coefficients
    assert f"witness {g}" in str(err.value)


def _lower_corner(m):
    """I + t E31 over F_2 mod t^m, packed: no table of upper caps holds it."""
    g = list(trunc_identity(3, m))
    g[6] = (0, 1) + (0,) * (m - 2)
    return _Packing(3, m, 2).pack(tuple(g))


def test_generate_group_rejects_a_closure_whose_order_is_not_a_power_of_p(monkeypatch):
    # a closure of 3 elements at p = 2 cannot be a p-group
    closure = oracle._closure
    monkeypatch.setattr(oracle, "_closure", lambda *args: closure(*args) | {_lower_corner(2)})
    gens = profile_generators(profile(3, [1, 0, 0]))
    with pytest.raises(InvariantError, match="closure order is not a power of the characteristic"):
        generate_group(gens, 2)


def test_commutator_subgroup_rejects_a_closure_outside_the_group(monkeypatch):
    tbl = _group_for(profile(3, [1, 1, 1]), 2)
    monkeypatch.setattr(oracle, "_closure", lambda *args: {_lower_corner(tbl.m)})
    with pytest.raises(InvariantError, match="commutator subgroup leaves the group"):
        commutator_subgroup(tbl)


def test_abelianization_rejects_an_order_that_is_not_a_power_of_p():
    # one foreign element makes the order-8 table 9 elements over G' = {I}
    tbl = _group_for(profile(3, [1, 1, 1]), 2)
    assert tbl.order == 8
    tbl = tbl._replace(elements=tbl.elements | {_lower_corner(tbl.m)})
    with pytest.raises(InvariantError, match="abelianization order is not a power of p"):
        abelianization_dim(tbl)


def test_verify_h1_formula_rejects_an_order_off_the_coefficient_count(monkeypatch):
    monkeypatch.setattr(oracle, "expected_order_exponent",
                        lambda prof: expected_order_exponent(prof) + 1)
    with pytest.raises(InvariantError, match="enumerated order disagrees"):
        verify_h1_formula(profile(3, [1, 1, 1]), 2)


def test_verify_h1_formula_examples():
    assert verify_h1_formula(profile(3, [1, 1, 3]), 2)
    assert verify_h1_formula(bound_profile([(1, 0)]), 3)
    # both sides are 2: the group is q^2 elements and abelian
    tbl = _group_for(bound_profile([(1, 0)]), 3)
    assert tbl.order == 9
    assert commutator_subgroup(tbl).order == 1
    assert abelianization_dim(tbl) == 2 == h1_basis(bound_profile([(1, 0)])).dim


def test_order_formula_and_slot_agreement_sweep():
    verts, edges = standard_ball(3, 2)
    simplices = [[v] for v in verts] + [list(e) for e in edges]
    for p in (2, 3):
        for simplex in simplices:
            prof = bound_profile(simplex)
            tbl = _group_for(prof, p) if profile_generators(prof) else None
            if tbl is not None:
                assert tbl.order == p ** expected_order_exponent(prof)
                assert abelianization_dim(tbl) == h1_basis(prof).dim
            else:
                assert h1_basis(prof).dim == 0


def test_adjacency_oracle_examples():
    assert adjacency_oracle((0, 0), (1, 0))
    assert adjacency_oracle((1, 0), (1, 1))
    assert not adjacency_oracle((2, 1), (0, 0))
    assert not adjacency_oracle((1, 0), (1, 0))


def test_adjacency_oracle_rejects_bad_vertices():
    with pytest.raises(ValueError, match="vertices of different dimension"):
        adjacency_oracle((1,), (1, 0))
    with pytest.raises(ValueError, match="not standard vertices"):
        adjacency_oracle((0, 1), (1, 0))


@pytest.mark.parametrize("n, radius, adjacent", [(2, 5, 5), (3, 3, 18), (4, 2, 25)])
def test_cached_adjacency_oracle_matches_lattice_route(n, radius, adjacent):
    verts, _ = standard_ball(n, radius)
    found = 0
    for a in verts:
        for b in verts:
            got = adjacency_oracle(a, b)
            assert got == adjacency_lattice(a, b), (a, b)
            found += got
    assert found == 2 * adjacent


def test_adjacency_oracle_agrees_with_rule():
    for n in (2, 3, 4):
        verts, _ = standard_ball(n, 3)
        for idx, a in enumerate(verts):
            for b in verts[idx:]:
                assert adjacency(a, b) == adjacency_oracle(a, b), (a, b)
