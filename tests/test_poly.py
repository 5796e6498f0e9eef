import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conghom import poly
from conghom.poly import column_hnf, label_hex, lattice_contains, lattice_label, poly_divmod
from reference import (Poly, PolyMatrix, poly_const, polymat_adjugate, polymat_det,
                       ref_column_hnf, ref_lattice_contains, ref_lattice_label, ref_poly_divmod)

T = (0, 1)


def P(p, *coeffs):
    return Poly(p, coeffs)


def E_plus_I(p, n, i, j, poly):
    """I + E_ij(poly), 1-based."""
    m = [[Poly.one(p) if r == c else Poly.zero(p) for c in range(n)] for r in range(n)]
    m[i - 1][j - 1] = poly
    return PolyMatrix(p, m)


def _tuples(m):
    """A reference PolyMatrix as rows of coefficient tuples."""
    return tuple(tuple(e.coeffs for e in row) for row in m.entries)


def _identity(n):
    return tuple(tuple((1,) if i == j else () for j in range(n)) for i in range(n))


def _diagonal(exps):
    """diag(t^e1, ..., t^en) as rows of coefficient tuples."""
    return _tuples(PolyMatrix.diagonal_powers(2, exps))


def test_poly_arith_examples():
    one_plus_t = P(2, 1, 1)
    assert one_plus_t * one_plus_t == P(2, 1, 0, 1)      # characteristic 2
    assert P(3, 0, 1, 2) * Poly.zero(3) == Poly.zero(3)
    assert P(3, 0, 1, 2) + P(3, 0, 2, 1) == Poly.zero(3)


def test_coefficient():
    assert P(2, 1, 0, 0, 1).coefficient(3) == 1
    assert P(2, 0, 1).coefficient(5) == 0
    assert P(3, 0, 2, 1).coefficient(1) == 2
    with pytest.raises(ValueError):
        P(2, 1).coefficient(-1)


def test_canonical_form():
    assert P(2, 1, 0, 0).coeffs == (1,)
    assert P(3, 0, 0, 0).is_zero()
    assert P(3, 4, 3).coeffs == (1,)  # reduced mod 3, trailing zero stripped
    # the tuple routines return that form: (t + 1) - 1*(t + 1) is (), not (0, 0)
    assert poly_divmod((1, 1), (1, 1), 3) == ((1,), ())
    assert poly_divmod((0, 0, 1), (0, 1), 2) == ((0, 1), ())


def test_divmod_random():
    rng = random.Random(10)
    for p in (2, 3, 5):
        for _ in range(100):
            a = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(8))])
            b = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            q, r = poly_divmod(a.coeffs, b.coeffs, p)
            assert Poly(p, q) * b + Poly(p, r) == a
            assert len(r) < len(b.coeffs)
            assert (Poly(p, q), Poly(p, r)) == ref_poly_divmod(a, b)


def test_divmod_of_a_lower_degree_dividend_is_zero_remainder_a(monkeypatch):
    # deg a < deg b: (0, a) at once, with no inverse of b's leading coefficient
    b = (1, 0, 2)
    with monkeypatch.context() as mp:
        mp.setattr(poly, "pow", lambda *args: pytest.fail("inverted a leading coefficient"),
                   raising=False)
        for a in ((), (2,), (1, 2)):
            assert poly_divmod(a, b, 3) == ((), a)
    # the zero-divisor check still comes first
    with pytest.raises(ZeroDivisionError):
        poly_divmod((), (), 3)
    # the mixed-prime check lives on with the Poly reference
    with pytest.raises(ValueError, match="mixed field"):
        ref_poly_divmod(Poly.zero(2), Poly(3, b))


def test_polymat_mul_examples():
    a = E_plus_I(2, 3, 1, 2, P(2, 0, 1))
    b = E_plus_I(2, 3, 2, 3, P(2, 0, 1))
    prod = a @ b
    assert prod.entries[0][1] == P(2, 0, 1)
    assert prod.entries[1][2] == P(2, 0, 1)
    assert prod.entries[0][2] == P(2, 0, 0, 1)   # t^2 through the corner
    sq = a @ a
    assert sq.entries[0][1] == Poly.zero(2)      # 2t = 0 over GF(2)
    assert a @ PolyMatrix.identity(2, 3) == a


def test_polymat_det_examples():
    assert polymat_det(PolyMatrix.identity(3, 4)) == Poly.one(3)
    assert polymat_det(E_plus_I(2, 3, 1, 2, P(2, 0, 0, 0, 0, 0, 1))) == Poly.one(2)
    assert polymat_det(PolyMatrix.diagonal_powers(2, [1, 1, 0])) == P(2, 0, 0, 1)


def test_adjugate_is_inverse_for_unimodular():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(20):
            m = _random_unimodular(rng, p, 3)
            assert m @ polymat_adjugate(m) == PolyMatrix.identity(p, 3)


def _random_unimodular(rng, p, n, steps=6):
    """Product of elementary column operations: always determinant one."""
    m = PolyMatrix.identity(p, n)
    for _ in range(steps):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            continue
        poly = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(4))])
        m = m @ E_plus_I(p, n, i, j, poly)
    return m


def _hnf_shape_ok(h):
    n = len(h)
    for i in range(n):
        for j in range(n):
            e = h[i][j]
            if i > j:
                assert e == ()
            elif i == j:
                assert e[-1] == 1
            elif e:
                # reduced against the pivot of its row
                assert len(e) < len(h[i][i])


def test_column_hnf_identity():
    assert column_hnf(_identity(3), 2) == _identity(3)


def test_column_hnf_small_example():
    # columns (t, 0) and (1, 1): already triangular, monic, reduced
    a = ((T, (1,)), ((), (1,)))
    h = column_hnf(a, 2)
    assert h == a
    # same span both ways
    assert lattice_contains(a, h, 2) and lattice_contains(h, a, 2)


def test_column_hnf_unimodular_invariance():
    rng = random.Random(12)
    for p in (2, 3):
        for _ in range(25):
            a = _random_poly_lattice_basis(rng, p, 3)
            u = _random_unimodular(rng, p, 3)
            h1 = column_hnf(_tuples(a), p)
            h2 = column_hnf(_tuples(a @ u), p)
            assert h1 == h2
            _hnf_shape_ok(h1)
            assert lattice_contains(h1, _tuples(a), p) and lattice_contains(_tuples(a), h1, p)


def _random_poly_lattice_basis(rng, p, n):
    """diag of t powers times a random unimodular: det = unit * t^k."""
    d = PolyMatrix.diagonal_powers(p, [rng.randrange(4) for _ in range(n)])
    return _random_unimodular(rng, p, n) @ d @ _random_unimodular(rng, p, n)


def test_column_hnf_singular_rejected():
    a = (((1,), (1,)), ((1,), (1,)))
    with pytest.raises(ValueError):
        column_hnf(a, 2)


def test_lattice_label_standard_basis():
    lbl = lattice_label(_identity(3), 2)
    assert lbl == _identity(3)
    assert [len(lbl[i][i]) - 1 for i in range(3)] == [0, 0, 0]


def test_lattice_label_same_lattice():
    # columns (te1, e2, e3) versus (te1, e2 + te1, e3)
    one = (1,)
    a = ((T, (), ()), ((), one, ()), ((), (), one))
    b = ((T, T, ()), ((), one, ()), ((), (), one))
    assert lattice_label(a, 2) == lattice_label(b, 2)


def test_lattice_label_scaling_invariance():
    rng = random.Random(13)
    for p in (2, 3):
        t = Poly.monomial(p, 1)
        for _ in range(20):
            a = _random_poly_lattice_basis(rng, p, 3)
            scaled = PolyMatrix(p, [[e * t for e in row] for row in a.entries])
            assert lattice_label(_tuples(a), p) == lattice_label(_tuples(scaled), p)
            c = rng.randrange(1, p)
            cs = poly_const(p, c)
            const_scaled = PolyMatrix(p, [[e * cs for e in row] for row in a.entries])
            assert lattice_label(_tuples(a), p) == lattice_label(_tuples(const_scaled), p)


def test_lattice_label_rejects_non_lattice():
    # det = 1 + t is not a unit times a power of t
    a = (((1, 1), ()), ((), (1,)))
    with pytest.raises(ValueError, match="commensurable"):
        lattice_label(a, 2)


def test_lattice_contains_examples():
    l0 = _identity(3)
    tl0 = _diagonal([1, 1, 1])
    assert lattice_contains(l0, tl0, 2)
    assert not lattice_contains(tl0, l0, 2)
    a = _diagonal([1, 0, 0])   # (te1, e2, e3)
    b = _diagonal([1, 1, 0])   # (te1, te2, e3)
    assert lattice_contains(a, b, 2)
    assert not lattice_contains(b, a, 2)


def test_mutual_containment_iff_equal_labels():
    rng = random.Random(14)
    p = 2
    basis = [_tuples(_random_poly_lattice_basis(rng, p, 3)) for _ in range(12)]
    for a in basis:
        for b in basis:
            both = lattice_contains(a, b, 2) and lattice_contains(b, a, 2)
            assert both == (column_hnf(a, 2) == column_hnf(b, 2))


def test_routines_reject_bad_shapes():
    one = (1,)
    with pytest.raises(ValueError, match="square"):
        column_hnf(((one, ()),), 2)
    with pytest.raises(ValueError, match="square"):
        lattice_label(((one,), (one,)), 2)
    with pytest.raises(ValueError, match="square"):
        lattice_contains(_identity(2), ((one, ()),), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        lattice_contains(_identity(2), _identity(3), 2)


def test_label_hex_widens_coefficients_past_256():
    # one length byte per entry, then each coefficient in the fewest bytes that hold p - 1
    label = (((0, 1), (3,)), ((), (1,)))
    assert label_hex(label, 5) == "02" "0001" "01" "03" "00" "01" "01"
    assert label_hex(label, 257) == "02" "00000001" "01" "0003" "00" "01" "0001"


# Hypothesis: the tuple routines against the Poly routes of tests/reference.py.

_poly_coeffs = st.lists(st.integers(0, 4), max_size=4)


def _draw_matrix(draw, p, n):
    """A random n x n matrix; half are commensurable with the standard lattice.

    Those are a random t-power diagonal between products of elementary
    operations.  The others have random entries, so they are sometimes
    singular, and their determinant is rarely a unit times a power of t.
    """
    if draw(st.booleans()):
        m = PolyMatrix.diagonal_powers(p, draw(st.lists(st.integers(0, 3),
                                                        min_size=n, max_size=n)))
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
            if i != j:
                op = E_plus_I(p, n, i, j, Poly(p, draw(_poly_coeffs)))
                m = op @ m if draw(st.booleans()) else m @ op
        return m
    return PolyMatrix(p, [[Poly(p, draw(_poly_coeffs)) for _ in range(n)]
                          for _ in range(n)])


@st.composite
def _square_matrices(draw, count):
    """(p, matrices): `count` random square matrices over GF(p), p <= 5, of one size n <= 4."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    return p, [_draw_matrix(draw, p, n) for _ in range(count)]


@given(_square_matrices(1))
@example((2, [PolyMatrix(2, [[P(2, 1, 1), Poly.zero(2)], [Poly.zero(2), Poly.one(2)]])]))
def test_column_hnf_and_lattice_label_match_the_poly_route(case):
    p, (m,) = case
    a = _tuples(m)
    d = polymat_det(m)
    if d.is_zero():
        with pytest.raises(ValueError, match="singular"):
            column_hnf(a, p)
        return
    h = column_hnf(a, p)
    assert h == _tuples(ref_column_hnf(m))
    # lattice_label raises exactly when det is not a unit times a power of t
    if sum(1 for c in d.coeffs if c) != 1:
        with pytest.raises(ValueError, match="commensurable"):
            lattice_label(a, p)
        with pytest.raises(ValueError, match="commensurable"):
            ref_lattice_label(m)
        return
    label = lattice_label(a, p)
    assert label == ref_lattice_label(m)
    # p <= 5: one length byte per entry, then one byte per coefficient
    assert label_hex(label, p) == b"".join(bytes((len(e), *e)) for row in label
                                           for e in row).hex()


@given(_square_matrices(2))
def test_lattice_contains_matches_the_poly_route(case):
    p, (outer, inner) = case
    if polymat_det(outer).is_zero() or polymat_det(inner).is_zero():
        return
    # outer @ inner spans a sublattice of outer, so containment holds at least there
    for big, small in ((outer, inner), (inner, outer), (outer, outer @ inner)):
        assert (lattice_contains(_tuples(big), _tuples(small), p)
                == ref_lattice_contains(big, small))


@given(st.sampled_from([2, 3, 5]), _poly_coeffs, _poly_coeffs)
def test_poly_divmod_matches_the_poly_route(p, a, b):
    a, b = Poly(p, a), Poly(p, b)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a.coeffs, b.coeffs, p)
        return
    q, r = poly_divmod(a.coeffs, b.coeffs, p)
    # both parts come back canonical: reduced mod p, with no trailing zeros
    assert q == Poly(p, q).coeffs and r == Poly(p, r).coeffs
    assert (Poly(p, q), Poly(p, r)) == ref_poly_divmod(a, b)
