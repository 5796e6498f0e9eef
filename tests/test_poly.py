import random

import pytest

from conghom.gf import GF
from conghom.poly import (
    CanonicalLabel,
    Poly,
    PolyMatrix,
    column_hnf,
    lattice_contains,
    lattice_label,
    poly_divmod,
    polymat_det,
)
from reference import poly_const, polymat_adjugate

F2 = GF(2)
F3 = GF(3)


def P(field, *coeffs):
    return Poly(field, coeffs)


def E_plus_I(field, n, i, j, poly):
    """I + E_ij(poly), 1-based."""
    m = [[Poly.one(field) if r == c else Poly.zero(field) for c in range(n)] for r in range(n)]
    m[i - 1][j - 1] = poly
    return PolyMatrix(field, m)


def test_poly_arith_examples():
    one_plus_t = P(F2, 1, 1)
    assert one_plus_t * one_plus_t == P(F2, 1, 0, 1)      # characteristic 2
    assert P(F3, 0, 1, 2) * Poly.zero(F3) == Poly.zero(F3)
    assert P(F3, 0, 1, 2) + P(F3, 0, 2, 1) == Poly.zero(F3)


def test_coefficient():
    assert P(F2, 1, 0, 0, 1).coefficient(3) == 1
    assert P(F2, 0, 1).coefficient(5) == 0
    assert P(F3, 0, 2, 1).coefficient(1) == 2
    with pytest.raises(ValueError):
        P(F2, 1).coefficient(-1)


def test_canonical_form():
    assert P(F2, 1, 0, 0).coeffs == (1,)
    assert P(F3, 0, 0, 0).is_zero()
    assert P(F3, 4, 3).coeffs == (1,)  # reduced mod 3, trailing zero stripped


def test_divmod_random():
    rng = random.Random(10)
    for p in (2, 3, 5):
        f = GF(p)
        for _ in range(100):
            a = Poly(f, [rng.randrange(p) for _ in range(rng.randrange(8))])
            b = Poly(f, [rng.randrange(p) for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_divmod_of_a_lower_degree_dividend_is_zero_remainder_a(monkeypatch):
    # deg a < deg b: (0, a) at once, with no inverse of b's leading coefficient
    b = P(F3, 1, 0, 2)
    with monkeypatch.context() as mp:
        mp.setattr(GF, "inv", lambda self, c: pytest.fail("inverted a leading coefficient"))
        for a in (Poly.zero(F3), P(F3, 2), P(F3, 1, 2)):
            q, r = poly_divmod(a, b)
            assert q.is_zero() and r == a
    # the field and zero-divisor checks still come first
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Poly.zero(F3), Poly.zero(F3))
    with pytest.raises(ValueError, match="mixed field"):
        poly_divmod(Poly.zero(F2), b)


def test_polymat_mul_examples():
    a = E_plus_I(F2, 3, 1, 2, P(F2, 0, 1))
    b = E_plus_I(F2, 3, 2, 3, P(F2, 0, 1))
    prod = a @ b
    assert prod.entries[0][1] == P(F2, 0, 1)
    assert prod.entries[1][2] == P(F2, 0, 1)
    assert prod.entries[0][2] == P(F2, 0, 0, 1)   # t^2 through the corner
    sq = a @ a
    assert sq.entries[0][1] == Poly.zero(F2)      # 2t = 0 over GF(2)
    assert a @ PolyMatrix.identity(F2, 3) == a


def test_polymat_det_examples():
    assert polymat_det(PolyMatrix.identity(F3, 4)) == Poly.one(F3)
    assert polymat_det(E_plus_I(F2, 3, 1, 2, P(F2, 0, 0, 0, 0, 0, 1))) == Poly.one(F2)
    assert polymat_det(PolyMatrix.diagonal_powers(F2, [1, 1, 0])) == P(F2, 0, 0, 1)


def test_adjugate_is_inverse_for_unimodular():
    rng = random.Random(11)
    for p in (2, 3):
        f = GF(p)
        for _ in range(20):
            m = _random_unimodular(rng, f, 3)
            assert m @ polymat_adjugate(m) == PolyMatrix.identity(f, 3)


def _random_unimodular(rng, field, n, steps=6):
    """Product of elementary column operations: always determinant one."""
    m = PolyMatrix.identity(field, n)
    for _ in range(steps):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            continue
        poly = Poly(field, [rng.randrange(field.p) for _ in range(rng.randrange(4))])
        m = m @ E_plus_I(field, n, i, j, poly)
    return m


def _hnf_shape_ok(h):
    n = h.n
    for i in range(n):
        for j in range(n):
            e = h.entries[i][j]
            if i > j:
                assert e.is_zero()
            elif i == j:
                assert e.leading() == 1
            elif not e.is_zero():
                # reduced against the pivot of its row
                assert e.degree < h.entries[i][i].degree


def test_column_hnf_identity():
    assert column_hnf(PolyMatrix.identity(F2, 3)) == PolyMatrix.identity(F2, 3)


def test_column_hnf_small_example():
    # columns (t, 0) and (1, 1): already triangular, monic, reduced
    a = PolyMatrix(F2, [[P(F2, 0, 1), P(F2, 1)], [Poly.zero(F2), P(F2, 1)]])
    h = column_hnf(a)
    assert h == a
    # same span both ways
    assert lattice_contains(a, h) and lattice_contains(h, a)


def test_column_hnf_unimodular_invariance():
    rng = random.Random(12)
    for p in (2, 3):
        f = GF(p)
        for _ in range(25):
            a = _random_poly_lattice_basis(rng, f, 3)
            u = _random_unimodular(rng, f, 3)
            h1 = column_hnf(a)
            h2 = column_hnf(a @ u)
            assert h1 == h2
            _hnf_shape_ok(h1)
            assert lattice_contains(h1, a) and lattice_contains(a, h1)


def _random_poly_lattice_basis(rng, field, n):
    """diag of t powers times a random unimodular: det = unit * t^k."""
    d = PolyMatrix.diagonal_powers(field, [rng.randrange(4) for _ in range(n)])
    return _random_unimodular(rng, field, n) @ d @ _random_unimodular(rng, field, n)


def test_column_hnf_singular_rejected():
    zero = Poly.zero(F2)
    one = Poly.one(F2)
    a = PolyMatrix(F2, [[one, one], [one, one]])
    with pytest.raises(ValueError):
        column_hnf(a)


def test_lattice_label_standard_basis():
    lbl = lattice_label(PolyMatrix.identity(F2, 3))
    assert lbl.hnf == PolyMatrix.identity(F2, 3)
    assert [lbl.hnf.entries[i][i].degree for i in range(3)] == [0, 0, 0]


def test_lattice_label_same_lattice():
    # columns (te1, e2, e3) versus (te1, e2 + te1, e3)
    t = P(F2, 0, 1)
    one = Poly.one(F2)
    zero = Poly.zero(F2)
    a = PolyMatrix(F2, [[t, zero, zero], [zero, one, zero], [zero, zero, one]])
    b = PolyMatrix(F2, [[t, t, zero], [zero, one, zero], [zero, zero, one]])
    assert lattice_label(a) == lattice_label(b)


def test_lattice_label_scaling_invariance():
    rng = random.Random(13)
    for p in (2, 3):
        f = GF(p)
        t = Poly.monomial(f, 1)
        for _ in range(20):
            a = _random_poly_lattice_basis(rng, f, 3)
            scaled = PolyMatrix(f, [[e * t for e in row] for row in a.entries])
            assert lattice_label(a) == lattice_label(scaled)
            c = rng.randrange(1, p)
            cs = poly_const(f, c)
            const_scaled = PolyMatrix(f, [[e * cs for e in row] for row in a.entries])
            assert lattice_label(a) == lattice_label(const_scaled)


def test_lattice_label_rejects_non_lattice():
    one = Poly.one(F2)
    zero = Poly.zero(F2)
    # det = 1 + t is not a unit times a power of t
    a = PolyMatrix(F2, [[P(F2, 1, 1), zero], [zero, one]])
    with pytest.raises(ValueError):
        lattice_label(a)


def test_lattice_contains_examples():
    l0 = PolyMatrix.identity(F2, 3)
    tl0 = PolyMatrix.diagonal_powers(F2, [1, 1, 1])
    assert lattice_contains(l0, tl0)
    assert not lattice_contains(tl0, l0)
    a = PolyMatrix.diagonal_powers(F2, [1, 0, 0])   # (te1, e2, e3)
    b = PolyMatrix.diagonal_powers(F2, [1, 1, 0])   # (te1, te2, e3)
    assert lattice_contains(a, b)
    assert not lattice_contains(b, a)


def test_mutual_containment_iff_equal_labels():
    rng = random.Random(14)
    f = GF(2)
    basis = [_random_poly_lattice_basis(rng, f, 3) for _ in range(12)]
    for a in basis:
        for b in basis:
            both = lattice_contains(a, b) and lattice_contains(b, a)
            assert both == (column_hnf(a) == column_hnf(b))
