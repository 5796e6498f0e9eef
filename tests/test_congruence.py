import math
import random

import pytest

from reference import (DenseMatrix, GroupElement, Poly, PolyMatrix, add, bracket, commutator,
                       conjugate_by, elementary, group_identity, group_inverse, group_mul, level,
                       rho, trace)



def t_poly(p, r=1, c=1):
    return Poly.monomial(p, r, c)


# Independent oracle: matrix product on coefficient dicts, truncated at `cut`.
def naive_mul(a, b, n, p, cut=40):
    out = {}
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                for d1, c1 in a.get((i, k), {}).items():
                    for d2, c2 in b.get((k, j), {}).items():
                        if d1 + d2 < cut:
                            acc[d1 + d2] = (acc.get(d1 + d2, 0) + c1 * c2) % p
            acc = {d: c for d, c in acc.items() if c}
            if acc:
                out[(i, j)] = acc
    return out


def to_dict(g):
    out = {}
    for i in range(g.n):
        for j in range(g.n):
            cs = g.matrix.entries[i][j].coeffs
            d = {k: c for k, c in enumerate(cs) if c}
            if d:
                out[(i, j)] = d
    return out


def test_elementary_examples():
    e = elementary(1, 2, t_poly(2), 3)
    assert e.matrix.entries[0][1] == t_poly(2)
    assert e.matrix.entries[0][0] == Poly.one(2)
    corner = elementary(1, 3, Poly.monomial(2, 3), 3)
    assert corner.matrix.entries[0][2] == Poly.monomial(2, 3)
    with pytest.raises(ValueError):
        elementary(2, 2, t_poly(2), 3)


def test_determinant_checked():
    two_t = PolyMatrix(3, [[Poly.monomial(3, 1), Poly.zero(3)],
                        [Poly.zero(3), Poly.one(3)]])
    with pytest.raises(ValueError):
        GroupElement(two_t)


def test_level_examples():
    assert level(group_identity(2, 3)) == math.inf
    assert level(elementary(1, 2, Poly.monomial(2, 2), 3)) == 2
    assert level(elementary(1, 2, Poly(2, (1, 1)), 3)) == 0


def test_rho_examples():
    g = elementary(1, 2, t_poly(2), 3)
    x = rho(1, g)
    assert x.get(0, 1) == 1 and sum(x.entries) == 1

    c = commutator(elementary(1, 2, t_poly(2), 3), elementary(2, 1, t_poly(2), 3))
    assert level(c) >= 2
    x2 = rho(2, c)
    diag = DenseMatrix(2, 3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 0])  # E11 - E22 over GF(2)
    assert x2 == diag

    g = group_mul(elementary(1, 2, t_poly(3), 3), elementary(2, 3, t_poly(3), 3))
    x1 = rho(1, g)
    assert x1.get(0, 1) == 1 and x1.get(1, 2) == 1


def test_rho_requires_depth():
    g = elementary(1, 2, t_poly(2), 3)
    with pytest.raises(ValueError):
        rho(2, g)


def test_commutator_examples():
    g = elementary(1, 2, t_poly(2), 3)
    assert commutator(g, group_identity(2, 3)) == group_identity(2, 3)
    c = commutator(elementary(1, 2, t_poly(2), 3), elementary(2, 3, t_poly(2), 3))
    assert c == elementary(1, 3, Poly.monomial(2, 2), 3)


def random_k_element(rng, p, n, max_deg=4, factors=4):
    """Random product of level-one elementaries and constant conjugates."""
    g = group_identity(p, n)
    for _ in range(factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            continue
        d = rng.randrange(1, max_deg + 1)
        c = rng.randrange(1, p)
        e = elementary(i, j, Poly.monomial(p, d, c), n)
        if rng.random() < 0.5:
            a, b = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            if a != b:
                s_rows = [[1 if r == c2 else 0 for c2 in range(n)] for r in range(n)]
                s_rows[a - 1][b - 1] = rng.randrange(1, p)
                e = conjugate_by(e, DenseMatrix.from_rows(p, s_rows))
        g = group_mul(g, e)
    return g


def test_group_ops_match_naive_oracle():
    rng = random.Random(20)
    for p in (2, 3):
        for _ in range(25):
            g = random_k_element(rng, p, 3)
            h = random_k_element(rng, p, 3)
            assert to_dict(group_mul(g, h)) == naive_mul(to_dict(g), to_dict(h), 3, p)
            assert to_dict(group_mul(g, group_inverse(g))) == to_dict(group_identity(p, 3))


def test_inverse_exact():
    rng = random.Random(21)
    for p in (2, 3):
        for _ in range(20):
            g = random_k_element(rng, p, 3)
            assert group_mul(g, group_inverse(g)) == group_identity(p, 3)
            assert group_mul(group_inverse(g), g) == group_identity(p, 3)


def test_filtration_properties_random():
    rng = random.Random(22)
    for p in (2, 3):
        for _ in range(60):
            g = random_k_element(rng, p, 3)
            h = random_k_element(rng, p, 3)
            lg, lh = level(g), level(h)
            if lg == math.inf or lh == math.inf:
                continue
            c = commutator(g, h)
            assert level(c) >= lg + lh
            i, j = int(lg), int(lh)
            # graded bracket: the leading coefficient of [g, h]
            assert rho(i + j, c) == bracket(rho(i, g), rho(j, h))
            # additivity at a common depth
            k = min(i, j)
            assert rho(k, group_mul(g, h)) == add(rho(k, g), rho(k, h))
            # trace is forced to vanish
            assert trace(rho(i, g)) == 0
