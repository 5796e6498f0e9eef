import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conghom.gf import GF, DenseMatrix, SparseMatrix, det, inverse, rref, sparse_rank


def test_field_examples():
    assert GF(3).inv(2) == 2          # 2*2 = 4 = 1 mod 3
    for p in (2, 3, 5, 7):
        f = GF(p)
        for a in range(1, p):
            assert a * f.inv(a) % p == 1


def test_field_axioms_random():
    # inv accepts any representative of a nonzero residue, negative ones too
    rng = random.Random(1)
    for p in (2, 3, 5, 7):
        f = GF(p)
        for _ in range(200):
            a = rng.randrange(-10 * p, 10 * p)
            if a % p:
                assert a * f.inv(a) % p == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_non_prime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            GF(bad)


def test_mixed_context_rejected():
    a = DenseMatrix.identity(GF(2), 2)
    b = DenseMatrix.identity(GF(3), 2)
    with pytest.raises(ValueError):
        a.mul(b)


def test_rref_identity():
    f = GF(5)
    rank, red, piv = rref(DenseMatrix.identity(f, 4))
    assert rank == 4
    assert piv == (0, 1, 2, 3)
    assert red == DenseMatrix.identity(f, 4)


def test_rref_zero():
    rank, _, piv = rref(DenseMatrix(GF(3), 3, 5, [0] * 15))
    assert rank == 0
    assert piv == ()


def test_rref_dependent_rows_gf2():
    # third row is the sum of the first two over GF(2)
    m = DenseMatrix.from_rows(GF(2), [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    rank, _, _ = rref(m)
    assert rank == 2


def test_rref_idempotent():
    rng = random.Random(2)
    f = GF(3)
    for _ in range(20):
        m = DenseMatrix(f, 6, 8, [rng.randrange(3) for _ in range(48)])
        _, red, _ = rref(m)
        _, red2, _ = rref(red)
        assert red2 == red


def test_rank_invariances():
    rng = random.Random(3)
    f = GF(5)
    for _ in range(20):
        rows, cols = 7, 9
        m = DenseMatrix(f, rows, cols, [rng.randrange(5) for _ in range(rows * cols)])
        rank, _, _ = rref(m)
        assert rank <= min(rows, cols)
        perm = list(range(rows))
        rng.shuffle(perm)
        shuffled = DenseMatrix.from_rows(f, [list(m.row(i)) for i in perm])
        assert rref(shuffled)[0] == rank
        i = rng.randrange(rows)
        c = rng.randrange(1, 5)
        scaled_rows = [list(m.row(r)) for r in range(rows)]
        scaled_rows[i] = [(c * v) % 5 for v in scaled_rows[i]]
        assert rref(DenseMatrix.from_rows(f, scaled_rows))[0] == rank


def test_det_and_inverse():
    rng = random.Random(4)
    for p in (2, 3, 5):
        f = GF(p)
        for _ in range(30):
            n = rng.randrange(1, 5)
            m = DenseMatrix(f, n, n, [rng.randrange(p) for _ in range(n * n)])
            d = det(m)
            if d == 0:
                with pytest.raises(ValueError):
                    inverse(m)
            else:
                assert m @ inverse(m) == DenseMatrix.identity(f, n)


def test_sparse_validation():
    f = GF(3)
    with pytest.raises(ValueError):
        SparseMatrix(f, 2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseMatrix(f, 2, 2, [(2, 0, 1)])
    with pytest.raises(ValueError):
        SparseMatrix(f, 2, 2, [(0, 0, 3)])  # zero residue


def test_sparse_rank_empty():
    assert sparse_rank(SparseMatrix(GF(2), 10, 7, [])) == 0
    assert sparse_rank(SparseMatrix(GF(2), 0, 0, [])) == 0


def _random_sparse(rng, field, rows, cols, density):
    triples = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randrange(1, field.p)
                triples.append((r, c, v))
    return SparseMatrix(field, rows, cols, triples)


def test_sparse_rank_matches_dense_gf3():
    rng = random.Random(5)
    f = GF(3)
    for _ in range(10):
        m = _random_sparse(rng, f, 50, 50, 0.06)
        assert sparse_rank(m) == rref(m.densify())[0]


def test_sparse_rank_matches_dense_various():
    rng = random.Random(6)
    for p in (2, 3, 7):
        f = GF(p)
        for rows, cols, density in ((30, 45, 0.1), (60, 40, 0.05), (25, 25, 0.3)):
            m = _random_sparse(rng, f, rows, cols, density)
            assert sparse_rank(m) == rref(m.densify())[0]


def test_sparse_rank_matches_dense_200():
    rng = random.Random(7)
    f = GF(2)
    m = _random_sparse(rng, f, 200, 200, 0.02)
    assert sparse_rank(m) == rref(m.densify())[0]


@st.composite
def _sparse_with_dependencies(draw):
    """A small sparse matrix whose rows include dependent ones.

    Some base rows are drawn, then more rows as combinations of them:
    scaled duplicates, empty rows and rows that cancel to zero part-way
    through elimination.  Zero columns appear whenever no row uses one.
    """
    p = draw(st.sampled_from((2, 3, 5, 7)))
    cols = draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.integers(1, p - 1))
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=8))
    combos = draw(st.lists(st.lists(entry, min_size=len(base), max_size=len(base)),
                           max_size=8))
    dense = base + [[sum(a * row[j] for a, row in zip(combo, base)) % p for j in range(cols)]
                    for combo in combos]
    order = draw(st.permutations(range(len(dense))))
    dense = [dense[i] for i in order]
    triples = [(r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v]
    return SparseMatrix(GF(p), len(dense), cols, triples)


# Pivoting on row 0 in column 0 grows row 1 from three entries to four,
# so row 1's first heap entry is stale when it is popped.
@example(SparseMatrix(GF(2), 4, 9, [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 3, 1),
                                    (1, 4, 1), (2, 1, 1), (2, 5, 1), (2, 6, 1), (3, 2, 1),
                                    (3, 7, 1), (3, 8, 1)]))
@given(_sparse_with_dependencies())
def test_sparse_rank_matches_rref_property(m):
    before = m.triples()
    assert sparse_rank(m) == rref(m.densify())[0]
    assert m.triples() == before


@given(_sparse_with_dependencies(), st.data())
def test_sparse_rank_invariant_under_permutation_and_scaling(m, data):
    p = m.field.p
    row_perm = data.draw(st.permutations(range(m.rows)))
    col_perm = data.draw(st.permutations(range(m.cols)))
    scale = data.draw(st.lists(st.integers(1, p - 1), min_size=m.rows, max_size=m.rows))
    moved = SparseMatrix(m.field, m.rows, m.cols,
                         [(row_perm[r], col_perm[c], v * scale[r]) for r, c, v in m.triples()])
    assert sparse_rank(moved) == sparse_rank(m)
