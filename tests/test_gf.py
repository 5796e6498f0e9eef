import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import conghom
from conghom.building import enumerate_flag_reps
from conghom.errors import GF
from conghom.gf import SparseMatrix, extend_rref, reduce_columns, sparse_rank
from conghom.oracle import verify_h1_formula
from conghom.wedge import bound_profile
from reference import (DenseMatrix, augmented_inverse, densify, det, heap_rank, inverse,
                       row_rref, rref)


def test_non_prime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 100, -3):
        with pytest.raises(ValueError, match=f"modulus {bad} is not prime"):
            GF(bad)


def test_gf_is_the_checked_prime_as_an_int():
    # perfbench calls GF(q) and passes the result on as the prime p
    for q in (2, 3, 257):
        assert GF(q) == q and type(GF(q)) is int
    # the package export is the checked constructor in conghom.errors
    assert conghom.GF is GF and conghom.GF(3) == 3
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        conghom.GF(4)
    assert enumerate_flag_reps(3, GF(3)) == enumerate_flag_reps(3, 3)
    for simplex in ([(1, 0)], [(1, 0), (1, 1)]):
        prof = bound_profile(simplex)
        assert verify_h1_formula(prof, GF(2)) == verify_h1_formula(prof, 2)


def test_mixed_context_rejected():
    a = DenseMatrix.identity(2, 2)
    b = DenseMatrix.identity(3, 2)
    with pytest.raises(ValueError):
        a.mul(b)


def test_rref_identity():
    p = 5
    rank, red, piv = rref(DenseMatrix.identity(p, 4))
    assert rank == 4
    assert piv == (0, 1, 2, 3)
    assert red == DenseMatrix.identity(p, 4)


def test_rref_zero():
    rank, _, piv = rref(DenseMatrix(3, 3, 5, [0] * 15))
    assert rank == 0
    assert piv == ()


def test_rref_dependent_rows_gf2():
    # third row is the sum of the first two over GF(2)
    m = DenseMatrix.from_rows(2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    rank, _, _ = rref(m)
    assert rank == 2


def test_rref_idempotent():
    rng = random.Random(2)
    p = 3
    for _ in range(20):
        m = DenseMatrix(p, 6, 8, [rng.randrange(3) for _ in range(48)])
        _, red, _ = rref(m)
        _, red2, _ = rref(red)
        assert red2 == red


def test_rank_invariances():
    rng = random.Random(3)
    p = 5
    for _ in range(20):
        rows, cols = 7, 9
        m = DenseMatrix(p, rows, cols, [rng.randrange(5) for _ in range(rows * cols)])
        rank, _, _ = rref(m)
        assert rank <= min(rows, cols)
        perm = list(range(rows))
        rng.shuffle(perm)
        shuffled = DenseMatrix.from_rows(p, [list(m.row(i)) for i in perm])
        assert rref(shuffled)[0] == rank
        i = rng.randrange(rows)
        c = rng.randrange(1, 5)
        scaled_rows = [list(m.row(r)) for r in range(rows)]
        scaled_rows[i] = [(c * v) % 5 for v in scaled_rows[i]]
        assert rref(DenseMatrix.from_rows(p, scaled_rows))[0] == rank


def test_det_and_inverse():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for _ in range(30):
            n = rng.randrange(1, 5)
            m = DenseMatrix(p, n, n, [rng.randrange(p) for _ in range(n * n)])
            d = det(m)
            if d == 0:
                with pytest.raises(ValueError):
                    inverse(m)
            else:
                assert m @ inverse(m) == DenseMatrix.identity(p, n)


@st.composite
def _residue_matrix(draw, square=False):
    """Up to 5 x 10 over GF(p), p in {2, 3, 5, 7, 257}, with 0 and p - 1 drawn often.

    A square one has, half the time, a last row that combines the others,
    so it is singular.
    """
    p = draw(st.sampled_from((2, 3, 5, 7, 257)))
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 10))
    entry = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    dense = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if square and rows and draw(st.booleans()):
        combo = draw(st.lists(entry, min_size=rows - 1, max_size=rows - 1))
        dense[-1] = [sum(a * row[j] for a, row in zip(combo, dense)) % p for j in range(cols)]
    return DenseMatrix.from_rows(p, dense) if rows else DenseMatrix(p, 0, cols, [])


@given(_residue_matrix(), _residue_matrix(square=True))
def test_extend_rref_matches_row_reference(m, square):
    # rank, RREF entries and pivots of rref, and inverse or its refusal, as
    # the row-list references compute them
    assert rref(m) == row_rref(m)
    try:
        want = augmented_inverse(square)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse(square)
    else:
        assert inverse(square) == want


@given(_residue_matrix(), st.data())
def test_extend_rref_fold_depends_only_on_the_span(m, data):
    # folding the rows in any order gives the nonzero rows of the reference
    # RREF, so build_Z's keys depend on the column spans, not on column order
    rows = m.to_rows()
    red = ()
    for i in data.draw(st.permutations(range(m.rows))):
        red = extend_rref(red, rows[i], m.p, m.cols)
    rank, want, _ = row_rref(m)
    assert red == tuple(tuple(want.row(i)) for i in range(rank))
    # a row already in the span returns the very same RREF object
    combo = data.draw(st.lists(st.integers(0, m.p - 1), min_size=m.rows, max_size=m.rows))
    inside = [sum(a * row[j] for a, row in zip(combo, rows)) % m.p for j in range(m.cols)]
    assert extend_rref(red, inside, m.p, m.cols) is red


def test_product_column_and_transpose_match_entrywise_definitions():
    rng = random.Random(7)
    for p in (2, 3, 7):
        for _ in range(30):
            a, b, c = (rng.randrange(0, 5) for _ in range(3))
            x = DenseMatrix(p, a, b, [rng.randrange(p) for _ in range(a * b)])
            y = DenseMatrix(p, b, c, [rng.randrange(p) for _ in range(b * c)])
            assert (x @ y).to_rows() == [
                [sum(x.get(i, k) * y.get(k, j) for k in range(b)) % p for j in range(c)]
                for i in range(a)]
            for j in range(b):
                assert x.col(j) == tuple(x.get(i, j) for i in range(a))
            t = x.transpose()
            assert (t.rows, t.cols) == (b, a)
            assert all(t.get(j, i) == x.get(i, j) for i in range(a) for j in range(b))


def test_sparse_validation():
    p = 3
    with pytest.raises(ValueError):
        SparseMatrix(p, 2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseMatrix(p, 2, 2, [(2, 0, 1)])
    with pytest.raises(ValueError):
        SparseMatrix(p, 2, 2, [(0, 0, 3)])  # zero residue


def test_sparse_rank_empty():
    assert sparse_rank(SparseMatrix(2, 10, 7, [])) == 0
    assert sparse_rank(SparseMatrix(2, 0, 0, [])) == 0


def _random_sparse(rng, p, rows, cols, density):
    triples = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randrange(1, p)
                triples.append((r, c, v))
    return SparseMatrix(p, rows, cols, triples)


def test_sparse_rank_matches_dense_gf3():
    rng = random.Random(5)
    p = 3
    for _ in range(10):
        m = _random_sparse(rng, p, 50, 50, 0.06)
        assert sparse_rank(m) == rref(densify(m))[0]


def test_sparse_rank_matches_dense_various():
    rng = random.Random(6)
    for p in (2, 3, 7):
        for rows, cols, density in ((30, 45, 0.1), (60, 40, 0.05), (25, 25, 0.3)):
            m = _random_sparse(rng, p, rows, cols, density)
            assert sparse_rank(m) == rref(densify(m))[0]


def test_sparse_rank_matches_dense_200():
    rng = random.Random(7)
    p = 2
    m = _random_sparse(rng, p, 200, 200, 0.02)
    assert sparse_rank(m) == rref(densify(m))[0]


@pytest.mark.parametrize("p", [5, 7])
def test_reduce_columns_keeps_pivot_free_tails(p):
    # at p = 2 a wrong sign in a tail cannot show, because -1 = 1
    rng = random.Random(p)
    for rows, cols, density in ((30, 45, 0.1), (40, 25, 0.15), (20, 20, 0.3)):
        m = _random_sparse(rng, p, rows, cols, density)
        columns = [{} for _ in range(cols)]
        for r, c, v in m.triples():
            columns[c][r] = v
        basis = reduce_columns(p, columns)
        assert len(basis) == rref(densify(m))[0]
        assert all(r < pivot and 1 <= v < p for pivot, tail in basis.items() for r, v in tail)
        # reduced in place: a dependent column ends empty, and an independent
        # one, scaled by -1 / its pivot value and without its pivot, is its tail
        reduced = [col for col in columns if col]
        assert sorted(max(col) for col in reduced) == sorted(basis)
        for col in reduced:
            pivot = max(col)
            scale = -pow(col[pivot], p - 2, p)
            assert dict(basis[pivot]) == {r: v * scale % p for r, v in col.items() if r != pivot}


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
    return SparseMatrix(p, len(dense), cols, triples)


# In heap_rank, pivoting on row 0 in column 0 grows row 1 from three
# entries to four, so row 1's first heap entry is stale when it is popped.
@example(SparseMatrix(2, 4, 9, [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 3, 1),
                                (1, 4, 1), (2, 1, 1), (2, 5, 1), (2, 6, 1), (3, 2, 1),
                                (3, 7, 1), (3, 8, 1)]))
@given(_sparse_with_dependencies())
def test_sparse_rank_matches_rref_property(m):
    # the column reduction, the row heap elimination and rref agree
    before = list(m.triples())
    assert sparse_rank(m) == heap_rank(m) == rref(densify(m))[0]
    assert list(m.triples()) == before


@given(_sparse_with_dependencies(), st.data())
def test_sparse_rank_invariant_under_permutation_and_scaling(m, data):
    p = m.p
    row_perm = data.draw(st.permutations(range(m.rows)))
    col_perm = data.draw(st.permutations(range(m.cols)))
    scale = data.draw(st.lists(st.integers(1, p - 1), min_size=m.rows, max_size=m.rows))
    moved = SparseMatrix(m.p, m.rows, m.cols,
                         [(row_perm[r], col_perm[c], v * scale[r]) for r, c, v in m.triples()])
    assert sparse_rank(moved) == sparse_rank(m)
