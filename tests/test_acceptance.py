"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single PASS line on success; pytest -v adds the
per-test verdicts.  Runtime ceilings are asserted where stated.
"""

import json
import math
import random
import time

from conghom.building import EdgeRep, build_Z, enumerate_flag_reps
from conghom.cli import main as cli_main
from conghom.gf import GF, DenseMatrix, rref
from conghom.homology import assemble_boundary, h0_dimension
from conghom.oracle import (
    abelianization_dim,
    expected_order_exponent,
    generate_group,
    profile_generators,
)
from conghom.poly import Poly
from conghom.wedge import bound_profile, h1_basis, standard_ball
from reference import (add, bracket, commutator, conjugate_by, elementary, group_identity,
                       group_mul, level, rho, trace)


def _report(num, text):
    print(f"criterion {num}: PASS ({text})")


def test_criterion_01_f2_golden_numbers(capsys):
    t0 = time.monotonic()
    rep = h0_dimension(build_Z(3, 2, 1))
    elapsed = time.monotonic() - t0
    assert rep.num_vertices == 14
    assert rep.num_edges == 21
    assert rep.dim_c0 == 28
    assert rep.dim_c1 == 21
    assert rep.rank_boundary == 20
    assert rep.dim_h0 == 8 == rep.target
    assert rep.meets_conjecture
    assert elapsed < 1.0

    code = cli_main(["compute", "--n", "3", "--q", "2", "--radius", "1"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert (doc["num_vertices"], doc["num_edges"]) == (14, 21)
    assert (doc["dim_c0"], doc["dim_c1"]) == (28, 21)
    assert (doc["rank_boundary"], doc["dim_h0"]) == (20, 8)
    _report(1, f"14/21/28/21/20/8 in {elapsed:.3f}s")


def test_criterion_02_f3_conclusion(capsys):
    t0 = time.monotonic()
    rep = h0_dimension(build_Z(3, 3, 1))
    elapsed = time.monotonic() - t0
    assert rep.dim_h0 == 8
    assert rep.dim_h0 >= 8  # unconditional floor
    # computed structural counts: the derived 26/52, not the reported 25/42
    assert (rep.num_vertices, rep.num_edges) == (26, 52)
    assert (rep.num_vertices, rep.num_edges) != (25, 42)
    assert "25" in rep.counts_note and "42" in rep.counts_note
    assert "26" in rep.counts_note and "52" in rep.counts_note
    assert elapsed < 10.0

    code = cli_main(["compute", "--n", "3", "--q", "3", "--radius", "1"])
    capsys.readouterr()
    assert code in (0, 3)
    assert code == 0  # dimension 8 reached, so the run succeeds outright
    _report(2, f"dim 8 with counts 26/52 in {elapsed:.3f}s")


def test_criterion_03_stabilization():
    t0 = time.monotonic()
    d1 = h0_dimension(build_Z(3, 2, 1)).dim_h0
    d2 = h0_dimension(build_Z(3, 2, 2)).dim_h0
    elapsed = time.monotonic() - t0
    assert d2 <= d1
    assert d2 >= 8
    assert d1 == d2 == 8
    assert elapsed < 60.0
    _report(3, f"dim stays 8 at radius 2 in {elapsed:.3f}s")


def test_criterion_04_skip_example(capsys):
    code = cli_main(["survive", "--n", "3", "--bounds", "1,1,3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(1,2):[1] (2,3):[1] (1,3):[1,3]" in out
    assert "dimension 4" in out
    surv_line = out.splitlines()[0]
    assert "(1,3):[1,3]" in surv_line and "(1,3):[1,2" not in surv_line  # degree 2 absent
    _report(4, "degrees {(1,2):[1],(2,3):[1],(1,3):[1,3]}, dim 4")


def test_criterion_05_oracle_certification_sweep():
    t0 = time.monotonic()
    checked = 0
    for n, q, radius in ((3, 2, 3), (3, 3, 2), (3, 3, 3), (4, 2, 2), (4, 3, 1)):
        field = GF(q)
        verts, edges = standard_ball(n, radius)
        for simplex in [[v] for v in verts] + [list(e) for e in edges]:
            prof = bound_profile(simplex)
            gens = profile_generators(prof)
            expected_dim = h1_basis(prof).dim
            if not gens:
                assert expected_dim == 0
                continue
            assert all(len(entry) == 1 + prof.max_bound() for g in gens for entry in g)
            tbl = generate_group(gens, q)
            assert tbl.order == q ** expected_order_exponent(prof)
            # abelianization_dim raises unless the quotient is elementary abelian
            assert abelianization_dim(tbl) == expected_dim
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 99
    assert elapsed < 300.0
    _report(5, f"{checked} stabilizer groups certified in {elapsed:.1f}s")


def _random_k_element(rng, field, n=3, max_deg=4, factors=4):
    g = group_identity(field, n)
    for _ in range(factors):
        i = rng.randrange(1, n + 1)
        j = rng.randrange(1, n + 1)
        if i == j:
            continue
        d = rng.randrange(1, max_deg + 1)
        c = rng.randrange(1, field.p)
        e = elementary(i, j, Poly.monomial(field, d, c), n)
        if rng.random() < 0.5:
            a, b = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            if a != b:
                rows = [[1 if r == c2 else 0 for c2 in range(n)] for r in range(n)]
                rows[a - 1][b - 1] = rng.randrange(1, field.p)
                e = conjugate_by(e, DenseMatrix.from_rows(field, rows))
        g = group_mul(g, e)
    return g


def test_criterion_06_filtration_suite():
    for q in (2, 3):
        field = GF(q)
        rng = random.Random(600 + q)
        rho1_images = []
        pairs = 0
        while pairs < 500:
            g = _random_k_element(rng, field)
            h = _random_k_element(rng, field)
            lg, lh = level(g), level(h)
            if lg == math.inf or lh == math.inf or lg < 1 or lh < 1:
                continue
            pairs += 1
            i, j = int(lg), int(lh)
            c = commutator(g, h)
            assert level(c) >= i + j
            assert rho(i + j, c) == bracket(rho(i, g), rho(j, h))
            k = min(i, j)
            assert rho(k, group_mul(g, h)) == add(rho(k, g), rho(k, h))
            assert trace(rho(i, g)) == 0
            if i == 1:
                rho1_images.append(rho(1, g).entries)
        span = DenseMatrix(field, len(rho1_images), 9,
                           [v for img in rho1_images for v in img])
        rank, _, _ = rref(span)
        assert rank == 8
    _report(6, "500 random pairs per field, span of depth-1 images is 8")


def test_criterion_07_determinism_and_invariance():
    base = h0_dimension(build_Z(3, 2, 1)).to_json()

    reps = enumerate_flag_reps(3, GF(2))
    rng = random.Random(700)
    shuffled = reps[:]
    rng.shuffle(shuffled)
    assert h0_dimension(build_Z(3, 2, 1, flag_reps=shuffled)).to_json() == base

    # every edge reversed: key pair swapped and simplex reversed with it
    z = build_Z(3, 2, 1)
    reversed_z = z._replace(edges={(kb, ka): EdgeRep(flag=rep.flag, simplex=rep.simplex[::-1])
                                   for (ka, kb), rep in z.edges.items()})
    boundary, _ = assemble_boundary(z)
    reversed_boundary, _ = assemble_boundary(reversed_z)
    assert reversed_boundary.triples() == [(r, c, -v % 2) for r, c, v in boundary.triples()]
    assert h0_dimension(reversed_z).to_json() == base

    _report(7, "shuffled flags, reversed edges: byte-identical")


def test_criterion_08_n2_contrast(capsys):
    dims = []
    for radius in (1, 2, 3):
        rep = h0_dimension(build_Z(2, 2, radius))
        dims.append(rep.dim_h0)
        assert rep.dim_h0 == 3 * radius
    assert dims == [3, 6, 9]  # strictly growing: no stabilization
    code = cli_main(["compute", "--n", "2", "--q", "2", "--radius", "3"])
    capsys.readouterr()
    assert code == 3  # above the n^2 - 1 target is reported as a finding
    _report(8, "dims 3, 6, 9 for radii 1, 2, 3")


def test_criterion_09_stretch_n4():
    t0 = time.monotonic()
    rep = h0_dimension(build_Z(4, 2, 1))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert rep.dim_h0 >= 15
    assert isinstance(rep.meets_conjecture, bool)
    _report(9, f"n=4 dim {rep.dim_h0} (target 15, meets={rep.meets_conjecture}) "
               f"in {elapsed:.1f}s")


def test_deep_workload_configurations():
    t0 = time.monotonic()
    counts = {}
    for n, q, radius in ((3, 3, 4), (4, 2, 2)):
        rep = h0_dimension(build_Z(n, q, radius))
        counts[(n, q, radius)] = (rep.dim_c0, rep.dim_c1, rep.rank_boundary, rep.dim_h0)
    elapsed = time.monotonic() - t0
    assert counts == {
        (3, 3, 4): (1872, 5044, 1864, 8),
        (4, 2, 2): (2265, 11045, 2250, 15),
    }
    assert elapsed < 60.0
    print(f"deep configurations: dim_h0 8 at (3,3,4) and 15 at (4,2,2) in {elapsed:.1f}s")


def test_n5_radius_one_configuration():
    t0 = time.monotonic()
    rep = h0_dimension(build_Z(5, 2, 1))
    elapsed = time.monotonic() - t0
    assert (rep.num_vertices, rep.num_edges) == (372, 4650)
    assert (rep.dim_c0, rep.dim_c1, rep.rank_boundary, rep.dim_h0) == (2108, 11935, 2084, 24)
    assert elapsed < 60.0
    print(f"(5,2,1): dim_h0 24 (target 24) in {elapsed:.1f}s")
