import hashlib
import json

import pytest

import conghom.oracle
from conghom import homology
from conghom.cli import main
from conghom.wedge import adjacency


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_golden(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "3", "--q", "2", "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_h0"] == 8
    assert doc["meets_conjecture"] is True
    assert doc["rank_boundary"] == 20
    assert set(doc) == {
        "n", "q", "radius", "num_vertices", "num_edges", "dim_c0", "dim_c1",
        "rank_boundary", "dim_h0", "target", "meets_conjecture", "counts_note",
        "timing_ms",
    }


def test_compute_f3_note(capsys):
    code, out, _ = run_cli(capsys, "compute", "--n", "3", "--q", "3", "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_h0"] == 8
    assert "25" in doc["counts_note"]


def test_compute_composite_q(capsys):
    code, _, err = run_cli(capsys, "compute", "--n", "3", "--q", "4", "--radius", "1")
    assert code == 2
    assert "q must be prime" in err


def test_oracle_composite_q(capsys):
    code, out, err = run_cli(capsys, "oracle", "--n", "3", "--q", "4", "--radius", "1")
    assert code == 2
    assert "q must be prime" in err
    assert out == ""


def test_export_composite_q(tmp_path, capsys):
    dot, matrix = tmp_path / "z.dot", tmp_path / "boundary.txt"
    code, _, err = run_cli(capsys, "export", "--n", "3", "--q", "4", "--radius", "1",
                           "--dot", str(dot), "--matrix", str(matrix))
    assert code == 2
    assert "q must be prime" in err
    assert not dot.exists() and not matrix.exists()


def test_compute_bad_radius(capsys):
    code, _, _ = run_cli(capsys, "compute", "--n", "3", "--q", "2", "--radius", "0")
    assert code == 2


def test_compute_rejects_n_below_two(capsys):
    code, out, err = run_cli(capsys, "compute", "--n", "1", "--q", "2", "--radius", "1")
    assert code == 2
    assert "n must be at least 2" in err
    assert out == ""


def test_compute_below_the_floor_is_an_invariant_violation(monkeypatch, capsys):
    # one pivot too many takes dim_h0 at (3,2,1) from 8 to 7, under n^2 - 1
    real = homology.reduce_columns

    def one_extra_pivot(p, columns):
        basis = real(p, columns)
        basis[-1] = ()
        return basis

    monkeypatch.setattr(homology, "reduce_columns", one_extra_pivot)
    code, out, err = run_cli(capsys, "compute", "--n", "3", "--q", "2", "--radius", "1")
    assert code == 4
    assert "cokernel dimension 7 fell below the guaranteed floor 8" in err
    assert out == ""

    # on the sub-boundary at (4,2,1) it raises too, and never builds the full Z_R
    real_build = homology.build_Z
    built = []

    def recording(*args, **kwargs):
        built.append(kwargs.get("ball_edges"))
        return real_build(*args, **kwargs)

    monkeypatch.setattr(homology, "build_Z", recording)
    code, out, err = run_cli(capsys, "compute", "--n", "4", "--q", "2", "--radius", "1")
    assert code == 4
    assert "cokernel dimension 14 fell below the guaranteed floor 15" in err
    assert out == ""
    assert built == [homology.certificate_edges(4, 1)]


def test_compute_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "compute", "--n", "2", "--q", "2", "--radius", "1",
                         "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["dim_h0"] == 3


def test_compute_unwritable(tmp_path, capsys):
    code, out, err = run_cli(capsys, "compute", "--n", "2", "--q", "2", "--radius", "1",
                             "--out", str(tmp_path / "no" / "dir" / "report.json"))
    assert code == 2
    assert "cannot write" in err
    assert out == ""


def test_compute_n2_finding_code(capsys):
    # for n=2 the dimension grows with the radius, which is a finding
    code, out, _ = run_cli(capsys, "compute", "--n", "2", "--q", "2", "--radius", "2")
    assert code == 3
    assert json.loads(out)["dim_h0"] == 6


@pytest.mark.parametrize("command", ["compute", "export", "oracle"])
def test_threads_option_removed(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "3", "--q", "2", "--radius", "1", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_survive_example(capsys):
    code, out, _ = run_cli(capsys, "survive", "--n", "3", "--bounds", "1,1,3")
    assert code == 0
    assert "(1,2):[1] (2,3):[1] (1,3):[1,3]" in out
    assert "dimension 4" in out


def test_survive_empty(capsys):
    code, out, _ = run_cli(capsys, "survive", "--n", "3", "--bounds", "0,0,0")
    assert code == 0
    assert "dimension 0" in out


def test_survive_unrealizable(capsys):
    code, _, err = run_cli(capsys, "survive", "--n", "3", "--bounds", "1,1,1")
    assert code == 2
    assert "unrealizable" in err


def test_survive_rejects_bounds_that_are_not_integers(capsys):
    code, out, err = run_cli(capsys, "survive", "--n", "3", "--bounds", "1,x,3")
    assert code == 2
    assert "comma-separated list of integers" in err
    assert out == ""


def test_survive_rejects_a_wrong_number_of_bounds(capsys):
    code, out, err = run_cli(capsys, "survive", "--n", "3", "--bounds", "1,1")
    assert code == 2
    assert "expected 3 bounds for n=3" in err
    assert out == ""


@pytest.mark.parametrize("n, bounds", [("3", "1,-1,1"), ("2", "-5")])
def test_survive_rejects_negative_bounds(capsys, n, bounds):
    code, out, err = run_cli(capsys, "survive", "--n", n, f"--bounds={bounds}")
    assert code == 2
    assert "non-negative" in err
    assert "dimension" not in out


def test_oracle_small(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--q", "2", "--radius", "1")
    assert code == 0
    assert "MISMATCH" not in out
    assert "adjacency" in out


def test_oracle_limit_skips(capsys):
    # the radius-1 vertex groups have exactly 4 elements, so a cap of 2
    # forces them to be skipped rather than reported as failures
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--q", "2", "--radius", "1",
                           "--limit", "2")
    assert code == 0
    assert "skipped" in out


def test_oracle_mismatch_exits_4(monkeypatch, capsys):
    # a failed certification prints MISMATCH, the line perfbench counts as a failure
    monkeypatch.setattr(conghom.oracle, "verify_h1_formula", lambda *args, **kwargs: False)
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--q", "2", "--radius", "1")
    assert code == 4
    assert out.count(": MISMATCH\n") == 6  # 3 vertices and 3 edges in the radius-1 ball
    assert "adjacency: 3 pairs checked, 0 mismatches" in out


def test_oracle_adjacency_mismatch_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(conghom.oracle, "adjacency_oracle", lambda a, b: not adjacency(a, b))
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--q", "2", "--radius", "1")
    assert code == 4
    assert "MISMATCH" not in out
    assert out.count("adjacency mismatch: ") == 3
    assert "adjacency: 3 pairs checked, 3 mismatches" in out


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_oracle_rejects_nonpositive_limit(limit, capsys):
    code, out, err = run_cli(capsys, "oracle", "--n", "3", "--q", "2", "--radius", "1",
                             "--limit", limit)
    assert code == 2
    assert "limit must be at least 1" in err
    assert out == ""


def test_oracle_field_above_one_byte(capsys):
    # coefficients of F_257 do not fit in one byte each
    code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--q", "257", "--radius", "1")
    assert code == 0
    simplices = [line for line in out.splitlines() if line.startswith(("vertex", "edge"))]
    assert len(simplices) == 3
    assert all(line.endswith(": ok") for line in simplices)
    assert "order 257^1, slots 1: ok" in out


# the full `oracle --n 3 --q 2 --radius 3` report, so that any changed line shows
ORACLE_3_2_3 = (
    "vertex (0, 0): order 2^0, slots 0: ok\n"
    "vertex (1, 0): order 2^2, slots 2: ok\n"
    "vertex (1, 1): order 2^2, slots 2: ok\n"
    "vertex (2, 0): order 2^4, slots 4: ok\n"
    "vertex (2, 1): order 2^4, slots 3: ok\n"
    "vertex (2, 2): order 2^4, slots 4: ok\n"
    "vertex (3, 0): order 2^6, slots 6: ok\n"
    "vertex (3, 1): order 2^6, slots 4: ok\n"
    "vertex (3, 2): order 2^6, slots 4: ok\n"
    "vertex (3, 3): order 2^6, slots 6: ok\n"
    "edge ((0, 0), (1, 0)): order 2^0, slots 0: ok\n"
    "edge ((0, 0), (1, 1)): order 2^0, slots 0: ok\n"
    "edge ((1, 0), (1, 1)): order 2^1, slots 1: ok\n"
    "edge ((1, 0), (2, 0)): order 2^2, slots 2: ok\n"
    "edge ((1, 0), (2, 1)): order 2^2, slots 2: ok\n"
    "edge ((1, 1), (2, 1)): order 2^2, slots 2: ok\n"
    "edge ((1, 1), (2, 2)): order 2^2, slots 2: ok\n"
    "edge ((2, 0), (2, 1)): order 2^3, slots 3: ok\n"
    "edge ((2, 0), (3, 0)): order 2^4, slots 4: ok\n"
    "edge ((2, 0), (3, 1)): order 2^4, slots 4: ok\n"
    "edge ((2, 1), (2, 2)): order 2^3, slots 3: ok\n"
    "edge ((2, 1), (3, 1)): order 2^4, slots 3: ok\n"
    "edge ((2, 1), (3, 2)): order 2^4, slots 3: ok\n"
    "edge ((2, 2), (3, 2)): order 2^4, slots 4: ok\n"
    "edge ((2, 2), (3, 3)): order 2^4, slots 4: ok\n"
    "edge ((3, 0), (3, 1)): order 2^5, slots 5: ok\n"
    "edge ((3, 1), (3, 2)): order 2^5, slots 4: ok\n"
    "edge ((3, 2), (3, 3)): order 2^5, slots 5: ok\n"
    "adjacency: 45 pairs checked, 0 mismatches\n"
)


def test_oracle_pinned_stdout(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--q", "2", "--radius", "3")
    assert code == 0
    assert out == ORACLE_3_2_3


@pytest.mark.parametrize("n, q, radius, sha", [
    (3, 3, 2, "163adfbdfa00fe33f78f9c9c2a7917873504bb582ef507390be51fbbabf64499"),
    (2, 5, 3, "53d1fc76f04c02ef719d19da95278d6ba87a060df9180afd9759805d19995b0d"),
    (4, 2, 1, "ed276598ba6153568dcea243c32872c31352e82b57aa8eb7829dbecd88dc69b8"),
])
def test_oracle_pinned_stdout_sha256(n, q, radius, sha, capsys):
    # with (3, 2, 3) above, every configuration of the certify benchmark
    code, out, _ = run_cli(capsys, "oracle", "--n", str(n), "--q", str(q),
                           "--radius", str(radius))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_export_golden(tmp_path, capsys):
    dot = tmp_path / "z.dot"
    mat = tmp_path / "boundary.txt"
    code, _, _ = run_cli(capsys, "export", "--n", "3", "--q", "2", "--radius", "1",
                         "--dot", str(dot), "--matrix", str(mat))
    assert code == 0
    dot_text = dot.read_text()
    node_lines = [l for l in dot_text.splitlines() if l.strip().startswith('"') and "--" not in l]
    edge_lines = [l for l in dot_text.splitlines() if "--" in l]
    assert len(node_lines) == 15
    assert len(edge_lines) == 35
    assert "v0" in dot_text
    mat_text = mat.read_text()
    assert mat_text.splitlines()[0] == "28 21 2"

    # rerun is byte identical
    dot2 = tmp_path / "z2.dot"
    mat2 = tmp_path / "boundary2.txt"
    run_cli(capsys, "export", "--n", "3", "--q", "2", "--radius", "1",
            "--dot", str(dot2), "--matrix", str(mat2))
    assert dot2.read_bytes() == dot.read_bytes()
    assert mat2.read_bytes() == mat.read_bytes()


@pytest.mark.parametrize("n,q,radius,dot_sha,matrix_sha", [
    (3, 2, 1, "3d9f4ccb5fefd2ce9f243d4ae2339cb18bf832d90e388988202303d715d1875d",
     "ec04e83fb8f0abc112ea2d78c75b06416085e8f08ced7b88ea2f68583c15a070"),
    (3, 3, 2, "2f1659d4d7e0768d06e68111480d437ab20954bca038685e9aeb5182a4859f32",
     "324e57ec432a92c96c9ba89d152f3acd9efb082ba06b0c1e58c1d5f3c8835ef6"),
    (4, 2, 1, "2b88895e6fb1c33b15deda486ecdda0c3d2477ce46fbd3ea65b8c6722ad4fdd9",
     "9056c6b61c05d1de35903fc5af487d80422db395cd19e137910eabfd40818e37"),
    (4, 3, 1, "9435a04ddbde554d5aaeafe0070fab27164290fd3cdd4212c631995fe4815cc5",
     "311b7cc99b4e85597caaa512d435fcec69947c72766a495d9c0fc61bfe495a3e"),
])
def test_export_pinned_bytes(n, q, radius, dot_sha, matrix_sha, tmp_path, capsys):
    dot = tmp_path / "z.dot"
    mat = tmp_path / "boundary.txt"
    code, _, _ = run_cli(capsys, "export", "--n", str(n), "--q", str(q), "--radius", str(radius),
                         "--dot", str(dot), "--matrix", str(mat))
    assert code == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == dot_sha
    assert hashlib.sha256(mat.read_bytes()).hexdigest() == matrix_sha


def test_export_names_vertices_above_one_byte_fields(tmp_path, capsys):
    # q = 257 has coefficients up to 256, two bytes each in a vertex name
    dot = tmp_path / "z.dot"
    code, _, _ = run_cli(capsys, "export", "--n", "2", "--q", "257", "--radius", "1",
                         "--dot", str(dot), "--matrix", str(tmp_path / "m.txt"))
    assert code == 0
    names = [l.split('"')[1] for l in dot.read_text().splitlines()
             if l.strip().startswith('"') and "--" not in l]
    assert len(names) == len(set(names)) == 259  # the origin and its q + 1 tree neighbours


def test_export_unwritable(tmp_path, capsys):
    code, _, err = run_cli(capsys, "export", "--n", "2", "--q", "2", "--radius", "1",
                           "--dot", str(tmp_path / "no" / "dir" / "z.dot"),
                           "--matrix", str(tmp_path / "m.txt"))
    assert code == 2
    assert "cannot write" in err


def test_module_entry_point(run_python):
    proc = run_python("-m", "conghom", "compute", "--n", "2", "--q", "2", "--radius", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim_h0"] == 3
