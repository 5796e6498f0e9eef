import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conghom
from conghom.cli import main


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


def test_compute_bad_radius(capsys):
    code, _, _ = run_cli(capsys, "compute", "--n", "3", "--q", "2", "--radius", "0")
    assert code == 2


def test_compute_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "compute", "--n", "2", "--q", "2", "--radius", "1",
                         "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["dim_h0"] == 3


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


def test_export_unwritable(tmp_path, capsys):
    code, _, err = run_cli(capsys, "export", "--n", "2", "--q", "2", "--radius", "1",
                           "--dot", str(tmp_path / "no" / "dir" / "z.dot"),
                           "--matrix", str(tmp_path / "m.txt"))
    assert code == 2
    assert "cannot write" in err


def test_module_entry_point():
    # the child imports the same package as this process, however it got on sys.path
    src = str(Path(conghom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "conghom", "compute", "--n", "2", "--q", "2", "--radius", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim_h0"] == 3
