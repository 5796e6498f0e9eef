"""Tests of the benchmark's own code: metric names, the pinned-output gate
and the span arithmetic.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Span, Tracer, self_time  # noqa: E402
from workloads import compute, oracle  # noqa: E402

SMOKE = [compute(3, 2, 1, 28, 21, 20, 8), oracle(3, 2, 1, 6, 3)]


def declared_units(kind: str) -> dict:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_smoke_emits_every_declared_metric_with_its_unit(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload("smoke", SMOKE, 0, 0, trace, run.Budget())
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared_units(kind)
        values = [m["value"] for m in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) for v in values)
        if not trace:
            assert all(v > 0 for v in values)
        json.dumps(result)
    assert (tmp_path / "trace-smoke-seed0.json").is_file()


def test_wrong_pin_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    wrong = [compute(3, 2, 1, 28, 21, 20, 9)]
    untraced = run.run_workload("smoke", wrong, 0, 0, False, run.Budget())
    assert (untraced["attempted"], untraced["failed"], untraced["correct"]) == (1, 1, False)
    traced = run.run_workload("smoke", wrong, 0, 0, True, run.Budget())
    assert (traced["attempted"], traced["failed"], traced["correct"]) == (2, 2, False)
    assert traced["metrics"]["cli.error_rate"]["value"] == 1.0


def test_oracle_mismatch_or_skip_fails_the_check():
    cfg = oracle(3, 2, 1, 1, 3)
    clean = b"vertex (0, 0): order 2^0, slots 0: ok\nadjacency: 3 pairs checked, 0 mismatches\n"
    assert run.check_output(cfg, 0, clean)[0]
    assert not run.check_output(cfg, 0, clean.replace(b": ok", b": MISMATCH"))[0]
    assert not run.check_output(cfg, 0, clean + b"skipped 1 oversized groups\n")[0]
    assert not run.check_output(cfg, 0, clean.replace(b" 0 mismatches", b" 1 mismatches"))[0]
    assert not run.check_output(cfg, 4, clean)[0]
    assert not run.check_output(cfg, None, clean)[0]


def test_self_time_subtracts_the_union_of_clipped_children():
    parent = Span(0, "t", None, "config", 0.0, 10.0)
    kids = [Span(1, "t", 0, "a", 1.0, 3.0), Span(2, "t", 0, "b", 2.0, 5.0),
            Span(3, "t", 0, "c", 9.0, 12.0)]
    # covered: [1, 5] and [9, 10]
    assert self_time(parent, kids) == 5.0
    assert self_time(parent, []) == 10.0


def test_tracer_nests_spans_and_shares_the_trace_id():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("config", "cfg-1") as root:
        with tracer.span("build_Z", "cfg-1"):
            pass
        with tracer.span("sparse_rank", "cfg-1"):
            pass
    kids = tracer.children(root)
    assert [k.name for k in kids] == ["build_Z", "sparse_rank"]
    assert all(k.parent == root.id and k.trace_id == root.trace_id for k in kids)
    assert root.duration == 10.0
    assert self_time(root, kids) == 10.0 - 3.0 - 2.0
    assert tracer.total("build_Z") == 3.0
