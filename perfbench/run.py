#!/usr/bin/env python3
"""Benchmark of the conghom pipeline, measured from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the real CLI (``python -m conghom compute|oracle``),
one child process per configuration and one at a time, in passes over
the workload's configurations until ``--seconds`` are used up (at least
one pass).  Each output is checked against pinned values, and the
end-to-end metrics are reported: ``wall_s`` and ``cpu_s`` (per
configuration the median over passes, summed over configurations),
``peak_rss_mb`` (largest peak RSS of any child) and ``setup_s`` (median
time of a fresh interpreter that only imports ``conghom.cli``).

``--trace 1`` makes one untraced pass through the CLI and then runs the
workload once more in this process, calling the public stage functions
of each layer inside spans.  It prints one stage-table row per
configuration, writes the spans to ``.perfbench_out/`` and reports the
per-layer metrics.

``--workload all`` runs every workload in turn.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, self_time
from workloads import WORKLOADS, Config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 21
# A run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.wall_s": "s",
    "cli.error_rate": "ratio",
    "building.flags_s": "s",
    "building.flags": "count",
    "building.build_s": "s",
    "building.labels": "count",
    "building.vertices": "count",
    "building.edges": "count",
    "building.dedup_ratio": "ratio",
    "homology.assemble_s": "s",
    "homology.inclusions": "count",
    "homology.dim_c0": "count",
    "homology.dim_c1": "count",
    "homology.nnz": "count",
    "homology.dim_h0": "count",
    "gf.rank_s": "s",
    "gf.rank": "count",
    "oracle.verify_s": "s",
    "oracle.simplices": "count",
    "oracle.group_order_sum": "count",
    "oracle.certified_ratio": "ratio",
    "oracle.adjacency_s": "s",
    "oracle.pairs": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    """One child process: its resource use and whether its output was right."""

    config: Config
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    reason: str = ""
    observed: dict = field(default_factory=dict)


class Budget:
    """Time left before the run must end."""

    def __init__(self, seconds: float = RUN_BUDGET_S) -> None:
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], timeout: float
          ) -> tuple[int | None, bytes, bytes, float, float, float]:
    """Run a child to its exit; return (exit code, stdout, stderr, wall, cpu, peak RSS in MB).

    CPU time and peak RSS come from this child's own rusage via wait4.
    The exit code is None when the child was killed for exceeding
    ``timeout``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out: dict = {proc.stdout: [], proc.stderr: []}
    streams = [proc.stdout, proc.stderr]
    timed_out = False
    try:
        while streams:
            remaining = t0 + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            ready, _, _ = select.select(streams, [], [], remaining)
            for stream in ready:
                data = os.read(stream.fileno(), 1 << 16)
                if data:
                    out[stream].append(data)
                else:
                    streams.remove(stream)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    code = None if timed_out else proc.returncode
    return (code, b"".join(out[proc.stdout]), b"".join(out[proc.stderr]), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def check_output(config: Config, code: int | None, stdout: bytes) -> tuple[bool, str, dict]:
    """Compare one CLI invocation with the configuration's pinned outputs."""
    if code is None:
        return False, "timed out", {}
    if code != 0:
        return False, f"exit code {code}", {}
    text = stdout.decode(errors="replace")
    if config.command == "compute":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return False, "output is not JSON", {}
        observed = {k: doc.get(k) for k in config.pins}
    else:
        lines = text.splitlines()
        if any("MISMATCH" in ln or ln.startswith("adjacency mismatch") or "skipped" in ln
               for ln in lines):
            return False, "oracle reported a mismatch or a skipped group", {}
        summary = [ln for ln in lines if ln.startswith("adjacency: ")]
        if len(summary) != 1 or not summary[0].endswith(" 0 mismatches"):
            return False, "no clean adjacency summary", {}
        observed = {"ok": sum(1 for ln in lines if ln.endswith(": ok")),
                    "pairs": int(summary[0].split()[1])}
    wrong = {k: (observed[k], v) for k, v in config.pins.items() if observed[k] != v}
    if wrong:
        return False, "pinned output differs: " + ", ".join(
            f"{k} {got} != {want}" for k, (got, want) in sorted(wrong.items())), observed
    return True, "", observed


def invoke(config: Config, budget: Budget) -> Invocation:
    if budget.left() <= 1.0:
        return Invocation(config, 0.0, 0.0, 0.0, False, "run time budget used up")
    code, stdout, stderr, wall, cpu, rss = spawn(
        [sys.executable, "-m", "conghom", *config.argv()], budget.left())
    ok, reason, observed = check_output(config, code, stdout)
    if stderr.strip() and not ok:
        reason += "; stderr: " + stderr.decode(errors="replace").strip().splitlines()[-1]
    return Invocation(config, wall, cpu, rss, ok, reason, observed)


def measure_setup(repeats: int, budget: Budget) -> float:
    """Median wall time of a fresh interpreter that imports conghom.cli."""
    walls = []
    for _ in range(repeats):
        code, _, stderr, wall, _, _ = spawn([sys.executable, "-c", "import conghom.cli"],
                                            budget.left())
        if code != 0:
            raise RuntimeError("a fresh interpreter cannot import conghom.cli: "
                               + stderr.decode(errors="replace"))
        walls.append(wall)
    return statistics.median(walls)


def cli_passes(configs: list[Config], seconds: float, rng: random.Random,
               budget: Budget) -> list[list[Invocation]]:
    """Passes over the configurations, each in a fresh seeded order.

    A new pass starts only if one more pass of the last pass's length
    still fits in ``seconds``; the first pass always runs.
    """
    start = time.perf_counter()
    passes = []
    while True:
        order = list(configs)
        rng.shuffle(order)
        t = time.perf_counter()
        passes.append([invoke(c, budget) for c in order])
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds or budget.left() < 2 * took:
            return passes


def end_to_end(passes: list[list[Invocation]]) -> dict:
    by_config: dict[str, list[Invocation]] = {}
    for inv in (i for p in passes for i in p):
        by_config.setdefault(inv.config.name, []).append(inv)
    return {
        "wall_s": sum(statistics.median(i.wall_s for i in v) for v in by_config.values()),
        "cpu_s": sum(statistics.median(i.cpu_s for i in v) for v in by_config.values()),
        "peak_rss_mb": max(i.rss_mb for v in by_config.values() for i in v),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class TracedRun:
    """Runs configurations in this process with a span around each stage call."""

    def __init__(self, tracer: Tracer) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import conghom  # noqa: F401  (fails here, not mid-trace, on a broken checkout)

        self.tracer = tracer
        self.counts: Counter = Counter()
        self.rows: dict[str, str] = {}

    def compute(self, config: Config, trace_id: str) -> dict:
        from conghom import (GF, assemble_boundary, build_Z, enumerate_flag_reps,
                             sparse_rank, standard_ball)

        span = self.tracer.span
        n, q, radius = config.n, config.q, config.radius
        with span("config", trace_id, config=config.name) as root:
            with span("enumerate_flag_reps", trace_id) as s_flags:
                flags = enumerate_flag_reps(n, GF(q))
            with span("build_Z", trace_id) as s_build:
                z = build_Z(n, q, radius, flag_reps=flags)
            with span("assemble_boundary", trace_id) as s_asm:
                boundary, index = assemble_boundary(z)
            with span("sparse_rank", trace_id) as s_rank:
                rank = sparse_rank(boundary)
        ball = len(standard_ball(n, radius)[0])
        c = self.counts
        c["building.flags"] += len(flags)
        c["building.labels"] += len(flags) * ball
        c["building.vertices"] += len(z.vertices)
        c["building.edges"] += len(z.edges)
        c["homology.inclusions"] += 2 * sum(1 for _, _, b in index.edge_blocks if b.dim)
        c["homology.dim_c0"] += index.dim_c0
        c["homology.dim_c1"] += index.dim_c1
        c["homology.nnz"] += boundary.nnz()
        c["gf.rank"] += rank
        c["homology.dim_h0"] += index.dim_c0 - rank
        self.rows[config.name] = (
            f"{config.name:<16} {len(flags):>6} {len(z.vertices):>5}/{len(z.edges):<6} "
            f"{boundary.nnz():>7} {s_flags.duration:>6.2f} {s_build.duration:>6.2f} "
            f"{s_asm.duration:>8.2f} {s_rank.duration:>6.2f} {root.duration:>7.2f}")
        return {"dim_c0": index.dim_c0, "dim_c1": index.dim_c1,
                "rank_boundary": rank, "dim_h0": index.dim_c0 - rank}

    def oracle(self, config: Config, trace_id: str) -> dict:
        from conghom import GF, OracleLimitError, adjacency, adjacency_oracle, bound_profile
        from conghom import standard_ball, verify_h1_formula
        from conghom.oracle import expected_order_exponent

        span = self.tracer.span
        field_ = GF(config.q)
        ok = skipped = mismatches = pairs = order_sum = 0
        with span("config", trace_id, config=config.name) as root:
            verts, edges = standard_ball(config.n, config.radius)
            simplices = [[v] for v in verts] + [list(e) for e in edges]
            for simplex in simplices:
                profile = bound_profile(simplex)
                order_sum += config.q ** expected_order_exponent(profile)
                with span("verify_h1_formula", trace_id):
                    try:
                        ok += verify_h1_formula(profile, field_)
                    except OracleLimitError:
                        skipped += 1
            for idx, a in enumerate(verts):
                for b in verts[idx + 1:]:
                    pairs += 1
                    with span("adjacency", trace_id):
                        fast = adjacency(a, b)
                    with span("adjacency_oracle", trace_id):
                        mismatches += fast != adjacency_oracle(a, b)
        c = self.counts
        c["oracle.simplices"] += len(simplices)
        c["oracle.group_order_sum"] += order_sum
        c["oracle.pairs"] += pairs
        c["oracle.ok"] += ok
        verify = sum(s.duration for s in self.tracer.children(root) if s.name == "verify_h1_formula")
        adj = sum(s.duration for s in self.tracer.children(root) if s.name == "adjacency_oracle")
        self.rows[config.name] = (
            f"{config.name:<16} {len(simplices):>9} {pairs:>6} {verify:>8.2f} {adj:>9.2f} "
            f"{root.duration:>7.2f}")
        return {"ok": ok, "pairs": pairs, "skipped": skipped, "mismatches": mismatches}


def check_traced(config: Config, got: dict, cli: Invocation) -> tuple[bool, str]:
    """Traced outputs must match the pins and, for compute, the CLI's own dim_h0."""
    wrong = [f"{k} {got[k]} != {v}" for k, v in config.pins.items() if got[k] != v]
    if config.command == "compute":
        floor = config.n * config.n - 1
        if got["dim_h0"] < floor:
            wrong.append(f"dim_c0 - rank {got['dim_h0']} below n^2-1 = {floor}")
        if cli.observed.get("dim_h0") != got["dim_h0"]:
            wrong.append("dim_c0 - rank differs from the CLI's dim_h0")
    elif got["skipped"] or got["mismatches"]:
        wrong.append(f"{got['skipped']} skipped, {got['mismatches']} adjacency mismatches")
    return not wrong, "; ".join(wrong)


def run_traced(workload: str, configs: list[Config], seed: int, rng: random.Random,
               budget: Budget) -> tuple[dict, int, int]:
    """One untraced CLI pass, then one traced pass; returns (metrics, attempted, failed)."""
    cli = cli_passes(configs, 0.0, rng, budget)[0]
    tracer = Tracer()
    traced = TracedRun(tracer)
    failed = 0
    for inv in cli:
        if not inv.ok:
            failed += 1
            print(f"FAILED {inv.config.name}: {inv.reason}")
    for idx, inv in enumerate(cli):
        config = inv.config
        got = getattr(traced, config.command)(config, f"{workload}-{seed}-{idx}-{config.name}")
        ok, reason = check_traced(config, got, inv)
        if not ok:
            failed += 1
            print(f"FAILED traced {config.name}: {reason}")

    roots = [s for s in tracer.spans if s.name == "config"]
    traced_wall = sum(s.duration for s in roots)
    cli_wall = sum(i.wall_s for i in cli)
    counts = traced.counts
    metrics = {
        "cli.wall_s": cli_wall,
        "cli.error_rate": _ratio(sum(1 for i in cli if not i.ok), len(cli)),
        "building.flags_s": tracer.total("enumerate_flag_reps"),
        "building.build_s": tracer.total("build_Z"),
        "homology.assemble_s": tracer.total("assemble_boundary"),
        "gf.rank_s": tracer.total("sparse_rank"),
        "oracle.verify_s": tracer.total("verify_h1_formula"),
        "oracle.adjacency_s": tracer.total("adjacency_oracle"),
        "trace.unattributed_s": sum(self_time(r, tracer.children(r)) for r in roots),
        "trace.overhead_s": traced_wall - cli_wall,
        "building.dedup_ratio": _ratio(counts["building.vertices"], counts["building.labels"]),
        "oracle.certified_ratio": _ratio(counts["oracle.ok"], counts["oracle.simplices"]),
        **{k: counts[k] for k, unit in PER_LAYER_UNITS.items() if unit == "count"},
    }

    print(f"stage table, workload {workload} (seconds from the traced pass)")
    if any(c.command == "compute" for c in configs):
        print(f"{'n,q,R':<16} {'flags':>6} {'|V|/|E|':<12} {'nnz':>7} {'flags':>6} "
              f"{'build':>6} {'assemble':>8} {'rank':>6} {'total':>7}")
    if any(c.command == "oracle" for c in configs):
        print(f"{'n,q,R':<16} {'simplices':>9} {'pairs':>6} {'verify':>8} {'adjacency':>9} "
              f"{'total':>7}")
    for config in configs:
        print(traced.rows[config.name])
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({"workload": workload, "seed": seed, "spans": tracer.to_json()}))
    print(f"spans written to {out}")
    return metrics, 2 * len(cli), failed


def run_untraced(workload: str, configs: list[Config], seconds: float, rng: random.Random,
                 budget: Budget) -> tuple[dict, int, int]:
    """Set-up samples, then timed CLI passes; returns (metrics, attempted, failed)."""
    setup = measure_setup(SETUP_REPEATS, budget)
    passes = cli_passes(configs, seconds, rng, budget)
    invocations = [i for p in passes for i in p]
    for inv in invocations:
        if not inv.ok:
            print(f"FAILED {inv.config.name}: {inv.reason}")
    failed = sum(1 for i in invocations if not i.ok)
    metrics = {**end_to_end(passes), "setup_s": setup}
    print(f"workload {workload}: {len(passes)} pass(es) over {len(configs)} configuration(s)")
    for name in END_TO_END_UNITS:
        print(f"  {name:<12} {metrics[name]:.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'error_rate':<12} {_ratio(failed, len(invocations)):.4f} ratio"
          f" ({failed} of {len(invocations)} invocations failed)")
    return metrics, len(invocations), failed


def run_workload(workload: str, configs: list[Config], seed: int, seconds: float,
                 trace: bool, budget: Budget) -> dict:
    """One run of a workload; returns the result object the benchmark prints."""
    rng = random.Random(seed)
    if trace:
        metrics, attempted, failed = run_traced(workload, configs, seed, rng, budget)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, failed = run_untraced(workload, configs, seconds, rng, budget)
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "conghom" / "cli.py").is_file():
        print(f"error: no conghom sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    budget = Budget(RUN_BUDGET_S * len(names))
    results = {w: run_workload(w, list(WORKLOADS[w]), args.seed, args.seconds,
                               bool(args.trace), budget)
               for w in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
