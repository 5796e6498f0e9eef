"""Command-line interface: compute, survive, oracle, export.

Exit codes: 0 success (and expected cokernel dimension), 2 usage error,
3 cokernel dimension above the expected value (a finding), 4 internal
invariant violation.

The prime --q is checked once, in main, and every command passes it on
as the int p.  Each command imports the modules it runs when it starts,
so the module level loads only one small module, errors (the exception
types, the --limit default and the prime check):

- compute: wedge, gf, building and homology (with json).  It streams
  the columns of building.certificate_edges first, when they are fewer
  than the full boundary's: those on the rows of Z_1 are reduced, and
  any other marks its largest row covered.  It reduces the full
  boundary when that does not certify dim_h0 = n^2 - 1
  (homology.compute_h0), so exit 3 always comes from the full boundary;
- export: the same, and poly for the vertex labels;
- survive: wedge;
- oracle: wedge, poly and oracle.  It loads neither the Z_R
  construction (building), nor the boundary (homology), nor the matrix
  code (gf).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

from .errors import DEFAULT_LIMIT, InvariantError, OracleLimitError, _is_prime

if TYPE_CHECKING:
    from .building import ComplexZ


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _dot_text(z: ComplexZ, labels: list) -> str:
    """z as a DOT graph: vertex i is named label_hex(labels[i], q), the origin is v0.

    Each label is the tuple of coefficient-tuple rows that
    building.vertex_label returns.
    """
    from .poly import label_hex

    names = [label_hex(label, z.q) for label in labels]
    lines = ["graph Z {"]
    for rep, name in zip(z.vertices, names):
        if any(rep.vertex):
            lines.append(f'  "{name}";')
        else:  # the origin, fixed by every flag
            lines.append(f'  "{name}" [shape=doublecircle, label="v0"];')
    for ia, ib in z.edges:
        lines.append(f'  "{names[ia]}" -- "{names[ib]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_compute(args: argparse.Namespace) -> int:
    import json

    from .homology import compute_h0

    t0 = time.monotonic()
    report = compute_h0(args.n, args.q, args.radius)
    doc = report.to_dict()
    doc["timing_ms"] = int((time.monotonic() - t0) * 1000)
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _usage_error(f"cannot write output: {exc}")
    else:
        print(text)
    return 0 if report.meets_conjecture else 3


def cmd_survive(args: argparse.Namespace) -> int:
    from .wedge import BoundProfile, root_order, surviving_degrees

    try:
        values = [int(v) for v in args.bounds.split(",")]
    except ValueError:
        return _usage_error("bounds must be a comma-separated list of integers")
    try:
        surv = surviving_degrees(BoundProfile.from_upper_bounds(args.n, values))
    except ValueError as exc:
        return _usage_error(str(exc))
    parts = []
    for pair in root_order(args.n):
        if pair in surv:
            degs = ",".join(str(d) for d in surv[pair])
            parts.append(f"({pair[0]},{pair[1]}):[{degs}]")
    if parts:
        print(" ".join(parts))
    print(f"dimension {sum(len(v) for v in surv.values())}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import adjacency_oracle, expected_order_exponent, verify_h1_formula
    from .wedge import adjacency, bound_profile, h1_basis, standard_ball

    if args.limit < 1:
        return _usage_error("limit must be at least 1")
    verts, edges = standard_ball(args.n, args.radius)
    simplices = [(f"vertex {v}", [v]) for v in verts]
    simplices += [(f"edge {e}", list(e)) for e in edges]
    failures = 0
    skipped = 0
    for name, simplex in simplices:
        profile = bound_profile(simplex)
        expo = expected_order_exponent(profile)
        dim = h1_basis(profile).dim
        try:
            ok = verify_h1_formula(profile, args.q, limit=args.limit)
        except OracleLimitError:
            skipped += 1
            print(f"{name}: order {args.q}^{expo} exceeds limit, skipped")
            continue
        status = "ok" if ok else "MISMATCH"
        if not ok:
            failures += 1
        print(f"{name}: order {args.q}^{expo}, slots {dim}: {status}")

    pair_failures = 0
    pairs = 0
    for idx, a in enumerate(verts):
        for b in verts[idx + 1:]:
            pairs += 1
            if adjacency(a, b) != adjacency_oracle(a, b):
                pair_failures += 1
                print(f"adjacency mismatch: {a} vs {b}")
    print(f"adjacency: {pairs} pairs checked, {pair_failures} mismatches")
    if skipped:
        print(f"skipped {skipped} oversized groups")
    return 0 if failures == 0 and pair_failures == 0 else 4


def cmd_export(args: argparse.Namespace) -> int:
    from .building import build_Z, order_by_label
    from .homology import assemble_boundary

    z, labels = order_by_label(build_Z(args.n, args.q, args.radius))
    boundary, _ = assemble_boundary(z)
    try:
        with open(args.dot, "w") as fh:
            fh.write(_dot_text(z, labels))
        with open(args.matrix, "w") as fh:
            fh.write(f"{boundary.rows} {boundary.cols} {boundary.p}\n")
            fh.writelines(f"{r} {c} {v}\n" for r, c, v in boundary.triples())
    except OSError as exc:
        return _usage_error(f"cannot write output: {exc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conghom",
        description="Cokernel dimensions for the level-t congruence kernel of SL_n(F_q[t])",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, required=True, help="matrix dimension, at least 2")
        sp.add_argument("--q", type=int, required=True, help="prime field size")
        sp.add_argument("--radius", type=int, required=True, help="slice radius, at least 1")

    sp = sub.add_parser("compute", help="build Z_R and report the cokernel dimension")
    common(sp)
    sp.add_argument("--out", help="write the JSON report here instead of stdout")
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("survive", help="surviving degrees of an explicit profile")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--bounds", required=True,
                    help="upper-triangle caps, e.g. 1,1,3 for (1,2),(2,3),(1,3)")
    sp.set_defaults(func=cmd_survive)

    sp = sub.add_parser("oracle", help="brute-force certification sweep")
    common(sp)
    sp.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                    help="most elements to enumerate per stabilizer group; a larger "
                         "group is skipped. Caps the elements, not the work per element")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("export", help="write the graph (DOT) and boundary matrix (triples)")
    common(sp)
    sp.add_argument("--dot", default="z.dot")
    sp.add_argument("--matrix", default="boundary.txt")
    sp.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", 2) < 2:
        return _usage_error("n must be at least 2")
    if getattr(args, "radius", 1) < 1:
        return _usage_error("radius must be at least 1")
    if not _is_prime(getattr(args, "q", 2)):
        return _usage_error("q must be prime")
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
