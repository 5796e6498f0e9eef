"""Fixed configurations of each workload and the outputs pinned for them.

Every configuration runs with the CLI defaults (no ``--threads``).  The
seed given to the benchmark only permutes the order in which a
workload's configurations run; the configurations themselves are fixed,
so every run computes the same numbers and they can be pinned.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """One CLI invocation: ``python -m conghom <command> --n --q --radius``.

    ``pins`` holds the outputs the invocation must reproduce.  For
    ``compute`` they are fields of the JSON report; for ``oracle`` they
    are the number of simplices reported ``ok`` and the number of
    adjacency pairs checked.
    """

    command: str
    n: int
    q: int
    radius: int
    pins: dict

    @property
    def name(self) -> str:
        return f"{self.command}({self.n},{self.q},{self.radius})"

    def argv(self) -> list[str]:
        return [self.command, "--n", str(self.n), "--q", str(self.q),
                "--radius", str(self.radius)]


def compute(n: int, q: int, radius: int, dim_c0: int, dim_c1: int,
            rank_boundary: int, dim_h0: int) -> Config:
    return Config("compute", n, q, radius, {
        "dim_c0": dim_c0, "dim_c1": dim_c1,
        "rank_boundary": rank_boundary, "dim_h0": dim_h0,
    })


def oracle(n: int, q: int, radius: int, ok: int, pairs: int) -> Config:
    return Config("oracle", n, q, radius, {"ok": ok, "pairs": pairs})


# Larger configurations -- (5,2,1) at about 65 s, (4,3,2) and (5,2,2) --
# are left out on purpose: one run of them would not fit the time a
# benchmark run may take.  They belong in a later benchmark once the
# rank, assembly and labelling stages are faster.
WORKLOADS: dict[str, tuple[Config, ...]] = {
    # Large radius and small q: few flags but big boundaries with many
    # t-degrees.  Rank and assembly dominate; flags and build are ~4%.
    "deep": (
        compute(3, 3, 4, 1872, 5044, 1864, 8),
        compute(4, 2, 2, 2265, 11045, 2250, 15),
    ),
    # Radius one: many flags, tiny balls and a single t-degree block.
    # Flag enumeration and build_Z take over half the time, the opposite
    # shape of building work from ``deep``.
    "wide": (
        compute(3, 7, 1, 228, 456, 220, 8),
        compute(4, 3, 1, 760, 2600, 745, 15),
    ),
    # The brute-force oracle: verify_h1_formula per simplex and the
    # lattice adjacency check per vertex pair.  It never calls build_Z,
    # assemble_boundary or sparse_rank.
    "certify": (
        oracle(3, 2, 3, 28, 45),
        oracle(3, 3, 2, 15, 15),
        oracle(2, 5, 3, 7, 6),
        oracle(4, 2, 1, 10, 6),
    ),
}
