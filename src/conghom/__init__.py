"""Exact computation of the abelianization of the level-t congruence
kernel of SL_n(F_q[t]) through a radius-limited fundamental-domain slice.

The exports below load on first use: each name imports its submodule
when it is first read (PEP 562), so `import conghom` alone, and with it
`python -m conghom`, loads no submodule, and each command loads only
the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "building": ("ComplexZ", "build_Z", "enumerate_flag_reps", "vertex_label"),
    "errors": ("InvariantError", "OracleLimitError"),
    "field": ("GF",),
    "gf": ("DenseMatrix", "SparseMatrix", "inverse", "rref", "sparse_rank"),
    "homology": ("HomologyReport", "assemble_boundary", "edge_inclusion", "h0_dimension"),
    "oracle": ("FiniteGroupTable", "abelianization_dim", "adjacency_oracle",
               "commutator_subgroup", "generate_group", "verify_h1_formula"),
    "poly": ("CanonicalLabel", "Poly", "PolyMatrix", "column_hnf", "lattice_contains",
             "lattice_label", "poly_divmod", "polymat_det"),
    "wedge": ("BoundProfile", "H1Basis", "WeightSlot", "adjacency", "bound_profile",
              "h1_basis", "standard_ball", "surviving_degrees"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
