"""Exact computation of the abelianization of the level-t congruence
kernel of SL_n(F_q[t]) through a radius-limited fundamental-domain slice.

The exports below load on first use: each name imports its submodule
when it is first read (PEP 562), so `import conghom` alone, and with it
`python -m conghom`, loads no submodule, and each command loads only
the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "building": ("BoundProfile", "ComplexZ", "adjacency", "bound_profile", "build_Z",
                 "enumerate_flag_reps", "standard_ball", "vertex_label"),
    "congruence": ("GroupElement", "elementary"),
    "errors": ("InvariantError", "OracleLimitError"),
    "gf": ("GF", "DenseMatrix", "SparseMatrix", "inverse", "rref", "sparse_rank"),
    "homology": ("H1Basis", "HomologyReport", "WeightSlot", "assemble_boundary",
                 "edge_inclusion", "h0_dimension", "h1_basis", "surviving_degrees"),
    "oracle": ("FiniteGroupTable", "abelianization_dim", "adjacency_oracle",
               "commutator_subgroup", "generate_group", "verify_h1_formula"),
    "poly": ("CanonicalLabel", "Poly", "PolyMatrix", "column_hnf", "lattice_contains",
             "lattice_label", "poly_divmod", "polymat_det"),
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
