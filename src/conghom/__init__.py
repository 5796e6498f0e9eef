"""Exact computation of the abelianization of the level-t congruence
kernel of SL_n(F_q[t]) through a radius-limited fundamental-domain slice."""

from .building import (
    BoundProfile,
    ComplexZ,
    adjacency,
    bound_profile,
    build_Z,
    enumerate_flag_reps,
    standard_ball,
    vertex_label,
)
from .congruence import GroupElement, elementary
from .errors import InvariantError, OracleLimitError
from .gf import GF, DenseMatrix, SparseMatrix, inverse, rref, sparse_rank
from .homology import (
    H1Basis,
    HomologyReport,
    WeightSlot,
    assemble_boundary,
    edge_inclusion,
    h0_dimension,
    h1_basis,
    surviving_degrees,
)
from .oracle import (
    FiniteGroupTable,
    abelianization_dim,
    adjacency_oracle,
    commutator_subgroup,
    generate_group,
    verify_h1_formula,
)
from .poly import (
    CanonicalLabel,
    Poly,
    PolyMatrix,
    column_hnf,
    lattice_contains,
    lattice_label,
    poly_divmod,
    polymat_det,
)

__all__ = [
    "BoundProfile", "ComplexZ", "adjacency", "bound_profile", "build_Z",
    "enumerate_flag_reps", "standard_ball", "vertex_label",
    "GroupElement", "elementary",
    "InvariantError", "OracleLimitError",
    "GF", "DenseMatrix", "SparseMatrix", "inverse", "rref", "sparse_rank",
    "H1Basis", "HomologyReport", "WeightSlot", "assemble_boundary",
    "edge_inclusion", "h0_dimension", "h1_basis", "surviving_degrees",
    "FiniteGroupTable", "abelianization_dim", "adjacency_oracle",
    "commutator_subgroup", "generate_group", "verify_h1_formula",
    "CanonicalLabel", "Poly", "PolyMatrix", "column_hnf", "lattice_contains",
    "lattice_label", "poly_divmod", "polymat_det",
]
