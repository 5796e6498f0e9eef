"""Elements of SL_n(F_q[t]) and the elementary matrices that generate groups.

A GroupElement is a determinant-one polynomial matrix, checked at
construction.  The oracle realizes each simplex stabilizer as the group
generated by the elementaries I + E_ij(a) that its bound profile allows.
"""

from __future__ import annotations

from .gf import GF
from .poly import Poly, PolyMatrix, polymat_det


class GroupElement:
    """Member of SL_n(F_q[t]); determinant one is checked at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: PolyMatrix) -> None:
        if polymat_det(matrix) != Poly.one(matrix.field):
            raise ValueError("matrix does not have determinant one")
        self.matrix = matrix

    @property
    def field(self) -> GF:
        return self.matrix.field

    @property
    def n(self) -> int:
        return self.matrix.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"GroupElement({self.matrix!r})"


def elementary(i: int, j: int, a: Poly, n: int) -> GroupElement:
    """The element I + E_ij(a), 1-based indices, i != j."""
    if i == j:
        raise ValueError("elementary matrices require distinct indices")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("index out of range")
    field = a.field
    rows = [[Poly.one(field) if r == c else Poly.zero(field) for c in range(n)]
            for r in range(n)]
    rows[i - 1][j - 1] = a
    return GroupElement(PolyMatrix(field, rows))
