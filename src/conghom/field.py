"""The prime field context GF(p): a checked prime and its inverses.

Scalars are plain Python ints in [0, p).  A sparse matrix and the
commands carry this context; polynomials and flags are plain tuples,
and the routines on them take p.  This module holds only the context,
so the oracle loads it without the linear algebra of conghom.gf.
"""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GF:
    """Prime-field context.  All operations reduce into [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return pow(a, self.p - 2, self.p)

