"""The prime check: a prime p of GF(p) is the int p.

Scalars are plain Python ints in [0, p), and every routine takes the
prime as the int p.  This module holds only the check, so the CLI and
build_Z load it without the linear algebra of conghom.gf.
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


def GF(p: int) -> int:
    """The prime p itself, checked: a modulus that is not prime raises ValueError."""
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p
