"""What every command shares: the exception types, the oracle's default
size limit, and the prime check.

A prime p of GF(p) is the int p: scalars are plain Python ints in
[0, p), and every routine takes the prime as the int p.  The check
lives here, so the CLI and build_Z load it without the linear algebra
of conghom.gf.
"""

DEFAULT_LIMIT = 2 ** 20  # elements the oracle may enumerate; the CLI's --limit default


class InvariantError(RuntimeError):
    """A quantity the construction guarantees failed to hold; indicates a bug
    or a genuine counterexample, never bad user input."""


class OracleLimitError(RuntimeError):
    """Brute-force enumeration would exceed the configured element limit."""


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
