"""Exception types shared across modules, and the oracle's default size limit."""

DEFAULT_LIMIT = 2 ** 20  # elements the oracle may enumerate; the CLI's --limit default


class InvariantError(RuntimeError):
    """A quantity the construction guarantees failed to hold; indicates a bug
    or a genuine counterexample, never bad user input."""


class OracleLimitError(RuntimeError):
    """Brute-force enumeration would exceed the configured element limit."""
