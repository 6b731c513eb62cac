"""Exception types shared across the package."""


class RspcertError(Exception):
    """Base class for all package-specific failures."""


class ParseError(RspcertError):
    """Malformed input file; carries the offending location (1-based)."""

    def __init__(self, path, line, column, message):
        self.path = str(path)
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{path}:{line}:{column}: {message}")


class ZeroColumn(RspcertError):
    """A matrix column has numerically zero norm."""


class BudgetExceeded(RspcertError):
    """Subset enumeration would exceed the configured budget."""


class Infeasible(RspcertError):
    """The constraint system admits no nonnegative solution."""


class Unbounded(RspcertError):
    """The linear program has no finite optimum."""


class NotASolution(RspcertError):
    """Candidate vector does not satisfy the linear system."""


class NotNonnegative(RspcertError):
    """Vector has a meaningfully negative entry."""


class NonpositiveWeight(RspcertError):
    """Weight vectors must be strictly positive."""


class CertificateUnavailable(RspcertError):
    """An LP solve gave no trusted result.

    The LP core raises it, or returns it from ``solve_batch``, for an
    optimum that failed its certificate re-check; ``IterationLimit`` is the
    form it takes when the solve broke down.
    """


class IterationLimit(CertificateUnavailable):
    """Simplex pivot limit hit, or the solve broke down; numerically suspect."""


class NoSolutionWithin(RspcertError):
    """No support of size up to ``max_k`` admits a nonnegative solution."""

    def __init__(self, max_k):
        self.max_k = max_k
        super().__init__(f"no nonnegative solution with support size <= {max_k}")
