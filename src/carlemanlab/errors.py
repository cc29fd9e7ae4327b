"""Error taxonomy shared across the package.

Two failure classes are distinguished so callers (and the CLI exit codes)
can tell rejected inputs apart from computations that went numerically bad.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition (bad order, R >= 1, size cap...)."""


class NumericFailure(RuntimeError):
    """A numerical procedure failed to converge or produced non-finite values."""


class SizeLimitError(ValidationError):
    """A problem is too large for a size limit of :mod:`carlemanlab.limits`."""
