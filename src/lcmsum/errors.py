"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured memory or work budget."""


class PrecisionError(RuntimeError):
    """The requested error bound is not reachable with the configured parameters.

    Carries the best rigorous bound that *was* achieved, so callers can decide
    whether to retry with more precision or accept the weaker certificate.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class PeriodDetectionError(RuntimeError):
    """Lattice counts do not fit their certified period bounds; raw counts attached."""

    def __init__(self, message, samples=None):
        super().__init__(message)
        self.samples = samples


class InvariantViolation(RuntimeError):
    """Two independently computed quantities that must agree do not."""
