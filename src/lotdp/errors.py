"""Exception types shared across the package."""


class LotSizingError(Exception):
    """Base class for package-specific errors."""


class SchemaError(LotSizingError, ValueError):
    """A JSON document does not match the expected wire format."""


class VolumeBoundsError(LotSizingError, ValueError):
    """A batch volume falls outside the supplier's allowed window."""


class FeasibilityError(LotSizingError):
    """A candidate solution violates one or more problem constraints."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class InvalidInstanceError(LotSizingError):
    """Instance data fails structural validation; the message joins every
    violation found."""


class InfeasibleInstanceError(LotSizingError):
    """No delivery plan can cover the demand."""


class ResourceLimitError(LotSizingError):
    """A configured size guard (table cells, oracle candidates) would be exceeded."""
