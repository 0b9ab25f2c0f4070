"""Exception types shared across the package."""


class ThreeBodyError(Exception):
    """Base class for all package errors."""


class ModelValidationError(ThreeBodyError):
    """A model specification violates one of its invariants.

    Carries the full list of violations so callers can report all of
    them at once.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NonConfiningTrap(ModelValidationError):
    pass


class NegativeCoupling(ModelValidationError):
    pass


class MissingParameter(ModelValidationError):
    pass


class ConfigError(ThreeBodyError):
    """Malformed config file. ``line`` is 1-based, or None for global issues."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedTrap(ThreeBodyError):
    pass


class TooFewPoints(ThreeBodyError):
    pass


class BoxTooSmall(ThreeBodyError):
    pass


class GridMismatch(ThreeBodyError):
    pass


class TruncationRisk(ThreeBodyError):
    pass


class GridResolutionTooCoarse(ThreeBodyError):
    pass


class ResourceBudgetExceeded(ThreeBodyError):
    pass


class NonInvariantSubspace(ThreeBodyError):
    pass


class NonIntegerMultiplicity(ThreeBodyError):
    pass


class DimensionMismatch(ThreeBodyError):
    pass


class MissingEnergyLabel(ThreeBodyError):
    pass


class NotGold(ThreeBodyError):
    pass
