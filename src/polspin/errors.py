"""Exception types shared across the package."""


class PolspinError(Exception):
    """Base class for package-specific errors."""


class UndefinedPhaseError(PolspinError):
    """Polarization lies on the +-x Stokes axis, where the circle phase is meaningless."""


class DegenerateWeightsError(PolspinError):
    """Pump is detuned so far that both excitation channels underflow to zero."""


class StepSizeError(PolspinError):
    """A span needs more RK4 substeps, or a grid more stepped intervals, than MAX_STEPS."""


class FitDivergedError(PolspinError):
    """Nonlinear least squares failed to reach a usable optimum."""


class InsufficientDataError(PolspinError):
    """Input data violate a fitting precondition."""


class ConfigError(PolspinError):
    """Base class for configuration problems."""


class UnknownKeyError(ConfigError):
    """Config text contains a key outside the schema."""


class ConfigTypeError(ConfigError, TypeError):
    """Config value cannot be converted to the key's declared type."""


class MissingKeyError(ConfigError):
    """A key with no usable default was omitted."""
