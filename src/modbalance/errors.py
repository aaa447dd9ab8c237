"""Exception types shared across the package."""


class ModBalanceError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ModBalanceError):
    """Operands have incompatible shapes."""


class ConfigError(ModBalanceError):
    """A configuration value is missing or out of range."""


class DatasetError(ModBalanceError):
    """A dataset file or spec failed validation."""


class DivergenceError(ModBalanceError):
    """Training produced a non-finite loss or gradient."""


class CheckpointError(ModBalanceError):
    """A checkpoint file is malformed or does not match the model."""


def check_keys(payload, known, what):
    """Raise ConfigError unless ``payload`` is a dict with only ``known`` keys."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} must be a JSON object, got {payload!r}")
    unknown = set(payload) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")
