"""Exception types shared across the package."""

import dataclasses
import math


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


def check_value(value, expected, what):
    """Raise ConfigError naming ``what`` unless ``value`` is of type
    ``expected`` and, for a float, finite. A bool is not a number; an int
    is a valid float."""
    accepted = (int, float) if expected is float else expected
    if (not isinstance(value, accepted)
            or isinstance(value, bool) != (expected is bool)):
        raise ConfigError(
            f"{what} must be {expected.__name__}, got {value!r}")
    if expected is float and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")


def check_fields(payload, cls, what):
    """``check_keys`` against the fields of dataclass ``cls``, then
    ``check_value`` on each given value against its field's type."""
    check_keys(payload, cls.__dataclass_fields__, what)
    for f in dataclasses.fields(cls):
        if f.name in payload:
            check_value(payload[f.name], f.type, f"{what}: {f.name}")
