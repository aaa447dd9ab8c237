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


def check_fields(payload, cls, what):
    """``check_keys`` against the fields of dataclass ``cls``, then raise
    ConfigError naming the first value not of its field's type or, for a
    float, not finite. A bool is not a number; an int is a valid float."""
    check_keys(payload, cls.__dataclass_fields__, what)
    for f in dataclasses.fields(cls):
        if f.name not in payload:
            continue
        value = payload[f.name]
        expected = (int, float) if f.type is float else f.type
        if (not isinstance(value, expected)
                or isinstance(value, bool) != (f.type is bool)):
            raise ConfigError(
                f"{what}: {f.name} must be {f.type.__name__}, got {value!r}")
        if f.type is float and not math.isfinite(value):
            raise ConfigError(f"{what}: {f.name} must be finite, got {value!r}")
