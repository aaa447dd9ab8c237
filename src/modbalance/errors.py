"""Exception types shared across the package."""

import dataclasses
import sys
from collections.abc import Mapping


class ModBalanceError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ModBalanceError):
    """Operands have incompatible shapes."""


class ConfigError(ModBalanceError):
    """A configuration value is missing or out of range."""


class DatasetError(ModBalanceError):
    """A dataset file or spec failed validation."""


class DivergenceError(ModBalanceError):
    """Training produced a non-finite loss or gradient, or evaluation a
    non-finite logit."""


class CheckpointError(ModBalanceError):
    """A checkpoint file is malformed or does not match the model."""


def check_keys(payload, known, what, error=ConfigError):
    """Raise ``error`` naming ``what`` unless ``payload`` is a mapping with
    only ``known`` keys."""
    if not isinstance(payload, Mapping):
        raise error(f"{what} must be a JSON object, got {payload!r}")
    unknown = set(payload) - set(known)
    if unknown:
        raise error(f"unknown {what}: {sorted(unknown)}")


def check_value(value, expected, what, error=ConfigError):
    """Raise ``error`` naming ``what`` unless ``value`` is of type
    ``expected`` and, for a float, finite. A bool is not a number; an int
    is a valid float, but not one past the float range."""
    accepted = (int, float) if expected is float else expected
    if (not isinstance(value, accepted)
            or isinstance(value, bool) != (expected is bool)):
        raise error(f"{what} must be {expected.__name__}, got {value!r}")
    if expected is float and not abs(value) <= sys.float_info.max:
        raise error(f"{what} must be finite, got {value!r}")


def check_fields(instance, what):
    """``check_value`` on each field of dataclass ``instance`` against its
    annotated type."""
    for f in dataclasses.fields(instance):
        check_value(getattr(instance, f.name), f.type, f"{what}: {f.name}")
