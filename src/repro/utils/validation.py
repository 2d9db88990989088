"""Argument-checking helpers shared by public entry points.

Raising early with a precise message is cheaper than debugging a silent
mis-parameterised experiment; these helpers keep the checks uniform.
"""

from __future__ import annotations

import math
import numbers
from typing import Union

Number = Union[int, float]


def check_positive(name: str, value: Number, allow_zero: bool = False) -> Number:
    """Validate a finite ``value > 0`` (or ``>= 0`` with ``allow_zero``).

    Written as "not in range" rather than "out of range": every
    comparison with NaN is false, so ``value <= 0`` would let it through.
    """
    in_range = value >= 0 if allow_zero else value > 0
    if not in_range or value == math.inf:
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return value


def check_integral(name: str, value: int) -> int:
    """Validate that ``value`` is an integer (``bool`` excluded) -- for
    counts and sizes that end up as array shapes or loop bounds, where
    ``2.5`` must not get as far as sizing a buffer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate ``0 < value < 1`` (strict, e.g. train/test split ratios)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_int_in_range(name: str, value: int, low: int, high: int) -> int:
    """Validate ``low <= value <= high`` for an integer parameter."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value
