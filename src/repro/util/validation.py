"""Argument-validation helpers with uniform error messages.

Raising early with a precise message is cheaper than debugging a NaN that
surfaces three modules downstream of a bad radius.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float, strict: bool = True) -> float:
    """Validate that *value* is positive (or non-negative if not *strict*)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> float:
    """Validate that *value* lies in the interval [low, high] (open per flags)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    lo_ok = value > low if low_open else value >= low
    hi_ok = value < high if high_open else value <= high
    if not (lo_ok and hi_ok):
        lo_b = "(" if low_open else "["
        hi_b = ")" if high_open else "]"
        raise ValueError(f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that *value* is a probability in [0, 1]."""
    return check_in_range(name, value, 0.0, 1.0)


def check_loss_rate(name: str, value: float) -> float:
    """Validate a message-loss / failure rate in [0, 1).

    A rate of exactly 1 would silence a channel forever, which every caller
    (the distsim engines, the fault injector's flaky processes) treats as a
    configuration error rather than a simulation; the half-open interval
    rejects it with a uniform message.
    """
    return check_in_range(name, value, 0.0, 1.0, high_open=True)


def check_nonnegative_int(name: str, value: int, minimum: int = 0) -> int:
    """Validate that *value* is an integer ``>= minimum`` (default 0).

    Booleans are rejected (``True`` silently meaning 1 hides bugs in fault
    plans), as are floats that merely happen to be integral.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_workers(name: str, value) -> int:
    """Validate a worker-count argument; returns it as a plain ``int``.

    Accepts an integer or a string holding one (the ``REPRO_WORKERS``
    environment variable arrives as text).  Booleans are rejected, as are
    floats and non-numeric strings.  Any value is allowed on the integer
    line: ``0`` means serial and negative means CPU count, exactly the
    :func:`repro.perf.pool.resolve_workers` convention.
    """
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise ValueError(
                f"{name} must be an integer worker count, got {value!r}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_finite_array(name: str, arr: np.ndarray) -> np.ndarray:
    """Validate that *arr* contains only finite values; returns the array."""
    arr = np.asarray(arr)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr
