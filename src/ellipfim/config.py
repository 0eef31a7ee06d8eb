"""Typed reads of JSON config values, shared by every subcommand.

JSON hands a reader ``bool``, strings, lists and ``null`` wherever a
number is expected, and Python's ``int(...)`` would truncate ``4.7`` to 4
or accept ``"4"``.  Each reader here rejects such a value, and
:func:`check_number` a number outside its range and :func:`check_choice`
a string outside its choices, with a :class:`ConfigError` that names the
key, which the CLI turns into exit code 2 before anything is written.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "POSITIVE", "UNIT", "ConfigError", "check_choice", "check_number", "check_reals", "reject_unknown",
]

# open intervals for check_number's ``inside``
UNIT = (-1.0, 1.0)  # a Toeplitz rho^|i-j| is PD exactly for |rho| < 1
POSITIVE = (0.0, math.inf)


class ConfigError(ValueError):
    """A config key or value that the command cannot use."""


def check_number(value, key, kind=float, least=None, inside=None):
    """``value`` as an ``int`` (``kind=int``) or a finite real number
    (``kind=float``), no smaller than ``least`` and inside the open
    interval ``inside = (lo, hi)`` when those are given.

    ``bool`` is rejected although it is an ``int`` subclass, and so is an
    integral float such as ``4.0`` where an ``int`` is required.
    """
    types = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, types):
        what = "an integer" if kind is int else "a real number"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if kind is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value!r}")
    if inside is not None and not inside[0] < value < inside[1]:
        raise ConfigError(f"{key} must lie in ({inside[0]:g}, {inside[1]:g}), got {value!r}")
    return kind(value)


def check_choice(value, key, choices):
    """``value`` when it is one of the strings in ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{key} must be one of {', '.join(sorted(choices))}, got {value!r}")
    return value


def check_reals(value, key):
    """A list, or a rectangular list of lists, of real numbers as a float array."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of real numbers, got {value!r}")
    items = [check_reals(v, key) if isinstance(v, list) else check_number(v, key) for v in value]
    try:
        return np.array(items, dtype=float)
    except ValueError:
        raise ConfigError(f"{key} must be a rectangular list of lists, got {value!r}") from None


def reject_unknown(spec, known, where):
    """Raise on keys of ``spec`` outside ``known``; ``where`` names the spec."""
    extra = sorted(set(spec) - set(known))
    if extra:
        raise ConfigError(f"unknown {where} keys {extra}; valid: {sorted(known)}")
