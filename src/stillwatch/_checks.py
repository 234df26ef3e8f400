"""Field validation shared by the configuration and data dataclasses."""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable


def finite(value: float) -> bool:
    """`math.isfinite(value)`, but False, not OverflowError, for an int past the floats."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def shown(value: object, text: Callable[[object], str] = repr) -> str:
    """`text(value)` for a refusal message, or the length of an int too long to print."""
    try:
        return text(value)
    except ValueError:
        return f"a number of over {sys.get_int_max_str_digits()} digits"


def require_finite(obj: object, names: Iterable[str], positive: bool = False) -> None:
    """Raise ValueError naming the first of `obj`'s fields that is not a finite
    number (or, with `positive`, not a positive finite number)."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, (int, float)) and finite(value)) or (positive and value <= 0):
            kind = "positive finite" if positive else "finite"
            raise ValueError(f"{name} must be a {kind} number, got {shown(value)}")


def whole_ticks(what: str, seconds: float, tick_seconds: float) -> int:
    """`seconds` as a positive whole number of ticks, within 1e-6, or ValueError naming `what`."""
    ticks = seconds / tick_seconds
    if not math.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-6 or round(ticks) < 1:
        raise ValueError(f"{what} must be a positive whole number of {tick_seconds} s ticks")
    return round(ticks)
