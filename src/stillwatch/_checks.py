"""Field validation shared by the configuration and data dataclasses."""

from __future__ import annotations

import math
from typing import Iterable


def require_finite(obj: object, names: Iterable[str], positive: bool = False) -> None:
    """Raise ValueError naming the first of `obj`'s fields that is not a finite
    number (or, with `positive`, not a positive finite number)."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, (int, float)) and math.isfinite(value)) or (
            positive and value <= 0
        ):
            kind = "positive finite" if positive else "finite"
            raise ValueError(f"{name} must be a {kind} number, got {value!r}")
