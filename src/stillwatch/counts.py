"""Filtered acceleration to activity counts.

Per axis and per sample: band-pass filter, rectify, apply the dead-band and
saturation thresholds, convert to a count contribution, and accumulate over a
sliding one-second epoch. The three per-axis epoch sums are combined into a
vector-magnitude (VM) count once per input sample, so a fresh VM value covers
the trailing epoch at every tick.

The conversion constant is treated as a rate: a sustained thresholded
acceleration equal to `scale_g_per_sec_per_count` accumulates one count per
second, so one sample contributes `y / scale / sample_rate` counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._checks import require_finite
from .filters import Biquad, BiquadCoefficients, FilterSpec, design_bandpass_cascade

__all__ = [
    "RawSample",
    "CountsConfig",
    "VmCount",
    "rectify_threshold",
    "contribution",
    "vm",
    "AxisWindow",
    "CountsPipeline",
]

# Tolerance on consecutive sample spacing, seconds.
_GRID_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class RawSample:
    """One timestamped 3-axis accelerometer reading, time in seconds, axes in g."""

    t: float
    ax: float
    ay: float
    az: float

    def __post_init__(self) -> None:
        require_finite(self, ("t", "ax", "ay", "az"))


@dataclass(frozen=True, slots=True)
class CountsConfig:
    """Thresholds, conversion scale, epoch length and sample rate for counting."""

    deadband_g: float = 0.068
    saturation_g: float = 2.13
    scale_g_per_sec_per_count: float = 0.01664
    epoch_seconds: float = 1.0
    sample_rate_hz: float = 100.0

    def __post_init__(self) -> None:
        require_finite(
            self,
            (
                "deadband_g",
                "saturation_g",
                "scale_g_per_sec_per_count",
                "epoch_seconds",
                "sample_rate_hz",
            ),
            positive=True,
        )
        if not self.deadband_g < self.saturation_g:
            raise ValueError(
                f"deadband_g={self.deadband_g} must be below saturation_g={self.saturation_g}"
            )
        n = self.epoch_seconds * self.sample_rate_hz
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError(
                f"epoch_seconds * sample_rate_hz must be a positive integer, got {n}"
            )

    @property
    def window_samples(self) -> int:
        """Number of per-sample contributions in one epoch."""
        return int(round(self.epoch_seconds * self.sample_rate_hz))


@dataclass(frozen=True, slots=True)
class VmCount:
    """Vector-magnitude activity count emitted for one input sample."""

    t: float
    value: float


def rectify_threshold(y: float, cfg: CountsConfig) -> float:
    """Rectify and threshold one filtered sample.

    Magnitudes strictly below the dead-band map to 0; magnitudes strictly
    above the saturation level clip to it; boundary values pass unchanged.
    """
    if not math.isfinite(y):
        raise ValueError(f"filtered value must be finite, got {y!r}")
    mag = abs(y)
    if mag < cfg.deadband_g:
        return 0.0
    if mag > cfg.saturation_g:
        return cfg.saturation_g
    return mag


def contribution(y_thresholded: float, cfg: CountsConfig) -> float:
    """Count mass contributed by one thresholded sample: y / scale / sample_rate."""
    if not (0.0 <= y_thresholded <= cfg.saturation_g):
        raise ValueError(
            f"thresholded value must lie in [0, {cfg.saturation_g}], got {y_thresholded!r}"
        )
    return y_thresholded / cfg.scale_g_per_sec_per_count / cfg.sample_rate_hz


def vm(sx: float, sy: float, sz: float) -> float:
    """Euclidean norm of the three per-axis epoch sums."""
    if sx < 0 or sy < 0 or sz < 0:
        raise ValueError(f"epoch sums must be nonnegative, got ({sx}, {sy}, {sz})")
    return math.sqrt(sx * sx + sy * sy + sz * sz)


class AxisWindow:
    """Sliding-epoch accumulator: a ring buffer with an O(1) running sum.

    The running sum is maintained incrementally; it snaps back to an exactly
    rounded value every full buffer turn (and to exact zero whenever no
    nonzero contribution remains), so float drift never accumulates.
    """

    __slots__ = ("_buf", "_idx", "_sum", "_nonzero", "_pushes")

    def __init__(self, capacity: int):
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be a positive integer, got {capacity!r}")
        self._buf = [0.0] * capacity
        self._idx = 0
        self._sum = 0.0
        self._nonzero = 0
        self._pushes = 0

    @property
    def capacity(self) -> int:
        return len(self._buf)

    @property
    def value(self) -> float:
        """Current epoch sum."""
        return self._sum

    def push(self, c: float) -> float:
        """Insert one contribution, evict the oldest, return the new epoch sum."""
        if not (math.isfinite(c) and c >= 0.0):
            raise ValueError(f"contribution must be finite and nonnegative, got {c!r}")
        buf = self._buf
        old = buf[self._idx]
        buf[self._idx] = c
        self._idx = (self._idx + 1) % len(buf)
        self._sum += c - old
        if old != 0.0:
            self._nonzero -= 1
        if c != 0.0:
            self._nonzero += 1
        self._pushes += 1
        if self._nonzero == 0:
            self._sum = 0.0
        elif self._pushes % len(buf) == 0:
            self._sum = math.fsum(buf)
        return self._sum


class CountsPipeline:
    """Streaming chain from raw samples to VM counts.

    Holds one independent filter cascade and one sliding epoch window per
    axis; the ring buffers are sized at construction. A pipeline instance
    serves one ordered sample stream.
    """

    def __init__(
        self,
        sections: BiquadCoefficients | Sequence[BiquadCoefficients],
        config: CountsConfig | None = None,
    ):
        self.config = config or CountsConfig()
        if isinstance(sections, BiquadCoefficients):
            sections = (sections,)
        self.sections: tuple[BiquadCoefficients, ...] = tuple(sections)
        if not self.sections:
            raise ValueError("at least one filter section is required")
        self._filters = [[Biquad(c) for c in self.sections] for _ in range(3)]
        self._windows = [AxisWindow(self.config.window_samples) for _ in range(3)]
        self._dt = 1.0 / self.config.sample_rate_hz
        self._last_t: float | None = None
        self._sums = (0.0, 0.0, 0.0)

    @classmethod
    def from_spec(
        cls,
        filter_spec: FilterSpec | None = None,
        config: CountsConfig | None = None,
        order: int = 2,
    ) -> "CountsPipeline":
        """Build a pipeline designing the band-pass from a spec; the stock pass
        band at the counts sample rate when no spec is given."""
        config = config or CountsConfig()
        filter_spec = filter_spec or FilterSpec(config.sample_rate_hz)
        if filter_spec.sample_rate_hz != config.sample_rate_hz:
            raise ValueError(
                f"filter sample rate {filter_spec.sample_rate_hz} Hz does not match "
                f"counts sample rate {config.sample_rate_hz} Hz"
            )
        return cls(design_bandpass_cascade(filter_spec, order), config)

    @property
    def epoch_sums(self) -> tuple[float, float, float]:
        """Per-axis epoch sums after the most recent sample."""
        return self._sums

    def process_sample(self, sample: RawSample) -> VmCount:
        """Advance every stage by one sample and emit the VM count.

        Samples must arrive in time order at the configured rate; a rejected
        sample leaves the pipeline state untouched.
        """
        if self._last_t is not None:
            dt = sample.t - self._last_t
            if dt <= 0:
                raise ValueError(
                    f"out-of-order sample: t={sample.t} after t={self._last_t}"
                )
            if abs(dt - self._dt) > _GRID_TOL:
                raise ValueError(
                    f"sample spacing {dt} s does not match "
                    f"{self.config.sample_rate_hz} Hz"
                )
        cfg = self.config
        sums = []
        for value, chain, window in zip(
            (sample.ax, sample.ay, sample.az), self._filters, self._windows
        ):
            y = value
            for biquad in chain:
                y = biquad.step(y)
            sums.append(window.push(contribution(rectify_threshold(y, cfg), cfg)))
        self._last_t = sample.t
        self._sums = (sums[0], sums[1], sums[2])
        return VmCount(sample.t, vm(sums[0], sums[1], sums[2]))

    def process(self, samples: Iterable[RawSample]) -> list[VmCount]:
        return [self.process_sample(s) for s in samples]
