"""Inactivity-alert state machine.

One `InactivityDetector` per stream holds the whole machine: its config and
its progress in ticks. `detector_tick(detector, vm_count, t)` advances it in
place by one vector-magnitude count, its only input; `InactivityDetector.tick`
is the same function. The module-level name stays because the benchmark's
traced mode (perfbench/spans.py) times the watch's detector by wrapping
`stillwatch.device.detector_tick`, the name `Device.tick` calls.

While monitoring, a quiet stretch of `inactivity_seconds` starts a vibration;
the vibration ends after `vibration_seconds`, or immediately on movement, and
either ending resets the timer. A count strictly above `count_threshold`
counts as movement and resets the timer.

All durations are counted in whole ticks internally so the timing never
drifts: a vibration starts exactly `inactivity_ticks` ticks after the last
timer reference (stream start, a movement tick, or a vibration end).

Timer-reset events are edge-triggered: a sustained burst of movement emits
one `reset` event at its onset, while the timer reference keeps following
every movement tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

from ._checks import require_finite, whole_ticks
from .filters import FilterSpec

__all__ = [
    "RESET",
    "VIB_START",
    "VIB_END",
    "EventKind",
    "DetectorEvent",
    "DetectorConfig",
    "DetectorOutput",
    "detector_tick",
    "InactivityDetector",
]

EventKind = Literal["reset", "vib_start", "vib_end"]
RESET: EventKind = "reset"
VIB_START: EventKind = "vib_start"
VIB_END: EventKind = "vib_end"


@dataclass(frozen=True, slots=True)
class DetectorEvent:
    t: float
    kind: EventKind


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    count_threshold: float = 125.0
    inactivity_seconds: float = 10.0
    vibration_seconds: float = 5.0
    tick_seconds: float = 1.0 / FilterSpec().sample_rate_hz
    inactivity_ticks: int = field(init=False)
    vibration_ticks: int = field(init=False)

    def __post_init__(self) -> None:
        require_finite(
            self,
            ("count_threshold", "inactivity_seconds", "vibration_seconds", "tick_seconds"),
            positive=True,
        )
        for name, ticks_name in (("inactivity_seconds", "inactivity_ticks"),
                                 ("vibration_seconds", "vibration_ticks")):
            seconds = getattr(self, name)
            ticks = whole_ticks(f"{name}={seconds}", seconds, self.tick_seconds)
            object.__setattr__(self, ticks_name, ticks)


@dataclass(frozen=True, slots=True)
class DetectorOutput:
    motor_on: bool
    events: tuple[DetectorEvent, ...]


# What a tick without events returns, shared rather than built every tick.
_QUIET = DetectorOutput(False, ())
_BUZZING = DetectorOutput(True, ())


def detector_tick(detector: InactivityDetector, vm_count: float, t: float) -> DetectorOutput:
    """Advance `detector` by one tick, in place; returns the motor state and events.

    `t` is the timestamp stamped onto any emitted events; the machine itself
    keeps time purely by counting ticks. Movement is strict: only
    vm_count > count_threshold resets. Rejects negative or non-finite counts
    without changing the detector.
    """
    if not (isinstance(vm_count, (int, float)) and math.isfinite(vm_count)) or vm_count < 0:
        raise ValueError(f"vm count must be finite and nonnegative, got {vm_count!r}")
    cfg = detector.cfg
    k = detector.tick_index
    detector.tick_index = k + 1
    above = vm_count > cfg.count_threshold
    onset = above and not detector.prev_above
    detector.prev_above = above

    if not detector.vibrating:
        if above:
            detector.last_reset_tick = k
            return DetectorOutput(False, (DetectorEvent(t, RESET),)) if onset else _QUIET
        if k - detector.last_reset_tick >= cfg.inactivity_ticks:
            detector.vibrating = True
            detector.vibration_start_tick = k
            return DetectorOutput(True, (DetectorEvent(t, VIB_START),))
        return _QUIET

    # Vibrating: movement cancels, otherwise run out the vibration window.
    if above or k - detector.vibration_start_tick >= cfg.vibration_ticks:
        detector.vibrating = False
        detector.last_reset_tick = k
        return DetectorOutput(False, (DetectorEvent(t, VIB_END), DetectorEvent(t, RESET)))
    return _BUZZING


class InactivityDetector:
    """The detector of one stream: its configuration and its progress.

    `tick_index` counts processed ticks, `last_reset_tick` is the tick index
    of the current timer reference, and `vibration_start_tick` is meaningful
    while `vibrating`. `prev_above` remembers whether the previous tick was a
    movement tick (used to emit reset events only on movement onset). A new
    detector is in the power-on state. `cfg` and `last_reset_tick` may be set
    between ticks, as a watch does when its inactivity option changes.
    """

    __slots__ = ("cfg", "vibrating", "tick_index", "last_reset_tick",
                 "vibration_start_tick", "prev_above")

    def __init__(self, cfg: DetectorConfig | None = None):
        self.cfg = cfg or DetectorConfig()
        self.vibrating = False
        self.tick_index = 0
        self.last_reset_tick = 0
        self.vibration_start_tick = 0
        self.prev_above = False

    tick = detector_tick

    @property
    def timer_seconds(self) -> float:
        """Elapsed inactivity as of the last processed tick, frozen while vibrating."""
        cfg = self.cfg
        if self.vibrating:
            return cfg.inactivity_seconds
        # max and min spelled out: Device.tick reads this on every tick, and
        # the two builtin calls tripled its cost.
        ticks = self.tick_index - 1 - self.last_reset_tick
        seconds = ticks * cfg.tick_seconds if ticks > 0 else 0.0
        return cfg.inactivity_seconds if cfg.inactivity_seconds < seconds else seconds

    @property
    def vibration_elapsed_seconds(self) -> float:
        """Time spent in the current vibration as of the last processed tick."""
        if not self.vibrating:
            return 0.0
        ticks = max(0, self.tick_index - 1 - self.vibration_start_tick)
        return min(ticks * self.cfg.tick_seconds, self.cfg.vibration_seconds)
