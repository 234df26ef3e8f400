"""Inactivity-alert state machine.

Consumes one vector-magnitude count per tick and nothing else. While
monitoring, a quiet stretch of `inactivity_seconds` starts a vibration; the
vibration ends after `vibration_seconds`, or immediately on movement, and
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
from dataclasses import dataclass
from typing import Literal

from ._checks import require_finite

__all__ = [
    "MONITORING",
    "VIBRATING",
    "RESET",
    "VIB_START",
    "VIB_END",
    "EventKind",
    "Phase",
    "DetectorEvent",
    "DetectorConfig",
    "DetectorState",
    "DetectorOutput",
    "detector_tick",
    "timer_seconds",
    "vibration_elapsed_seconds",
    "InactivityDetector",
]

Phase = Literal["monitoring", "vibrating"]
MONITORING: Phase = "monitoring"
VIBRATING: Phase = "vibrating"

EventKind = Literal["reset", "vib_start", "vib_end"]
RESET: EventKind = "reset"
VIB_START: EventKind = "vib_start"
VIB_END: EventKind = "vib_end"

_NO_EVENTS: tuple = ()


@dataclass(frozen=True, slots=True)
class DetectorEvent:
    t: float
    kind: EventKind


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    count_threshold: float = 125.0
    inactivity_seconds: float = 10.0
    vibration_seconds: float = 5.0
    tick_seconds: float = 0.01

    def __post_init__(self) -> None:
        require_finite(
            self,
            ("count_threshold", "inactivity_seconds", "vibration_seconds", "tick_seconds"),
            positive=True,
        )
        for name in ("inactivity_seconds", "vibration_seconds"):
            ticks = getattr(self, name) / self.tick_seconds
            if abs(ticks - round(ticks)) > 1e-6 or round(ticks) < 1:
                raise ValueError(
                    f"{name}={getattr(self, name)} must be a positive whole number of "
                    f"{self.tick_seconds} s ticks"
                )

    @property
    def inactivity_ticks(self) -> int:
        return int(round(self.inactivity_seconds / self.tick_seconds))

    @property
    def vibration_ticks(self) -> int:
        return int(round(self.vibration_seconds / self.tick_seconds))


@dataclass(frozen=True, slots=True)
class DetectorState:
    """Progress of the state machine; the default value is the power-on state.

    `tick_index` counts processed ticks, `last_reset_tick` is the tick index
    of the current timer reference, and `vibration_start_tick` is meaningful
    while vibrating. `prev_above` remembers whether the previous tick was a
    movement tick (used to emit reset events only on movement onset).
    """

    phase: Phase = MONITORING
    tick_index: int = 0
    last_reset_tick: int = 0
    vibration_start_tick: int = 0
    prev_above: bool = False


@dataclass(frozen=True, slots=True)
class DetectorOutput:
    motor_on: bool
    events: tuple[DetectorEvent, ...]


def detector_tick(
    state: DetectorState, cfg: DetectorConfig, vm_count: float, t: float
) -> tuple[DetectorState, DetectorOutput]:
    """Advance the state machine by one tick.

    `t` is the timestamp stamped onto any emitted events; the machine itself
    keeps time purely by counting ticks. Movement is strict: only
    vm_count > count_threshold resets. Rejects negative or non-finite counts
    without changing state.
    """
    if not (isinstance(vm_count, (int, float)) and math.isfinite(vm_count)) or vm_count < 0:
        raise ValueError(f"vm count must be finite and nonnegative, got {vm_count!r}")
    k = state.tick_index
    above = vm_count > cfg.count_threshold

    if state.phase == MONITORING:
        if above:
            events = _NO_EVENTS if state.prev_above else (DetectorEvent(t, RESET),)
            next_state = DetectorState(MONITORING, k + 1, k, state.vibration_start_tick, True)
            return next_state, DetectorOutput(False, events)
        if k - state.last_reset_tick >= cfg.inactivity_ticks:
            next_state = DetectorState(VIBRATING, k + 1, state.last_reset_tick, k, False)
            return next_state, DetectorOutput(True, (DetectorEvent(t, VIB_START),))
        next_state = DetectorState(MONITORING, k + 1, state.last_reset_tick,
                                   state.vibration_start_tick, False)
        return next_state, DetectorOutput(False, _NO_EVENTS)

    # Vibrating: movement cancels, otherwise run out the vibration window.
    if above:
        next_state = DetectorState(MONITORING, k + 1, k, state.vibration_start_tick, True)
        events = (DetectorEvent(t, VIB_END), DetectorEvent(t, RESET))
        return next_state, DetectorOutput(False, events)
    if k - state.vibration_start_tick >= cfg.vibration_ticks:
        next_state = DetectorState(MONITORING, k + 1, k, state.vibration_start_tick, False)
        events = (DetectorEvent(t, VIB_END), DetectorEvent(t, RESET))
        return next_state, DetectorOutput(False, events)
    next_state = DetectorState(VIBRATING, k + 1, state.last_reset_tick,
                               state.vibration_start_tick, False)
    return next_state, DetectorOutput(True, _NO_EVENTS)


def timer_seconds(state: DetectorState, cfg: DetectorConfig) -> float:
    """Elapsed inactivity as of the last processed tick, frozen while vibrating."""
    if state.phase == VIBRATING:
        return cfg.inactivity_seconds
    ticks = max(0, state.tick_index - 1 - state.last_reset_tick)
    return min(ticks * cfg.tick_seconds, cfg.inactivity_seconds)


def vibration_elapsed_seconds(state: DetectorState, cfg: DetectorConfig) -> float:
    """Time spent in the current vibration as of the last processed tick."""
    if state.phase != VIBRATING:
        return 0.0
    ticks = max(0, state.tick_index - 1 - state.vibration_start_tick)
    return min(ticks * cfg.tick_seconds, cfg.vibration_seconds)


class InactivityDetector:
    """Stateful wrapper over `detector_tick` for one stream."""

    def __init__(self, cfg: DetectorConfig | None = None, state: DetectorState | None = None):
        self.cfg = cfg or DetectorConfig()
        self.state = state or DetectorState()

    def tick(self, vm_count: float, t: float) -> DetectorOutput:
        self.state, output = detector_tick(self.state, self.cfg, vm_count, t)
        return output

    @property
    def timer_seconds(self) -> float:
        return timer_seconds(self.state, self.cfg)

    @property
    def vibrating(self) -> bool:
        return self.state.phase == VIBRATING
