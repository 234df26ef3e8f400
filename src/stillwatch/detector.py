"""Inactivity-alert state machine.

One `InactivityDetector` per stream holds the whole machine: its config and
its progress in ticks. `InactivityDetector.tick(vm_count, t)` advances it in
place by one vector-magnitude count, its only input. The same function is kept
as the module-level `detector_tick(detector, vm_count, t)`, the name
`Device.tick` calls, because the benchmark's traced mode (perfbench/spans.py)
times the watch's detector by wrapping `stillwatch.device.detector_tick`.
`InactivityDetector.process_block(vm, t)` advances it by a block of counts with
the events and end state of `tick` row by row, in a loop that runs once per
event; a caller changes `cfg` or `last_reset_tick` between blocks.

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

from ._checks import require_finite, shown, whole_ticks
from .filters import FilterSpec

__all__ = [
    "EventKind",
    "DetectorEvent",
    "DetectorConfig",
    "detector_tick",
    "InactivityDetector",
]

EventKind = Literal["reset", "vib_start", "vib_end"]


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


def detector_tick(
    detector: InactivityDetector, vm_count: float, t: float
) -> tuple[DetectorEvent, ...]:
    """Advance `detector` by one tick, in place; returns the events it emitted,
    () on a quiet tick. The motor state after it is `detector.vibrating`.

    `t` is the timestamp stamped onto any emitted events; the machine itself
    keeps time purely by counting ticks. Movement is strict: only
    vm_count > count_threshold resets. Any real count is read as a float, as
    `process_block` reads it; a negative or non-finite one, or an int past the
    floats, is rejected without changing the detector.
    """
    try:
        if not (isinstance(vm_count, (int, float)) and math.isfinite(vm_count)) or vm_count < 0:
            import numbers  # off the per-tick path: a valid int or float passes above

            count = float(vm_count) if isinstance(vm_count, numbers.Real) else math.nan
            if not 0 <= count < math.inf:  # a NaN fails both
                raise ValueError
            vm_count = count
    except (OverflowError, ValueError):  # OverflowError: an int too large for a float
        message = f"vm count must be finite and nonnegative, got {shown(vm_count)}"
        raise ValueError(message) from None
    cfg = detector.cfg
    k = detector.tick_index
    detector.tick_index = k + 1
    above = vm_count > cfg.count_threshold
    onset = above and not detector.prev_above
    detector.prev_above = above

    if not detector.vibrating:
        if above:
            detector.last_reset_tick = k
            return (DetectorEvent(t, "reset"),) if onset else ()
        if k - detector.last_reset_tick >= cfg.inactivity_ticks:
            detector.vibrating = True
            detector.vibration_start_tick = k
            return (DetectorEvent(t, "vib_start"),)
        return ()

    # Vibrating: movement cancels, otherwise run out the vibration window.
    if above or k - detector.vibration_start_tick >= cfg.vibration_ticks:
        detector.vibrating = False
        detector.last_reset_tick = k
        return (DetectorEvent(t, "vib_end"), DetectorEvent(t, "reset"))
    return ()


class InactivityDetector:
    """The detector of one stream: its configuration and its progress.

    `tick_index` counts processed ticks, `last_reset_tick` is the tick index
    of the current timer reference, and `vibration_start_tick` is meaningful
    while `vibrating`. `prev_above` remembers whether the previous tick was a
    movement tick (used to emit reset events only on movement onset). A new
    detector is in the power-on state. `cfg` and `last_reset_tick` may be set
    between ticks or blocks, as a watch does when its inactivity option changes.
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

    def process_block(self, vm, t) -> list[DetectorEvent]:
        """Advance by one tick per count in `vm`; returns the events `tick` would
        emit, stamped with their rows' `t`, and leaves the state `tick` would
        leave, so a stream may switch between the two at any row. The loop runs
        once per event: it jumps a whole movement run to its first quiet gap of
        over `inactivity_ticks`, taking the run's resets from the onset mask.
        Rejects a negative or non-finite count, or a `t` of another length,
        before any state changes.
        """
        import numpy as np

        try:
            vm = np.asarray(vm, dtype=float)
        except OverflowError:  # an int too large for a float: `tick` names the first bad count
            for count in vm:
                InactivityDetector().tick(count, 0.0)
            raise
        if len(t) != len(vm):
            raise ValueError(f"{len(t)} timestamps for {len(vm)} vm counts")
        cfg, n, k0, events = self.cfg, len(vm), self.tick_index, []
        if n == 0:
            return events
        if not (vm.min() >= 0 and vm.max() < math.inf):  # a NaN fails both
            bad = vm[np.argmin((vm >= 0) & (vm < math.inf))].item()
            raise ValueError(f"vm count must be finite and nonnegative, got {bad!r}")
        above = vm > cfg.count_threshold
        onset = above & ~np.concatenate(([self.prev_above], above[:-1]))
        mv = np.flatnonzero(above)  # the movement rows; a run ends before a long gap
        run_ends = np.flatnonzero(mv[1:] - mv[:-1] > cfg.inactivity_ticks)
        ref, vs = self.last_reset_tick - k0, self.vibration_start_tick - k0  # as rows
        vibrating, p = self.vibrating, 0  # p: the next row to scan
        while True:
            a = int(mv.searchsorted(p))
            m = int(mv[a]) if a < len(mv) else n  # the next movement row, or n
            if vibrating:  # until movement, or until it has run its length
                p = min(m, max(vs + cfg.vibration_ticks, p))
                if p >= n:
                    break
                vibrating, ref = False, p
                events += (DetectorEvent(float(t[p]), "vib_end"),
                           DetectorEvent(float(t[p]), "reset"))
            elif m < n and m <= max(ref + cfg.inactivity_ticks, p):
                g = int(run_ends.searchsorted(a))
                p = ref = int(mv[run_ends[g]] if g < len(run_ends) else mv[-1])
                events += [DetectorEvent(float(t[i]), "reset")
                           for i in np.flatnonzero(onset[m:p + 1]) + m]
            else:
                p = max(ref + cfg.inactivity_ticks, p)
                if p >= n:
                    break
                vibrating, vs = True, p
                events.append(DetectorEvent(float(t[p]), "vib_start"))
            p += 1
        self.tick_index, self.prev_above, self.vibrating = k0 + n, bool(above[-1]), vibrating
        self.last_reset_tick, self.vibration_start_tick = k0 + ref, k0 + vs
        return events

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
