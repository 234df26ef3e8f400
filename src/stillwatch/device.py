"""Watch-level behavior around the inactivity detector.

Three buttons: one cycles through the three preprogrammed inactivity
durations, one toggles the red vibration-indicator LED, one powers the watch
off. Three LEDs: white is lit whenever the watch is on, blue flashes once,
twice or thrice after a selection to show which duration is active, and red
flashes while the motor vibrates (only when enabled). The watch keeps one
clock, the detector's tick counter: the LEDs count its ticks too, and a
button press takes effect from the next tick.

Power-off is absorbing for a device instance: the motor and every LED turn
off and nothing reacts anymore; powering back on is modeled as constructing
a fresh device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, NamedTuple

from ._checks import require_finite, whole_ticks
from .detector import DetectorConfig, DetectorEvent, InactivityDetector, detector_tick

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SELECT",
    "RED_TOGGLE",
    "POWER",
    "Button",
    "DeviceConfig",
    "DeviceSnapshot",
    "Device",
]

Button = Literal["select", "red", "power"]
SELECT: Button = "select"
RED_TOGGLE: Button = "red"
POWER: Button = "power"

_BUTTONS = (SELECT, RED_TOGGLE, POWER)
_STOCK = DetectorConfig()  # the stock durations: option 0's and the vibration's


@dataclass(frozen=True, slots=True)
class DeviceConfig:
    inactivity_options: tuple[float, float, float] = (_STOCK.inactivity_seconds, 30.0, 60.0)
    vibration_seconds: float = _STOCK.vibration_seconds
    red_led_enabled_default: bool = False
    blue_flash_period_seconds: float = 0.25

    def __post_init__(self) -> None:
        options = tuple(float(x) for x in self.inactivity_options)
        if len(options) != 3:
            raise ValueError(
                f"exactly three inactivity options are required, got {len(options)}"
            )
        if not all(math.isfinite(x) and x > 0 for x in options):
            raise ValueError(f"inactivity options must be positive finite numbers, got {options}")
        object.__setattr__(self, "inactivity_options", options)
        require_finite(self, ("vibration_seconds", "blue_flash_period_seconds"), positive=True)

    def detector_configs(
        self, count_threshold: float, tick_seconds: float
    ) -> tuple[DetectorConfig, ...]:
        """The detector configuration for each inactivity option, in option order.

        Each takes its inactivity duration from the option and the vibration
        time from this config. Raises ValueError, naming this config's key,
        when a duration is not a whole number of ticks.
        """
        options, vibration = self.inactivity_options, self.vibration_seconds
        whole_ticks(f"vibration_seconds={vibration}", vibration, tick_seconds)
        for option in options:
            whole_ticks(f"inactivity_options={options}: {option}", option, tick_seconds)
        return tuple(
            DetectorConfig(count_threshold, option, vibration, tick_seconds) for option in options
        )


class DeviceSnapshot(NamedTuple):
    """Externally visible device state after one tick."""

    t: float
    motor: bool
    white: bool
    blue: bool
    red: bool
    option: int
    timer_seconds: float


class Device:
    """One simulated watch: detector plus power, buttons and LEDs.

    Feed it one VM count per tick through `tick`; button presses may be
    interleaved at any time. Detector events accumulate on `events`.
    """

    def __init__(
        self,
        config: DeviceConfig | None = None,
        detector_config: DetectorConfig | None = None,
    ):
        self.config = config or DeviceConfig()
        base = detector_config or DetectorConfig()
        # Built up front, so a select press can never meet an invalid option.
        self._detector_cfgs = self.config.detector_configs(base.count_threshold, base.tick_seconds)
        # The device sets the durations; a detector config may only agree with them.
        first = self._detector_cfgs[0]
        if detector_config is not None and (
            detector_config.inactivity_ticks != first.inactivity_ticks
            or detector_config.vibration_ticks != first.vibration_ticks
        ):
            raise ValueError(
                f"detector_config times {detector_config.inactivity_seconds} s of inactivity "
                f"and {detector_config.vibration_seconds} s of vibration, but the device's "
                f"option 0 and vibration_seconds are {first.inactivity_seconds} s and "
                f"{first.vibration_seconds} s"
            )
        # In ticks, snapped to a whole or half tick within 1e-6: 0.07 / 0.01 is 7.000000000000001.
        period = self.config.blue_flash_period_seconds / base.tick_seconds
        snapped = round(2.0 * period) / 2.0 if math.isfinite(2.0 * period) else period
        self._flash_period = snapped if snapped and abs(period - snapped) <= 1e-6 else period
        # A one-tick cycle would light two flashes as one; an infinite one, none.
        if not 2 <= self._flash_period < math.inf:
            raise ValueError(
                f"blue_flash_period_seconds={self.config.blue_flash_period_seconds} must be at "
                f"least two {base.tick_seconds} s ticks"
            )
        self.power = True
        self.selected_option = 0
        self.red_led_enabled = self.config.red_led_enabled_default
        self.events: list[DetectorEvent] = []
        self._detector = InactivityDetector(first)
        self._blue_start = 0
        self._blue_end = 0.0

    @property
    def detector_config(self) -> DetectorConfig:
        """Detector configuration currently in force."""
        return self._detector.cfg

    def press_button(self, button: Button, t: float) -> None:
        """Apply one button press, from the next tick on; no-op while off. `t` times
        nothing (the watch counts ticks); it stays because `sim`, demo 04 and the
        benchmark pass it."""
        if button not in _BUTTONS:
            raise ValueError(f"unknown button {button!r}")
        if not self.power:
            return
        if button == SELECT:
            self.selected_option = (self.selected_option + 1) % 3
            self._detector.cfg = self._detector_cfgs[self.selected_option]
            # Switching options must not fire an alert instantly.
            self._detector.last_reset_tick = self._detector.tick_index
            self._blue_start = self._detector.tick_index
            self._blue_end = self._blue_start + (self.selected_option + 1) * self._flash_period
        elif button == RED_TOGGLE:
            self.red_led_enabled = not self.red_led_enabled
        else:  # POWER
            self.power = False

    def tick(self, vm_count: float, t: float) -> DeviceSnapshot:
        """Advance one tick; returns the LED/motor snapshot after it."""
        # `tuple.__new__` builds the same DeviceSnapshot as a class call, without
        # namedtuple's Python-level `__new__` frame (README, Design notes).
        if not self.power:
            return tuple.__new__(
                DeviceSnapshot, (t, False, False, False, False, self.selected_option, 0.0)
            )
        detector = self._detector
        k = detector.tick_index
        self.events += detector_tick(detector, vm_count, t)
        motor = detector.vibrating
        period = self._flash_period
        blue = k < self._blue_end and (k - self._blue_start) % period < period / 2.0
        red = self.red_led_enabled and motor and (
            (k - detector.vibration_start_tick) % period < period / 2.0
        )
        return tuple.__new__(DeviceSnapshot, (
            t, motor, True, blue, red, self.selected_option,
            detector.timer_seconds,
        ))

    def _tick_block(self, vm, t) -> tuple[np.ndarray, ...]:
        """`tick` over a block of counts, stamped with `t`; returns the timer,
        motor, white, blue, red and option columns, in trace order. The caller
        ends the block where the motor may change: no row but the last turns it
        on or off."""
        import numpy as np

        n = len(vm)
        if not self.power:
            off = np.zeros(n, dtype=bool)
            return np.zeros(n), off, off, off, off, np.full(n, self.selected_option)
        detector = self._detector
        cfg, k0, ref, motor_before = (detector.cfg, detector.tick_index,
                                      detector.last_reset_tick, detector.vibrating)
        self.events += detector.process_block(vm, t)
        k = np.arange(k0, k0 + n)
        motor = np.full(n, motor_before)
        motor[-1] = detector.vibrating
        # A row's timer reference is its last movement row; on the last row, the
        # detector's own, which a vibration's end moves too.
        refs = np.maximum.accumulate(np.where(vm > cfg.count_threshold, k, ref))
        refs[-1] = detector.last_reset_tick
        idle = k - refs
        seconds = np.minimum(np.where(idle > 0, idle * cfg.tick_seconds, 0.0),
                             cfg.inactivity_seconds)
        timer = np.where(motor, cfg.inactivity_seconds, seconds)
        period = self._flash_period
        blue = (k < self._blue_end) & ((k - self._blue_start) % period < period / 2.0)
        red = motor & self.red_led_enabled & (
            (k - detector.vibration_start_tick) % period < period / 2.0
        )
        return timer, motor, np.ones(n, dtype=bool), blue, red, np.full(n, self.selected_option)
