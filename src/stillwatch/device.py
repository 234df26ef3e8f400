"""Watch-level behavior around the inactivity detector.

Three buttons: one cycles through the three preprogrammed inactivity
durations, one toggles the red vibration-indicator LED, one powers the watch
off. Three LEDs: white is lit whenever the watch is on, blue flashes once,
twice or thrice after a selection to show which duration is active, and red
flashes while the motor vibrates (only when enabled).

Power-off is absorbing for a device instance: the motor and every LED turn
off and nothing reacts anymore; powering back on is modeled as constructing
a fresh device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Literal, NamedTuple

from ._checks import require_finite
from .detector import VIB_START, DetectorConfig, DetectorEvent, InactivityDetector, detector_tick

__all__ = [
    "SELECT",
    "RED_TOGGLE",
    "POWER",
    "Button",
    "DeviceConfig",
    "DeviceSnapshot",
    "Device",
    "replay_event_log",
]

Button = Literal["select", "red", "power"]
SELECT: Button = "select"
RED_TOGGLE: Button = "red"
POWER: Button = "power"

_BUTTONS = (SELECT, RED_TOGGLE, POWER)


@dataclass(frozen=True, slots=True)
class DeviceConfig:
    inactivity_options: tuple[float, float, float] = (10.0, 30.0, 60.0)
    vibration_seconds: float = 5.0
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

    def detector_configs(self, base: DetectorConfig) -> tuple[DetectorConfig, ...]:
        """The detector configuration for each inactivity option, in option order.

        Each takes its inactivity duration from the option and the vibration
        time from this config; the threshold and tick size come from `base`.
        Raises ValueError, naming this config's key, when a duration is not a
        whole number of ticks.
        """
        # `base` is valid, so each replace can fail only on the field it sets.
        grid = f"must be a positive whole number of {base.tick_seconds} s ticks"
        try:
            base = replace(base, vibration_seconds=self.vibration_seconds)
        except ValueError:
            raise ValueError(f"vibration_seconds={self.vibration_seconds} {grid}") from None
        configs = []
        for seconds in self.inactivity_options:
            try:
                configs.append(replace(base, inactivity_seconds=seconds))
            except ValueError:
                raise ValueError(
                    f"inactivity_options={self.inactivity_options}: {seconds} {grid}"
                ) from None
        return tuple(configs)


class DeviceSnapshot(NamedTuple):
    """Externally visible device state after one tick."""

    t: float
    motor: bool
    white: bool
    blue: bool
    red: bool
    option: int
    timer_seconds: float


def _flash_on(t: float, anchor: float, period: float) -> bool:
    # Square wave: on for the first half of each period from the anchor.
    dt = t - anchor
    return dt >= 0.0 and (dt % period) < period / 2.0


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
        # Built up front, so a select press can never meet an invalid option.
        self._detector_cfgs = self.config.detector_configs(detector_config or DetectorConfig())
        self.power = True
        self.selected_option = 0
        self.red_led_enabled = self.config.red_led_enabled_default
        self.events: list[DetectorEvent] = []
        self._detector = InactivityDetector(self._detector_cfgs[0])
        self._vib_anchor = 0.0
        self._blue_anchor: float | None = None
        self._blue_flashes = 0

    @property
    def detector_config(self) -> DetectorConfig:
        """Detector configuration currently in force."""
        return self._detector.cfg

    def press_button(self, button: Button, t: float) -> None:
        """Apply one button press at time t. All presses are no-ops while off."""
        if button not in _BUTTONS:
            raise ValueError(f"unknown button {button!r}")
        if not self.power:
            return
        if button == SELECT:
            self.selected_option = (self.selected_option + 1) % 3
            self._detector.cfg = self._detector_cfgs[self.selected_option]
            # Switching options must not fire an alert instantly.
            self._detector.last_reset_tick = self._detector.tick_index
            self._blue_anchor = t
            self._blue_flashes = self.selected_option + 1
        elif button == RED_TOGGLE:
            self.red_led_enabled = not self.red_led_enabled
        else:  # POWER
            self.power = False

    def tick(self, vm_count: float, t: float) -> DeviceSnapshot:
        """Advance one tick; returns the LED/motor snapshot after it."""
        if not self.power:
            return DeviceSnapshot(t, False, False, False, False, self.selected_option, 0.0)
        output = detector_tick(self._detector, vm_count, t)
        for event in output.events:
            self.events.append(event)
            if event.kind == VIB_START:
                self._vib_anchor = event.t
        period = self.config.blue_flash_period_seconds
        blue = False
        if self._blue_anchor is not None:
            if t - self._blue_anchor >= self._blue_flashes * period:
                self._blue_anchor = None
            else:
                blue = _flash_on(t, self._blue_anchor, period)
        red = (
            self.red_led_enabled
            and output.motor_on
            and _flash_on(t, self._vib_anchor, period)
        )
        return DeviceSnapshot(
            t, output.motor_on, True, blue, red, self.selected_option,
            self._detector.timer_seconds,
        )


def replay_event_log(
    device: Device, records: Iterable[tuple[float, str, float | str]]
) -> list[DeviceSnapshot]:
    """Drive a device from a timed input log.

    Each record is (t, kind, arg) with kind "sample" (arg: a VM count, one
    snapshot row is produced) or "button" (arg: a button name, no row).
    """
    snapshots: list[DeviceSnapshot] = []
    for t, kind, arg in records:
        if kind == "sample":
            snapshots.append(device.tick(float(arg), t))
        elif kind == "button":
            device.press_button(str(arg), t)
        else:
            raise ValueError(f"unknown input-log kind {kind!r}")
    return snapshots
