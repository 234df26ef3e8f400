import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stillwatch import (
    POWER,
    RED_TOGGLE,
    RESET,
    SELECT,
    VIB_END,
    VIB_START,
    CountsPipeline,
    DetectorConfig,
    Device,
    DeviceConfig,
    DeviceSnapshot,
    InactivityDetector,
    VmCount,
    vm,
)

from conftest import make_samples
from _oracles import detector_event_oracle

TICK = 0.01


def run_quiet(device: Device, n: int, start_tick: int = 0, presses=()):
    """Tick a device over a zero-vm stream with optional (tick, button) presses."""
    pending = sorted(presses)
    snaps = []
    for k in range(start_tick, start_tick + n):
        while pending and pending[0][0] == k:
            device.press_button(pending.pop(0)[1], k * TICK)
        snaps.append(device.tick(0.0, k * TICK))
    return snaps


def rising_edges(flags):
    flags = np.asarray(flags, dtype=bool)
    return int(np.count_nonzero(flags[1:] & ~flags[:-1]) + (1 if flags[0] else 0))


class TestSelect:
    def test_cycles_through_options(self):
        device = Device()
        assert device.selected_option == 0
        for expected in (1, 2, 0, 1):
            device.press_button(SELECT, 0.0)
            assert device.selected_option == expected

    def test_selection_sets_detector_inactivity(self):
        device = Device(DeviceConfig(inactivity_options=(10.0, 30.0, 60.0)))
        assert device.detector_config.inactivity_seconds == 10.0
        device.press_button(SELECT, 0.0)
        assert device.detector_config.inactivity_seconds == 30.0

    def test_selection_keeps_threshold_and_vibration(self):
        device = Device(detector_config=DetectorConfig(count_threshold=200.0))
        before = device.detector_config
        device.press_button(SELECT, 0.0)
        after = device.detector_config
        assert after.count_threshold == before.count_threshold
        assert after.vibration_seconds == before.vibration_seconds
        assert after.tick_seconds == before.tick_seconds

    def test_wrap_around_flashes_once(self):
        # from option 2, selecting wraps to option 0 and flashes once
        device = Device()
        device.press_button(SELECT, 0.0)
        device.press_button(SELECT, 0.0)
        assert device.selected_option == 2
        snaps = run_quiet(device, 200, presses=[(0, SELECT)])
        assert device.selected_option == 0
        assert rising_edges([s.blue for s in snaps]) == 1

    @pytest.mark.parametrize("presses,expected_flashes", [(1, 2), (2, 3), (3, 1)])
    def test_blue_flash_count_signals_selection(self, presses, expected_flashes):
        # setup presses at t=0 flash too; their schedule is long gone by t=2
        device = Device()
        for _ in range(presses - 1):
            device.press_button(SELECT, 0.0)
        snaps = run_quiet(device, 400, presses=[(200, SELECT)])
        blue = [s.blue for s in snaps]
        assert not any(blue[100:200])  # dark between setup and the press
        assert rising_edges(blue[200:]) == expected_flashes

    def test_blue_flash_schedule(self):
        # press at t=2.0 with period 0.25: on during [2+0.25j, 2+0.25j+0.125)
        device = Device()
        snaps = run_quiet(device, 400, presses=[(200, SELECT)])
        n_flashes = 2
        period = device.config.blue_flash_period_seconds
        for snap in snaps:
            dt = snap.t - 2.0
            expected = 0.0 <= dt < n_flashes * period and (dt % period) < period / 2
            assert snap.blue == expected

    def test_select_resets_timer(self):
        # selecting option 1 (30 s) at t=3 delays the alert to t=33
        device = Device()
        snaps = run_quiet(device, 3600, presses=[(300, SELECT)])
        starts = [e.t for e in device.events if e.kind == VIB_START]
        assert starts == [pytest.approx(33.0)]
        assert snaps[300].timer_seconds == 0.0


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(vibration_seconds=float("nan")),
            dict(vibration_seconds=-5.0),
            dict(blue_flash_period_seconds=float("inf")),
            dict(inactivity_options=(10.0, float("nan"), 60.0)),
            dict(inactivity_options=(10.0, 30.0, float("inf"))),
        ],
    )
    def test_fields_must_be_positive_and_finite(self, kwargs):
        with pytest.raises(ValueError):
            DeviceConfig(**kwargs)

    @pytest.mark.parametrize(
        "detector_config",
        [DetectorConfig(inactivity_seconds=20.0), DetectorConfig(vibration_seconds=4.0)],
    )
    def test_detector_config_must_agree_with_the_device_durations(self, detector_config):
        with pytest.raises(ValueError, match="option 0 and vibration_seconds are 10.0 s and 5.0 s"):
            Device(DeviceConfig(), detector_config)

    def test_two_options_are_refused(self):
        with pytest.raises(ValueError, match="^exactly three inactivity options are required, "
                                             "got 2$"):
            DeviceConfig(inactivity_options=(10.0, 30.0))

    def test_option_off_the_tick_grid_fails_at_construction(self):
        # not at the select press that would switch to it
        with pytest.raises(ValueError, match="whole number"):
            Device(DeviceConfig(inactivity_options=(10.0, 30.0, 0.005)))


class TestRedLed:
    def test_red_flashes_only_during_vibration_when_enabled(self):
        device = Device(DeviceConfig(red_led_enabled_default=True))
        snaps = run_quiet(device, 3200)
        period = device.config.blue_flash_period_seconds
        starts = sorted(e.t for e in device.events if e.kind == VIB_START)
        assert starts == [pytest.approx(10.0), pytest.approx(25.0)]
        for snap in snaps:
            if not snap.motor:
                assert not snap.red
            else:
                anchor = max(t for t in starts if t <= snap.t)
                assert snap.red == (((snap.t - anchor) % period) < period / 2)
        # bursts exist in both vibration windows
        red = np.array([s.red for s in snaps])
        t = np.array([s.t for s in snaps])
        assert red[(t >= 10.0) & (t < 15.0)].any()
        assert red[(t >= 25.0) & (t < 30.0)].any()
        assert not red[(t < 10.0) | ((t >= 15.0) & (t < 25.0))].any()

    def test_red_disabled_by_default(self):
        device = Device()
        snaps = run_quiet(device, 1600)
        assert any(s.motor for s in snaps)
        assert not any(s.red for s in snaps)

    def test_toggle_mid_vibration(self):
        device = Device()
        snaps = run_quiet(device, 1600, presses=[(1200, RED_TOGGLE)])
        red = np.array([s.red for s in snaps])
        motor = np.array([s.motor for s in snaps])
        assert not red[:1200].any()
        assert red[1200:1500].any()
        assert not red[~motor].any()


def blue_after_select(period, rate, start, presses=2, t=None):
    """Blue LED of the ticks from `start` on, after `presses` select presses
    made just before tick `start` (at time `t`, by default the tick's own)."""
    device = Device(DeviceConfig(blue_flash_period_seconds=period),
                    DetectorConfig(tick_seconds=1.0 / rate))
    for k in range(start):
        device.tick(0.0, k / rate)
    for _ in range(presses):
        device.press_button(SELECT, start / rate if t is None else t)
    span = round(3 * period * rate) + 5
    return [device.tick(0.0, k / rate).blue for k in range(start, start + span)]


class TestLedClock:
    """The LEDs count the detector's ticks: a pattern does not depend on its start tick."""

    @pytest.mark.parametrize("period,rate", [(0.25, 100.0), (0.3, 100.0), (0.07, 100.0),
                                             (0.25, 50.0)])
    def test_blue_pattern_is_the_same_for_every_press_tick(self, period, rate):
        patterns = {tuple(blue_after_select(period, rate, start)) for start in range(80)}
        assert len(patterns) == 1
        assert rising_edges(patterns.pop()) == 3

    def test_flashes_of_seven_ticks_are_on_for_four(self):
        blue = blue_after_select(0.07, 100.0, 4)
        assert blue == ([True] * 4 + [False] * 3) * 3 + [False] * 5

    def test_half_tick_period(self):
        # 0.25 s at 50 Hz is 12.5 ticks: each flash is lit for 7 ticks
        blue = blue_after_select(0.25, 50.0, 0)
        assert blue[:38] == ([True] * 7 + [False] * 6 + [True] * 6 + [False] * 6
                             + [True] * 7 + [False] * 6)
        assert not any(blue[38:])

    @pytest.mark.parametrize("period", [0.013, 0.001])
    def test_flash_period_under_two_ticks_is_refused(self, period):
        # A one-tick cycle would light option 1's two flashes as one lit tick.
        with pytest.raises(ValueError, match=f"^blue_flash_period_seconds={period} must be at "
                                             "least two 0.01 s ticks$"):
            Device(DeviceConfig(blue_flash_period_seconds=period))

    def test_flash_period_of_two_ticks_flashes_on_one_tick_each(self):
        assert blue_after_select(0.02, 100.0, 3, presses=1) == [True, False] * 2 + [False] * 7
        assert blue_after_select(0.02, 100.0, 3) == [True, False] * 3 + [False] * 5

    def test_off_grid_press_starts_at_the_next_tick(self):
        assert blue_after_select(0.25, 100.0, 5, t=0.043) == blue_after_select(0.25, 100.0, 5)

    def test_red_pattern_is_the_same_for_every_vibration_start_tick(self):
        # a movement tick starts a 500-tick vibration 1000 quiet ticks later
        patterns = set()
        for start in range(1500, 1560):
            device = Device(DeviceConfig(red_led_enabled_default=True))
            vms = [300.0 if k == start - 1000 else 0.0 for k in range(start + 500)]
            vibration = [device.tick(vm, k / 100.0) for k, vm in enumerate(vms)][start:]
            assert all(snap.motor for snap in vibration)
            patterns.add(tuple(snap.red for snap in vibration))
        assert len(patterns) == 1
        assert rising_edges(patterns.pop()) == 20


class TestPower:
    def test_white_led_tracks_power(self):
        device = Device()
        snaps = run_quiet(device, 100)
        assert all(s.white for s in snaps)
        device.press_button(POWER, 1.0)
        snaps = run_quiet(device, 100, start_tick=100)
        assert not any(s.white for s in snaps)

    def test_power_off_is_absorbing(self):
        device = Device()
        run_quiet(device, 1100)  # vibrating now
        device.press_button(POWER, 11.0)
        snap = device.tick(0.0, 11.0)
        assert snap == snap.__class__(11.0, False, False, False, False, 0, 0.0)
        events_before = list(device.events)
        # nothing reacts anymore, including further presses
        device.press_button(POWER, 11.01)
        device.press_button(SELECT, 11.02)
        device.press_button(RED_TOGGLE, 11.03)
        snaps = run_quiet(device, 500, start_tick=1101)
        assert device.selected_option == 0
        assert all(not (s.motor or s.white or s.blue or s.red) for s in snaps)
        assert device.events == events_before

    def test_unknown_button_rejected(self):
        with pytest.raises(ValueError):
            Device().press_button("mystery", 0.0)


class TestAgainstBareDetector:
    def test_device_forwards_vm_to_detector(self):
        rng = np.random.default_rng(41)
        vms = rng.uniform(0.0, 300.0, 4000)
        device = Device()
        for k, value in enumerate(vms):
            device.tick(float(value), k * TICK)
        bare = InactivityDetector(device.detector_config)
        events = []
        for k, value in enumerate(vms):
            events.extend(bare.tick(float(value), k * TICK))
        assert device.events == events


@st.composite
def select_cases(draw):
    """Option and vibration durations in ticks, a threshold, a VM stream of
    runs at, just above, just below and far from the threshold, and the ticks
    of select presses: anywhere, or inside a vibration of the press-free run."""
    options = draw(st.tuples(*[st.integers(1, 150)] * 3))
    vibration = draw(st.integers(1, 100))
    threshold = draw(st.sampled_from([125.0, 1.0]) | st.floats(1e-3, 1e4))
    levels = [
        0.0, threshold, math.nextafter(threshold, math.inf),
        math.nextafter(threshold, 0.0), threshold / 2, 3 * threshold,
    ]
    runs = draw(st.lists(st.tuples(st.sampled_from(levels), st.integers(1, 300)), max_size=12))
    vms = [vm for vm, length in runs for _ in range(length)]
    n = len(vms)
    presses = set(draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=4)) if n else ())
    above = np.asarray(vms) > threshold
    starts = [k for k, kind in detector_event_oracle(above, options[0], vibration)
              if kind == "vib_start"]
    if starts:
        for start in draw(st.lists(st.sampled_from(starts), max_size=3)):
            presses.add(min(n - 1, start + draw(st.integers(0, vibration))))
    return options, vibration, threshold, vms, sorted(presses)


class TestSelectDifferential:
    @settings(max_examples=200, deadline=None)
    @given(select_cases())
    @example(((5, 7, 9), 10, 125.0, [0.0] * 40, [8]))  # a press mid-vibration
    def test_device_events_match_arithmetic_oracle(self, case):
        options, vibration, threshold, vms, presses = case
        device = Device(
            DeviceConfig(tuple(k * TICK for k in options), vibration * TICK),
            DetectorConfig(threshold, options[0] * TICK, vibration * TICK, TICK),
        )
        changes = []
        option = 0
        pending = list(presses)
        for k, vm in enumerate(vms):
            if pending and pending[0] == k:
                pending.pop(0)
                device.press_button(SELECT, k * TICK)
                option = (option + 1) % 3
                changes.append((k, options[option]))
            device.tick(vm, k * TICK)
        expected = detector_event_oracle(
            np.asarray(vms) > threshold, options[0], vibration, option_changes=changes
        )
        assert [(round(e.t / TICK), e.kind) for e in device.events] == expected


class TestSnapshotRecord:
    def test_fields_are_read_only(self):
        snap = Device().tick(0.0, 0.0)
        for name in ("t", "motor", "white", "blue", "red", "option", "timer_seconds"):
            with pytest.raises(AttributeError):
                setattr(snap, name, getattr(snap, name))

    def test_equal_fields_compare_equal(self):
        snap = Device().tick(0.0, 0.0)
        assert snap == DeviceSnapshot(
            t=0.0, motor=False, white=True, blue=False, red=False, option=0, timer_seconds=0.0
        )
        assert snap == Device().tick(0.0, 0.0)
        assert snap != Device().tick(0.0, 0.01)


def rest_and_movement(n: int, seed: int = 7):
    """n samples at 100 Hz: rest under gravity with noise far below the
    dead-band, and from tick 300 on, every 1,500 ticks, 4 s of 1 Hz shaking
    on two axes, strong enough to reset the inactivity timer."""
    rng = np.random.default_rng(seed)
    xyz = np.array([0.0, 0.0, 1.0]) + rng.normal(0.0, 0.003, (n, 3))
    k = np.arange(400)
    shake = 3.0 * np.sin(np.pi * k / 400) * np.sin(2 * np.pi * k / 100.0)
    for start in range(300, n - 400, 1500):
        xyz[start:start + 400, :2] += shake[:, None]
    return make_samples(xyz)


class TestStreamingTick:
    """`process_sample` and `Device.tick` build their results with `tuple.__new__`,
    which skips the class call's field-count check."""

    def test_results_are_the_named_tuples_field_for_field(self):
        # Resets from the shaking at 3 s, the red LED switched on at 1 s, a
        # vibration from 16.2 s that the shaking at 18 s ends, a select press at
        # 25 s (two blue flashes), power-off at 26 s.
        samples = rest_and_movement(2700)
        select_tick, power_tick, red_tick = 2500, 2600, 100
        pipeline, device = CountsPipeline.from_spec(), Device()
        period = round(device.config.blue_flash_period_seconds / TICK)
        vib_start = None
        vms, snaps = [], []
        for k, sample in enumerate(samples):
            if k == red_tick:
                device.press_button(RED_TOGGLE, sample.t)
            if k in (select_tick, power_tick):
                device.press_button(SELECT if k == select_tick else POWER, sample.t)
            count = pipeline.process_sample(sample)
            assert type(count) is VmCount
            assert count == VmCount(t=sample.t, value=vm(*pipeline.epoch_sums))
            n_events = len(device.events)
            snap = device.tick(count.value, sample.t)
            if any(e.kind == VIB_START for e in device.events[n_events:]):
                vib_start = k
            on = device.power
            motor = on and device._detector.vibrating
            since = k - select_tick
            blue = on and 0 <= since < 2 * period and since % period < period / 2
            red = motor and (k - vib_start) % period < period / 2
            assert type(snap) is DeviceSnapshot
            assert snap == DeviceSnapshot(
                t=sample.t, motor=motor, white=on, blue=blue, red=red,
                option=device.selected_option,
                timer_seconds=device._detector.timer_seconds if on else 0.0,
            ), k
            vms.append(count.value)
            snaps.append(snap)
        kinds = {e.kind for e in device.events}
        assert {RESET, VIB_START, VIB_END} <= kinds
        assert any(s.red for s in snaps) and any(s.blue for s in snaps)
        assert any(not s.white for s in snaps) and any(s.option == 1 for s in snaps)
        assert 0.0 in vms  # quiet ticks

    def test_heap_does_not_grow_with_the_stream(self):
        """After one epoch, 10,000 ticks grow the traced heap by the events they
        append, plus a fixed slack for objects the interpreter keeps off its free
        lists (measured 720 B over 1,104 B of events). Every ring slot holds a
        float of its own, so a quiet tick swaps one float for another of the same
        size; one shared 0.0 in the quiet slots measured 3,144 B over the events."""
        samples = rest_and_movement(100 + 10_000)
        pipeline, device = CountsPipeline.from_spec(), Device()
        for sample in samples[:100]:
            device.tick(pipeline.process_sample(sample).value, sample.t)
        n_events, list_size = len(device.events), sys.getsizeof(device.events)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for sample in samples[100:]:
                device.tick(pipeline.process_sample(sample).value, sample.t)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        appended = device.events[n_events:]
        assert len(appended) >= 10
        events = sys.getsizeof(device.events) - list_size + sum(map(sys.getsizeof, appended))
        assert growth <= events + 1024, (growth, events)
