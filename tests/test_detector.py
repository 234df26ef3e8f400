import numpy as np
import pytest

from stillwatch import (
    RESET,
    VIB_END,
    VIB_START,
    DetectorConfig,
    InactivityDetector,
    detector_tick,
)

from _oracles import detector_event_oracle
from conftest import random_vm_trace

TICK = 0.01

STATE_SLOTS = ("vibrating", "tick_index", "last_reset_tick", "vibration_start_tick", "prev_above")


def drive(vms, cfg=None):
    """Feed a vm sequence tick by tick; returns (events, motor_flags, detector)."""
    det = InactivityDetector(cfg or DetectorConfig())
    events = []
    motor = []
    for k, value in enumerate(vms):
        out = det.tick(float(value), k * TICK)
        events.extend(out.events)
        motor.append(out.motor_on)
    return events, np.array(motor), det


class TestTickRules:
    def test_movement_resets_timer_and_emits(self):
        det = InactivityDetector()
        for k in range(301):
            assert det.tick(0.0, k * TICK).events == ()
        assert det.timer_seconds == pytest.approx(3.00)
        out = det.tick(126.0, 3.01)
        assert [e.kind for e in out.events] == [RESET]
        assert det.timer_seconds == 0.0
        # already moving on the previous tick: no second onset event
        assert det.tick(126.0, 3.02).events == ()

    def test_onset_event_only_once_per_burst(self):
        events, _, _ = drive([0.0] * 300 + [200.0] * 150 + [0.0] * 10)
        assert [e.kind for e in events] == [RESET]
        assert events[0].t == pytest.approx(3.00)

    def test_threshold_is_strict(self):
        # timer at 3.00 s, then a tick at exactly the threshold keeps counting
        events, _, det = drive([0.0] * 301 + [125.0])
        assert events == []
        assert det.timer_seconds == pytest.approx(3.01)

    def test_movement_above_threshold_after_three_seconds(self):
        events, _, det = drive([0.0] * 300 + [126.0])
        assert [e.kind for e in events] == [RESET]
        assert det.timer_seconds == 0.0

    def test_zero_vm_cycle_timing(self):
        # quiet stream: vibration at 10 s for 5 s, repeating every 15 s
        n = 6200
        events, motor, _ = drive([0.0] * n)
        expected = [
            (10.00, VIB_START),
            (15.00, VIB_END),
            (15.00, RESET),
            (25.00, VIB_START),
            (30.00, VIB_END),
            (30.00, RESET),
            (40.00, VIB_START),
            (45.00, VIB_END),
            (45.00, RESET),
            (55.00, VIB_START),
            (60.00, VIB_END),
            (60.00, RESET),
        ]
        assert [(round(e.t, 2), e.kind) for e in events] == expected
        # motor on exactly within [start, end) of each episode
        t = np.arange(n) * TICK
        expected_motor = ((t >= 10.0) & (t < 15.0)) | ((t >= 25.0) & (t < 30.0)) \
            | ((t >= 40.0) & (t < 45.0)) | ((t >= 55.0) & (t < 60.0))
        assert np.array_equal(motor, expected_motor)

    def test_movement_cancels_vibration(self):
        vms = [0.0] * 1234
        vms[1100] = 300.0  # hits during the vibration that started at tick 1000
        events, motor, _ = drive(vms)
        kinds = [(round(e.t, 2), e.kind) for e in events]
        assert kinds[:3] == [(10.00, VIB_START), (11.00, VIB_END), (11.00, RESET)]
        assert not motor[1100]
        assert motor[1099]

    def test_movement_at_trigger_tick_wins(self):
        vms = [0.0] * 1001
        vms[1000] = 130.0
        events, motor, _ = drive(vms)
        assert [(round(e.t, 2), e.kind) for e in events] == [(10.00, RESET)]
        assert not motor.any()

    def test_rejects_bad_vm(self):
        det = InactivityDetector()
        before = [getattr(det, name) for name in STATE_SLOTS]
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                det.tick(bad, 0.0)
        assert [getattr(det, name) for name in STATE_SLOTS] == before

    def test_pure_function_matches_wrapper(self):
        rng = np.random.default_rng(31)
        vms = random_vm_trace(rng, 3000)
        events_a, motor_a, _ = drive(vms)
        det = InactivityDetector()
        events_b = []
        motor_b = []
        for k, value in enumerate(vms):
            out = detector_tick(det, float(value), k * TICK)
            events_b.extend(out.events)
            motor_b.append(out.motor_on)
        assert events_a == events_b
        assert np.array_equal(motor_a, np.array(motor_b))


class TestConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DetectorConfig(count_threshold=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(inactivity_seconds=-1.0)

    def test_durations_must_sit_on_the_tick_grid(self):
        with pytest.raises(ValueError, match="whole number"):
            DetectorConfig(inactivity_seconds=10.005)
        with pytest.raises(ValueError, match="whole number"):
            DetectorConfig(vibration_seconds=0.0049, tick_seconds=0.01)
        with pytest.raises(ValueError, match="whole number"):
            DetectorConfig(inactivity_seconds=1e308)  # more ticks than a float holds

    def test_tick_conversion(self):
        cfg = DetectorConfig()
        assert cfg.inactivity_ticks == 1000
        assert cfg.vibration_ticks == 500


class TestHelpers:
    def test_timer_reads(self):
        # the first tick is the watch-start instant, so 250 ticks span 2.49 s
        det = InactivityDetector()
        for k in range(250):
            det.tick(0.0, k * TICK)
        assert det.timer_seconds == pytest.approx(2.49)
        assert not det.vibrating

    def test_timer_frozen_while_vibrating(self):
        det = InactivityDetector()
        for k in range(1100):
            det.tick(0.0, k * TICK)
        assert det.vibrating
        assert det.timer_seconds == 10.0
        # the vibration began 99 ticks (0.99 s) before the last tick
        assert det.tick_index - 1 - det.vibration_start_tick == 99


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_traces_match_arithmetic_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = DetectorConfig()
        n = int(rng.integers(500, 4000))
        vms = random_vm_trace(rng, n)
        events, motor, _ = drive(vms, cfg)
        oracle = detector_event_oracle(
            vms > cfg.count_threshold, cfg.inactivity_ticks, cfg.vibration_ticks
        )
        got = [(round(e.t / TICK), e.kind) for e in events]
        assert got == [(k, kind) for k, kind in oracle]

    @pytest.mark.parametrize("seed", range(4))
    def test_timing_invariants(self, seed):
        rng = np.random.default_rng(200 + seed)
        cfg = DetectorConfig(
            inactivity_seconds=float(rng.integers(2, 15)),
            vibration_seconds=float(rng.integers(1, 8)),
        )
        n = 5000
        vms = random_vm_trace(rng, n)
        events, motor, _ = drive(vms, cfg)
        above = vms > cfg.count_threshold
        starts = [e for e in events if e.kind == VIB_START]
        ends = [e for e in events if e.kind == VIB_END]
        # pair each start with the next end
        for i, start in enumerate(starts):
            s = round(start.t / TICK)
            # no vibration before the inactivity time has fully elapsed: the
            # reference tick sits at s - inactivity_ticks, and every tick
            # strictly after it up to and including s was quiet
            window = above[s - cfg.inactivity_ticks + 1 : s + 1]
            assert len(window) == cfg.inactivity_ticks
            assert not window.any()
            if i < len(ends):
                e = round(ends[i].t / TICK)
                duration = e - s
                assert duration <= cfg.vibration_ticks
                if duration < cfg.vibration_ticks:
                    assert above[e]  # early end only on movement
        # motor never on when the current tick showed movement
        assert not (motor & above).any()
