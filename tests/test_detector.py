from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        events.extend(det.tick(float(value), k * TICK))
        motor.append(det.vibrating)
    return events, np.array(motor), det


class TestTickRules:
    def test_movement_resets_timer_and_emits(self):
        det = InactivityDetector()
        for k in range(301):
            assert det.tick(0.0, k * TICK) == ()
        assert det.timer_seconds == pytest.approx(3.00)
        out = det.tick(126.0, 3.01)
        assert [e.kind for e in out] == [RESET]
        assert det.timer_seconds == 0.0
        # already moving on the previous tick: no second onset event
        assert det.tick(126.0, 3.02) == ()

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
        for bad in (-1.0, float("nan"), float("inf"), 10**400, -10**400):
            with pytest.raises(ValueError, match="finite and nonnegative"):
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
            events_b.extend(detector_tick(det, float(value), k * TICK))
            motor_b.append(det.vibrating)
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

    @pytest.mark.parametrize("seed", range(8))
    def test_block_scan_matches_arithmetic_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = DetectorConfig()
        n = int(rng.integers(500, 4000))
        vms = random_vm_trace(rng, n)
        det = InactivityDetector(cfg)
        events = []
        for lo, hi in pairwise([0, *sorted(rng.integers(0, n, 3).tolist()), n]):
            events += det.process_block(vms[lo:hi], np.arange(lo, hi) * TICK)
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


# Counts that matter to the movement rule at the stock threshold of 125:
# rest, quiet, the threshold itself, the next double above it, and bursts.
VM_LEVELS = (0.0, 40.0, 125.0, float(np.nextafter(125.0, np.inf)), 126.0, 300.0)


def fast_config(inactivity_ticks: int, vibration_ticks: int) -> DetectorConfig:
    return DetectorConfig(inactivity_seconds=inactivity_ticks * TICK,
                          vibration_seconds=vibration_ticks * TICK)


@st.composite
def split_streams(draw):
    """(vms, config, blocks): a stream of stretches at the levels above, cut into
    blocks (lo, hi, as_block, change). Each block runs through `tick` or
    `process_block`; `change`, if any, is set before it, as a select press
    does: a new config, and with `True` the timer reference moved to the seam."""
    configs = st.builds(fast_config, st.integers(1, 30), st.integers(1, 20))
    stretches = draw(st.lists(st.tuples(st.sampled_from(VM_LEVELS), st.integers(1, 40)),
                              max_size=30))
    vms = [level for level, length in stretches for _ in range(length)]
    cuts = sorted(draw(st.sets(st.integers(0, len(vms)), max_size=8)) | {0, len(vms)})
    blocks = [(lo, hi, draw(st.booleans()), draw(st.none() | st.tuples(configs, st.booleans())))
              for lo, hi in pairwise(cuts)]
    return vms, draw(configs), blocks


def state(det):
    return [getattr(det, name) for name in STATE_SLOTS]


class TestProcessBlock:
    @settings(max_examples=300, deadline=None)
    @given(split_streams())
    # A shorter inactivity time set without moving the reference, long overdue
    # at the seam: the movement there resets the timer, no vibration starts.
    @example(([0.0] * 20 + [300.0] + [0.0] * 9, fast_config(30, 5),
              [(0, 20, False, None), (20, 30, True, (fast_config(5, 5), False))]))
    def test_any_split_and_mix_equals_tick_alone(self, case):
        vms, cfg, blocks = case
        alone, mixed = InactivityDetector(cfg), InactivityDetector(cfg)
        want, got = [], []
        for lo, hi, as_block, change in blocks:
            if change is not None:
                for det in (alone, mixed):
                    det.cfg = change[0]
                    if change[1]:
                        det.last_reset_tick = det.tick_index
            for k in range(lo, hi):
                want.extend(alone.tick(vms[k], k * TICK))
            if as_block:
                got += mixed.process_block(np.array(vms[lo:hi]), np.arange(lo, hi) * TICK)
            else:
                for k in range(lo, hi):
                    got.extend(mixed.tick(vms[k], k * TICK))
            assert state(mixed) == state(alone), (lo, hi)
        assert got == want

    def test_stamps_events_with_the_given_times(self):
        det = InactivityDetector(fast_config(3, 2))
        vms = [0.0, 200.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        events = det.process_block(vms, [10.0 + k for k in range(7)])
        assert [(e.t, e.kind) for e in events] == [
            (11.0, RESET), (14.0, VIB_START), (16.0, VIB_END), (16.0, RESET)]
        assert all(type(e.t) is float for e in events)
        assert state(det) == [False, 7, 6, 4, False]

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
    def test_numpy_counts_tick_as_they_do_in_a_block(self, dtype):
        # 125.00001 stays above the threshold in either float type, and float32's
        # 0.1 is not float64's: each path must read the same float64.
        vms = np.array([0, 200, 0.1, 0, 0, 0, 0, 125.00001, 0, 0, 0, 0, 0]).astype(dtype)
        cfg = fast_config(3, 2)
        by_tick, by_block = InactivityDetector(cfg), InactivityDetector(cfg)
        events = [e for k, value in enumerate(vms) for e in by_tick.tick(value, k * TICK)]
        assert events == by_block.process_block(vms, np.arange(len(vms)) * TICK)
        assert state(by_tick) == state(by_block)
        before = state(by_tick)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            by_tick.tick(dtype(-1), 0.0)
        assert state(by_tick) == before

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_count_is_refused_as_tick_refuses_it(self, bad):
        det = InactivityDetector(fast_config(3, 2))
        det.process_block([0.0, 200.0, 0.0, 0.0, 0.0], np.arange(5) * TICK)
        before = state(det)
        vms = np.zeros(10)
        vms[6], vms[8] = bad, -2.0  # the first bad count is named
        with pytest.raises(ValueError) as refused:
            det.process_block(vms, np.arange(5, 15) * TICK)
        with pytest.raises(ValueError) as by_tick:
            InactivityDetector().tick(bad, 0.0)
        assert str(refused.value) == str(by_tick.value)
        assert state(det) == before

    @pytest.mark.parametrize("bad", [10**400, -10**400], ids=["10**400", "-10**400"])
    def test_a_count_past_the_floats_is_refused_as_tick_refuses_it(self, bad):
        # A list, as no float array can hold the count.
        det = InactivityDetector(fast_config(3, 2))
        before = state(det)
        vms = [0.0] * 10
        vms[6], vms[8] = bad, -2.0  # the first bad count is named
        with pytest.raises(ValueError) as refused:
            det.process_block(vms, np.arange(10) * TICK)
        with pytest.raises(ValueError) as by_tick:
            InactivityDetector().tick(bad, 0.0)
        assert str(refused.value) == str(by_tick.value)
        assert state(det) == before

    @pytest.mark.parametrize("n_times", [0, 9, 11])
    def test_length_mismatch_is_refused(self, n_times):
        det = InactivityDetector()
        before = state(det)
        with pytest.raises(ValueError, match=f"{n_times} timestamps for 10 vm counts"):
            det.process_block(np.zeros(10), np.arange(n_times) * TICK)
        assert state(det) == before

    def test_empty_block_changes_nothing(self):
        det = InactivityDetector(fast_config(3, 2))
        det.process_block([200.0, 0.0, 0.0, 0.0, 0.0], np.arange(5) * TICK)
        before = state(det)
        assert det.process_block([], []) == []
        assert det.process_block(np.empty(0), np.empty(0)) == []
        assert state(det) == before
