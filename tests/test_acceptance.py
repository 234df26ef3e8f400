"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s` to see them).
"""

import dataclasses
import time

import numpy as np
import pytest

from stillwatch import (
    Biquad,
    CountsPipeline,
    DetectorConfig,
    Device,
    DeviceConfig,
    FilterSpec,
    InactivityDetector,
    MotorFeedback,
    RawSample,
    canonical_scenario,
    contribution,
    design_bandpass_cascade,
    frequency_response,
    rectify_threshold,
    run,
)
from stillwatch import io as formats

from conftest import make_samples, random_vm_trace, trace_text
from _oracles import detector_event_oracle, fsum_window_sums

TICK = 0.01


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_filter_design():
    start = time.perf_counter()
    (coeffs,) = design_bandpass_cascade(FilterSpec(100.0, 0.305, 1.615))
    for f in (0.305, 1.615):
        assert 0.700 <= abs(frequency_response(coeffs, f, 100.0)) <= 0.714
    assert abs(frequency_response(coeffs, 0.0, 100.0)) < 1e-12
    assert abs(frequency_response(coeffs, 50.0, 100.0)) < 1e-12
    assert np.all(np.abs(np.roots([1.0, coeffs.a1, coeffs.a2])) < 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"band-pass design hits -3 dB cutoffs with DC/Nyquist zeros "
               f"({elapsed * 1e3:.1f} ms)")


def test_criterion_2_gravity_rejection():
    start = time.perf_counter()
    n = 6000  # 60 s at 100 Hz
    pipeline = CountsPipeline.from_spec()
    detector = InactivityDetector()
    movement_resets = 0
    vm_max = 0.0
    late_vm_max = 0.0
    for k in range(n):
        t = k * TICK
        count = pipeline.process_sample(RawSample(t, 0.0, 0.0, 1.0))
        out = detector.tick(count.value, t)
        # resets paired with a vibration end are the alert cycle, not a
        # movement detection
        kinds = [e.kind for e in out]
        if "reset" in kinds and "vib_end" not in kinds:
            movement_resets += 1
        vm_max = max(vm_max, count.value)
        if t > 10.0:
            late_vm_max = max(late_vm_max, count.value)
    elapsed = time.perf_counter() - start
    assert late_vm_max < 1.0
    assert vm_max < 125.0  # no tick could ever register as movement
    assert movement_resets == 0
    assert elapsed < 1.0
    _report(2, f"constant gravity stays below 1 count after 10 s "
               f"(max {late_vm_max:.3g}), no movement detections "
               f"({elapsed * 1e3:.0f} ms)")


def test_criterion_3_motor_vibration_rejection():
    start = time.perf_counter()
    base = canonical_scenario(duration_seconds=120.0)
    fed = dataclasses.replace(
        base, motor_feedback=MotorFeedback(enabled=True, amplitude_g=0.5, frequency_hz=20.0)
    )
    trace_off = run(base)
    trace_on = run(fed)
    elapsed = time.perf_counter() - start
    assert len(trace_on.events) > 10  # several vibration cycles happened
    assert trace_on.events == trace_off.events
    assert np.array_equal(trace_on.motor, trace_off.motor)
    assert elapsed < 5.0
    _report(3, f"20 Hz / 0.5 g motor feedback leaves the 120 s event trace "
               f"tick-identical ({len(trace_on.events)} events, {elapsed:.2f} s)")


def test_criterion_4_canonical_scenario_reproduction():
    start = time.perf_counter()
    trace = run(canonical_scenario())
    elapsed = time.perf_counter() - start
    kinds = [e.kind for e in trace.events]
    assert kinds == ["reset", "vib_start", "vib_end", "reset"]
    onset, vib_start, vib_end, final_reset = trace.events
    # detection happens during the movement burst
    assert 5.0 <= onset.t <= 8.5
    assert trace.vm.max() > 125.0
    # vibration starts one inactivity period after the last super-threshold
    # tick, ends one vibration period later, and resets the timer
    last_above = trace.t[trace.vm > 125.0].max()
    assert abs(vib_start.t - (last_above + 10.0)) <= TICK + 1e-9
    assert abs(vib_end.t - (vib_start.t + 5.0)) <= TICK + 1e-9
    assert final_reset.t == vib_end.t
    assert elapsed < 5.0
    _report(4, f"burst-then-rest run: reset@{onset.t:.2f}s, vib {vib_start.t:.2f}s"
               f"-{vib_end.t:.2f}s, reset ({elapsed:.2f} s)")


def test_criterion_5_sliding_window_oracle():
    rng = np.random.default_rng(77)
    cfg = CountsPipeline.from_spec().config
    for stream in range(100):
        n = 3000  # 30 s
        xyz = rng.normal(0.0, 0.5, (n, 3))
        xyz[:, 2] += 1.0
        if stream % 3 == 0:  # some streams with strong bursts
            t = np.arange(n) / 100.0
            xyz += (2.0 * np.sin(2 * np.pi * 1.3 * t) * (t < 12.0))[:, None]
        pipeline = CountsPipeline.from_spec()
        sums = np.empty((n, 3))
        for k, sample in enumerate(make_samples(xyz)):
            pipeline.process_sample(sample)
            sums[k] = pipeline.epoch_sums
        for axis in range(3):
            chain = [Biquad(c) for c in pipeline.sections]
            ys = xyz[:, axis].tolist()
            for biquad in chain:
                ys = biquad._process(ys)
            cs = [contribution(rectify_threshold(y, cfg), cfg) for y in ys]
            assert np.array_equal(sums[:, axis], fsum_window_sums(cs, cfg.window_samples))
    _report(5, "100 random 30 s streams: every epoch sum equals math.fsum of its window")


def test_criterion_6_detector_oracle_equivalence():
    rng = np.random.default_rng(88)
    cfg = DetectorConfig()
    total_events = 0
    for _ in range(1000):
        n = int(rng.integers(300, 2600))
        vms = random_vm_trace(rng, n)
        detector = InactivityDetector(cfg)
        got = []
        for k, value in enumerate(vms):
            for event in detector.tick(float(value), k * TICK):
                got.append((k, event.kind))
        expected = detector_event_oracle(
            vms > cfg.count_threshold, cfg.inactivity_ticks, cfg.vibration_ticks
        )
        assert got == expected
        total_events += len(got)
    assert total_events > 1000  # the traces actually exercised the machine
    _report(6, f"1000 random traces: FSM event timestamps equal the "
               f"arithmetic re-simulation exactly ({total_events} events)")


def test_criterion_7_fsm_timing_invariants():
    rng = np.random.default_rng(99)
    checked_starts = 0
    for trial in range(40):
        cfg = DetectorConfig(
            inactivity_seconds=float(rng.integers(1, 15)),
            vibration_seconds=float(rng.integers(1, 8)),
        )
        n = int(rng.integers(2000, 6000))
        vms = random_vm_trace(rng, n, cfg.count_threshold)
        detector = InactivityDetector(cfg)
        events = []
        motor = np.empty(n, dtype=bool)
        for k, value in enumerate(vms):
            events.extend(detector.tick(float(value), k * TICK))
            motor[k] = detector.vibrating
        above = vms > cfg.count_threshold
        starts = [round(e.t / TICK) for e in events if e.kind == "vib_start"]
        ends = [round(e.t / TICK) for e in events if e.kind == "vib_end"]
        for i, s in enumerate(starts):
            # never earlier than the inactivity time after the latest reset:
            # the whole preceding window is quiet
            assert not above[s - cfg.inactivity_ticks + 1 : s + 1].any()
            if i < len(ends):
                duration = ends[i] - s
                assert duration <= cfg.vibration_ticks
                if duration < cfg.vibration_ticks:
                    assert above[ends[i]]  # ended early: only on movement
            checked_starts += 1
        assert not (motor & above).any()
    assert checked_starts > 50
    _report(7, f"timing invariants hold over 40 random configurations "
               f"({checked_starts} vibration starts checked)")


def test_criterion_8_interaction_model():
    # cyclic selection with 1/2/3 blue flashes
    for setup_presses, expected_option, expected_flashes in ((0, 1, 2), (1, 2, 3), (2, 0, 1)):
        device = Device()
        for _ in range(setup_presses):
            device.press_button("select", 0.0)
        snaps = []
        for k in range(400):
            if k == 200:
                device.press_button("select", k * TICK)
            snaps.append(device.tick(0.0, k * TICK))
        assert device.selected_option == expected_option
        blue = np.array([s.blue for s in snaps[200:]])
        edges = int(np.count_nonzero(blue[1:] & ~blue[:-1]) + (1 if blue[0] else 0))
        assert edges == expected_flashes
        assert not any(s.blue for s in snaps[100:200])

    # red LED flashes only while vibrating and only when enabled
    for enabled in (False, True):
        device = Device(DeviceConfig(red_led_enabled_default=enabled))
        snaps = [device.tick(0.0, k * TICK) for k in range(1700)]
        motor = np.array([s.motor for s in snaps])
        red = np.array([s.red for s in snaps])
        assert motor.any()
        assert not red[~motor].any()
        assert red.any() == enabled

    # white LED tracks power; power-off is absorbing
    device = Device()
    snaps = [device.tick(0.0, k * TICK) for k in range(1100)]
    assert all(s.white for s in snaps)
    assert snaps[-1].motor  # vibrating when we cut the power
    device.press_button("power", 11.0)
    device.press_button("power", 11.01)  # second press is a no-op
    device.press_button("select", 11.02)
    after = [device.tick(0.0, (1100 + k) * TICK) for k in range(200)]
    assert device.selected_option == 0
    assert all(not (s.white or s.motor or s.blue or s.red) for s in after)
    _report(8, "buttons and LEDs behave: cyclic selection with 1/2/3 blue "
               "flashes, gated red flashing, white on power, absorbing off")


def test_criterion_9_determinism_and_round_trips(tmp_path):
    # byte-identical repeated end-to-end runs
    scenario = canonical_scenario()
    text_a = trace_text(run(scenario))
    text_b = trace_text(run(scenario))
    assert text_a == text_b

    rng = np.random.default_rng(111)
    files = 0
    # 400 sample files
    for _ in range(400):
        t0 = float(rng.integers(0, 50))
        samples = [
            RawSample(t0 + k / 100.0, *(float(v) for v in rng.normal(0, 1, 3)))
            for k in range(int(rng.integers(0, 25)))
        ]
        text = formats.serialize_samples(samples)
        assert formats.serialize_samples(formats.parse_samples(text)) == text
        assert formats.parse_samples(text).tolist() == [list(s) for s in samples]
        files += 1
    # 200 event files
    from stillwatch import DetectorEvent

    for _ in range(200):
        events = []
        t = 0.0
        for _ in range(int(rng.integers(0, 12))):
            t += float(np.round(rng.uniform(0.01, 30.0), 2))
            events.append(DetectorEvent(t, str(rng.choice(["reset", "vib_start", "vib_end"]))))
        text = formats.serialize_events(events)
        assert formats.serialize_events(formats.parse_events(text)) == text
        files += 1
    # 150 scenario files
    from test_io import random_scenario

    for _ in range(150):
        scenario = random_scenario(rng)
        text = formats.serialize_scenario(scenario)
        assert formats.parse_scenario(text) == scenario
        assert formats.serialize_scenario(formats.parse_scenario(text)) == text
        files += 1
    # 250 config files
    for _ in range(250):
        config = formats.ConfigFile(
            low_cutoff_hz=float(np.round(rng.uniform(0.1, 0.9), 3)),
            high_cutoff_hz=float(np.round(rng.uniform(1.0, 20.0), 3)),
            filter_order=int(rng.choice([2, 4])),
            count_threshold=float(rng.integers(50, 400)),
            device=DeviceConfig(
                inactivity_options=tuple(float(x) for x in rng.integers(1, 200, 3)),
                vibration_seconds=float(rng.integers(1, 30)),
                red_led_enabled_default=bool(rng.integers(0, 2)),
            ),
        )
        text = formats.serialize_config(config)
        assert formats.parse_config(text) == config
        assert formats.serialize_config(formats.parse_config(text)) == text
        files += 1
    assert files == 1000
    _report(9, "repeated runs byte-identical; 1000 generated files "
               "round-trip through parse/serialize")
