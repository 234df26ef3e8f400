import dataclasses
import gc
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stillwatch import (
    RESET,
    VIB_END,
    VIB_START,
    AmbientVibration,
    BurstMovement,
    ButtonPress,
    CountsConfig,
    MotorFeedback,
    Rest,
    Scenario,
    ScenarioSampler,
    SineMovement,
    canonical_scenario,
    run,
    sim,
)
from stillwatch.device import DeviceConfig
from stillwatch.sim import TRACE_COLUMNS, ConfigFile

from _oracles import reference_run, reference_sample
from conftest import trace_text

QUIET_MINUTE = Scenario(
    duration_seconds=60.0,
    seed=5,
    segments=(Rest(0.0, 60.0),),
    noise_sigma_g=0.0,
)


def rest_scenario(duration=40.0, seed=9, feedback=None, sigma=0.003):
    return Scenario(
        duration_seconds=duration,
        seed=seed,
        segments=(Rest(0.0, duration),),
        motor_feedback=feedback or MotorFeedback(),
        noise_sigma_g=sigma,
    )


class TestScenarioValidation:
    def test_segments_must_tile(self):
        with pytest.raises(ValueError, match="tile"):
            Scenario(10.0, segments=(Rest(0.0, 4.0), Rest(5.0, 10.0)))
        with pytest.raises(ValueError, match="start at 0"):
            Scenario(10.0, segments=(Rest(1.0, 10.0),))
        with pytest.raises(ValueError, match="ends at"):
            Scenario(10.0, segments=(Rest(0.0, 9.0),))

    def test_zero_duration_scenario_is_empty(self):
        scenario = Scenario(0.0)
        assert len(run(scenario)) == 0

    def test_button_press_must_land_inside(self):
        with pytest.raises(ValueError, match="outside"):
            Scenario(
                10.0,
                segments=(Rest(0.0, 10.0),),
                button_presses=(ButtonPress(10.0, "select"),),
            )

    def test_button_press_must_be_reached_by_a_tick(self):
        # the last tick of 10 s at 100 Hz is at 9.99 s
        reached = dataclasses.replace(
            rest_scenario(duration=10.0), button_presses=(ButtonPress(9.99, "select"),)
        )
        assert run(reached).option[-1] == 1
        late = dataclasses.replace(reached, button_presses=(ButtonPress(9.995, "select"),))
        with pytest.raises(ValueError, match=r"t=9.995 comes after the last tick, at t=9.99$"):
            ScenarioSampler(late, 100.0)

    def test_button_presses_land_on_the_next_tick_in_time_order(self):
        # within 1e-9 s after a tick still counts as that tick
        presses = (ButtonPress(0.0201, "select"), ButtonPress(0.013, "power"),
                   ButtonPress(0.02 + 1e-10, "red"), ButtonPress(0.012, "select"),
                   ButtonPress(0.0, "red"))
        scenario = dataclasses.replace(rest_scenario(duration=1.0), button_presses=presses)
        assert ScenarioSampler(scenario, 100.0).presses == {
            0: ["red"], 2: ["select", "power", "red"], 3: ["select"],
        }

    def test_unknown_button_rejected_when_built(self):
        # not first met by Device.press_button at its tick, mid-run
        with pytest.raises(ValueError, match="button must be one of select, red, power"):
            Scenario(
                20.0,
                segments=(Rest(0.0, 20.0),),
                button_presses=(ButtonPress(15.0, "bogus"),),
            )

    def test_frequencies_must_stay_below_nyquist(self):
        scenario = Scenario(
            10.0,
            segments=(Rest(0.0, 5.0), AmbientVibration(5.0, 10.0, 0.1, 60.0)),
        )
        with pytest.raises(ValueError, match="Nyquist"):
            ScenarioSampler(scenario, 100.0)
        feedback = Scenario(
            10.0,
            segments=(Rest(0.0, 10.0),),
            motor_feedback=MotorFeedback(True, 0.5, 55.0),
        )
        with pytest.raises(ValueError, match="Nyquist"):
            ScenarioSampler(feedback, 100.0)

    def test_segment_field_validation(self):
        with pytest.raises(ValueError):
            Rest(5.0, 5.0)
        with pytest.raises(ValueError):
            SineMovement(0.0, 1.0, "w", 0.5, 1.0)
        with pytest.raises(ValueError):
            BurstMovement(0.0, 1.0, -0.5, 1.0)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: SineMovement(0.0, 1.0, "x", 0.5, 0.0),
             "frequency_hz must be positive, got 0.0"),
            (lambda: Scenario(-1.0), "duration_seconds must be >= 0, got -1.0"),
            (lambda: Scenario(0.0, seed=-1), "seed must be an unsigned 64-bit integer, got -1"),
            (lambda: Scenario(0.0, noise_sigma_g=-0.1), "noise_sigma_g must be >= 0, got -0.1"),
            (lambda: Scenario(0.0, segments=(Rest(0.0, 1.0),)),
             "a zero-duration scenario cannot have segments"),
            (lambda: Scenario(5.0), "segments must tile [0, duration]; none given"),
            (lambda: ScenarioSampler(QUIET_MINUTE, 0.0),
             "sample_rate_hz must be positive, got 0.0"),
            (lambda: ScenarioSampler(rest_scenario(10.005), 100.0),
             "duration 10.005 s is not a whole number of samples at 100.0 Hz"),
            (lambda: canonical_scenario(5.0), "canonical scenario needs at least 10 s"),
        ],
    )
    def test_refusal_names_its_check(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


class TestGenerate:
    def test_rest_without_noise_is_pure_gravity(self):
        sample = ScenarioSampler(rest_scenario(sigma=0.0)).sample(300)
        assert (sample.ax, sample.ay, sample.az) == (0.0, 0.0, 1.0)

    def test_sine_quarter_period_peak(self):
        scenario = Scenario(
            10.0,
            segments=(SineMovement(0.0, 10.0, "x", 0.5, 1.0),),
            noise_sigma_g=0.0,
        )
        sample = ScenarioSampler(scenario).sample(25)
        assert sample.ax == pytest.approx(0.5, abs=1e-15)
        assert sample.ay == 0.0
        assert sample.az == 1.0

    def test_tick_outside_scenario_rejected(self):
        sampler = ScenarioSampler(QUIET_MINUTE)
        # Ticks run from 0 to n_ticks - 1: tick 6000 would be t = 60.0, past the last.
        assert sampler.n_ticks == 6000
        for k in (-1, 6000, 6001):
            with pytest.raises(ValueError, match="outside"):
                sampler.sample(k)

    def test_same_seed_same_samples(self):
        scenario = rest_scenario(seed=77)
        a = [ScenarioSampler(scenario).sample(k) for k in range(50)]
        b = [ScenarioSampler(scenario).sample(k) for k in range(50)]
        assert a == b

    def test_different_seeds_differ(self):
        a = ScenarioSampler(rest_scenario(seed=1)).sample(50)
        b = ScenarioSampler(rest_scenario(seed=2)).sample(50)
        assert (a.ax, a.ay, a.az) != (b.ax, b.ay, b.az)

    def test_noise_is_per_tick_reproducible(self):
        # random-access sampling must agree with sequential sampling
        scenario = rest_scenario(seed=123)
        sampler = ScenarioSampler(scenario, 100.0)
        sequential = [sampler.sample(k) for k in range(100)]
        shuffled = [sampler.sample(k) for k in reversed(range(100))]
        assert sequential == list(reversed(shuffled))



def noise_of(sampler, ks):
    """The noise rows of ticks ks on a Rest scenario: the samples minus gravity."""
    rows = [sampler.sample(k) for k in ks]
    return np.array([(r.ax, r.ay, r.az - 1.0) for r in rows])


class TestBlockNoise:
    def test_noise_oracle(self):
        sigma = 0.003
        scenario = rest_scenario(duration=10.0, seed=41, sigma=sigma)
        sampler = ScenarioSampler(scenario)
        for k in (0, 255, 256, 513, sampler.n_ticks - 1):
            block = np.random.default_rng((41, k // 256)).normal(0.0, sigma, (256, 3))
            nx, ny, nz = block[k % 256].tolist()
            sample = sampler.sample(k)
            assert (sample.ax, sample.ay, sample.az) == (nx, ny, nz + 1.0)

    def test_random_access_across_blocks(self):
        scenario = rest_scenario(duration=10.0, seed=42)
        ticks = range(ScenarioSampler(scenario).n_ticks)
        sequential = [ScenarioSampler(scenario).sample(k) for k in ticks]
        order = np.random.default_rng(0).permutation(len(ticks)).tolist()
        sampler = ScenarioSampler(scenario)
        shuffled = {k: sampler.sample(k) for k in order}
        assert len(ticks) > 3 * 256
        assert [shuffled[k] for k in ticks] == sequential

    def test_noise_does_not_depend_on_duration(self):
        short = ScenarioSampler(rest_scenario(duration=10.0, seed=43))
        long = ScenarioSampler(rest_scenario(duration=60.0, seed=43))
        shared = range(short.n_ticks)
        assert [short.sample(k) for k in shared] == [long.sample(k) for k in shared]

    def test_blocks_are_keyed_by_index(self):
        sampler = ScenarioSampler(rest_scenario(duration=60.0, seed=44))
        noise = noise_of(sampler, range(sampler.n_ticks))
        assert not np.any(noise[:-256] == noise[256:])

    def test_feedback_adds_exactly_the_tone(self):
        feedback = MotorFeedback(True, 0.5, 20.0)
        scenario = Scenario(
            20.0,
            seed=45,
            segments=(
                Rest(0.0, 5.0),
                BurstMovement(5.0, 8.0, 3.0, 1.0),
                SineMovement(8.0, 12.0, "y", 0.8, 2.0),
                AmbientVibration(12.0, 20.0, 0.05, 12.0),
            ),
            motor_feedback=feedback,
        )
        sampler = ScenarioSampler(scenario)
        for k in range(sampler.n_ticks):
            on, off = sampler.sample(k, True), sampler.sample(k, False)
            tone = feedback.amplitude_g * math.sin(2.0 * math.pi * feedback.frequency_hz * on.t)
            for a, b in ((on.ax, off.ax), (on.ay, off.ay), (on.az, off.az)):
                assert abs((a - b) - tone) <= 1e-12

class TestRun:
    def test_rerun_is_bit_identical(self):
        scenario = canonical_scenario()
        first = trace_text(run(scenario))
        second = trace_text(run(scenario))
        assert first == second

    def test_canonical_event_shape(self):
        trace = run(canonical_scenario())
        kinds = [e.kind for e in trace.events]
        assert kinds == [RESET, VIB_START, VIB_END, RESET]
        onset, start, end, final_reset = trace.events
        # detection fires inside the movement burst
        assert 5.0 <= onset.t <= 8.5
        assert trace.vm.max() > 125.0
        # vibration begins one inactivity period after the last movement tick
        last_above = trace.t[trace.vm > 125.0].max()
        assert start.t == pytest.approx(last_above + 10.0, abs=0.011)
        assert end.t == pytest.approx(start.t + 5.0, abs=0.011)
        assert final_reset.t == end.t

    def test_trace_motor_matches_events(self):
        trace = run(canonical_scenario(duration_seconds=60.0))
        motor_expected = np.zeros(len(trace), dtype=bool)
        starts = [e.t for e in trace.events if e.kind == VIB_START]
        ends = [e.t for e in trace.events if e.kind == VIB_END]
        for s, e in zip(starts, ends + [math.inf]):
            motor_expected[(trace.t >= s) & (trace.t < e)] = True
        assert np.array_equal(trace.motor, motor_expected)

    def test_button_presses_are_applied(self):
        scenario = dataclasses.replace(
            rest_scenario(duration=40.0),
            button_presses=(ButtonPress(2.0, "select"),),
        )
        trace = run(scenario)
        assert trace.option[0] == 0
        assert trace.option[250] == 1
        # option 1 waits 30 s from the press instead of 10 s
        starts = [e.t for e in trace.events if e.kind == VIB_START]
        assert starts == [pytest.approx(32.0)]

    def test_quiet_scenario_vibrates_on_schedule(self):
        trace = run(QUIET_MINUTE)
        starts = [round(e.t, 2) for e in trace.events if e.kind == VIB_START]
        assert starts == [10.0, 25.0, 40.0, 55.0]

    def test_sensor_noise_alone_never_detects(self):
        trace = run(rest_scenario(duration=60.0, sigma=0.003))
        assert trace.vm[1000:].max() < 1.0
        assert [e.kind for e in trace.events] == [VIB_START, VIB_END, RESET] * 3 + [VIB_START]


class TestMotorFeedbackRejection:
    @pytest.mark.parametrize(
        "amplitude,frequency",
        [(0.5, 20.0), (2.0, 10.0), (1.0, 15.0), (2.0, 49.0)],
    )
    def test_feedback_never_changes_the_event_trace(self, amplitude, frequency):
        base = rest_scenario(duration=40.0, seed=31)
        with_feedback = dataclasses.replace(
            base, motor_feedback=MotorFeedback(True, amplitude, frequency)
        )
        trace_off = run(base)
        trace_on = run(with_feedback)
        assert trace_on.events == trace_off.events
        assert np.array_equal(trace_on.motor, trace_off.motor)
        # feedback is present in the raw signal while the motor runs
        if amplitude > 0:
            vibrating = trace_on.motor.nonzero()[0]
            assert len(vibrating) > 0
            span = vibrating[(vibrating > vibrating[0] + 10)]
            assert np.abs(trace_on.ax[span] - trace_off.ax[span]).max() > 0.01

    def test_strong_inband_feedback_would_alter_counts(self):
        # sanity check of the test itself: low-frequency feedback is NOT
        # rejected, proving the equality above is the filter's doing
        base = rest_scenario(duration=40.0, seed=31)
        inband = dataclasses.replace(
            base, motor_feedback=MotorFeedback(True, 1.0, 1.0)
        )
        trace_on = run(inband)
        trace_off = run(base)
        vibrating = trace_off.motor
        assert trace_on.vm[vibrating].max() > 100.0 * trace_off.vm[vibrating].max()


class TestBlockSynthesis:
    # Segment boundaries on the noise seams (ticks 256 and 512) and off the grid;
    # 1,001 ticks, the last at t = 10.0.
    SCENARIO = Scenario(
        10.01,
        seed=46,
        segments=(
            Rest(0.0, 1.0),
            SineMovement(1.0, 2.56, "y", 0.8, 2.0),
            BurstMovement(2.56, 5.12, 3.0, 1.0),
            AmbientVibration(5.12, 7.005, 0.2, 12.0),
            SineMovement(7.005, 10.01, "z", 1.5, 0.7),
        ),
        motor_feedback=MotorFeedback(True, 0.5, 20.0),
    )

    @pytest.mark.parametrize("sigma", [0.0, 0.003])
    @pytest.mark.parametrize("motor_on", [False, True])
    @pytest.mark.parametrize("start,stop", [
        (0, 1), (0, 1001), (255, 257), (250, 520), (511, 513), (99, 101), (700, 702),
        (990, 1001),
    ])
    def test_rows_are_the_samples(self, start, stop, motor_on, sigma):
        scenario = dataclasses.replace(self.SCENARIO, noise_sigma_g=sigma)
        sampler = ScenarioSampler(scenario)
        want = np.array([reference_sample(scenario, sampler.sample_rate_hz, k, motor_on)
                         for k in range(start, stop)])
        samples = [sampler.sample(k, motor_on) for k in range(start, stop)]
        for got in (sampler._rows(start, stop, motor_on), np.array(samples)):
            assert got.tolist() == want.tolist()
            assert np.array_equal(np.signbit(got), np.signbit(want))


FS = 100.0
KINDS = ("rest", "sine", "burst", "ambient")


@st.composite
def segments_of(draw, kind, start, end):
    if kind == "rest":
        return Rest(start, end)
    amplitude = draw(st.floats(0.0, 40.0 if kind == "sine" else 5.0))
    frequency = draw(st.floats(0.1, 49.0))
    if kind == "sine":
        return SineMovement(start, end, draw(st.sampled_from("xyz")), amplitude, frequency)
    if kind == "burst":
        return BurstMovement(start, end, amplitude, frequency)
    return AmbientVibration(start, end, amplitude, frequency)


@st.composite
def scenarios(draw):
    """Any scenario of up to 20 s at 100 Hz: every segment kind, boundaries on
    and between ticks, noise or none, feedback on or off, and presses of any
    button at any tick, several at one tick included."""
    ticks = draw(st.integers(4, 2000))
    kinds = [*draw(st.permutations(KINDS)),
             *draw(st.lists(st.sampled_from(KINDS), max_size=3))]
    cuts = draw(st.lists(st.integers(1, 2 * ticks - 1), min_size=len(kinds) - 1,
                         max_size=len(kinds) - 1, unique=True))
    bounds = [0.0, *(c / (2 * FS) for c in sorted(cuts)), ticks / FS]
    segments = [draw(segments_of(kind, start, end))
                for kind, start, end in zip(kinds, bounds, bounds[1:])]
    presses = draw(st.lists(st.tuples(st.integers(0, ticks - 1),
                                      st.sampled_from(("select", "red", "power"))),
                            max_size=8))
    # Feedback in the pass band moves the watch: the motor ends its own vibration.
    feedback = MotorFeedback(draw(st.booleans()), draw(st.floats(0.0, 3.0)),
                             draw(st.one_of(st.floats(0.2, 2.0), st.floats(0.2, 49.0))))
    return Scenario(
        ticks / FS,
        seed=draw(st.integers(0, 2**64 - 1)),
        segments=tuple(segments),
        motor_feedback=feedback,
        button_presses=tuple(ButtonPress(k / FS, button) for k, button in presses),
        noise_sigma_g=draw(st.sampled_from((0.0, 0.003, 0.3))),
    )


@st.composite
def configs(draw):
    """Filter orders 2, 4 and 6, inactivity options up to 60 s, any vibration
    time and flash period on the tick or half-tick grid, and a threshold low
    enough for the scenarios' movement to cross it."""
    ticks = st.one_of(st.integers(1, 300), st.integers(1, 6000))
    options = tuple(draw(ticks) / FS for _ in range(3))
    device = DeviceConfig(options, draw(st.integers(1, 1000)) / FS, draw(st.booleans()),
                          draw(st.integers(4, 200)) / (2 * FS))
    return ConfigFile(filter_order=draw(st.sampled_from((2, 4, 6))),
                      count_threshold=draw(st.floats(5.0, 200.0)), device=device)


class TestChunkedLoop:
    @settings(max_examples=100, deadline=None)
    @given(scenarios(), configs(), st.integers(1, 1100))
    def test_equals_the_per_tick_loop(self, scenario, config, cap):
        want = reference_run(scenario, config)
        with mock.patch.object(sim, "_BLOCK_ROWS", cap):
            got = run(scenario, config)
        for name, dtype in TRACE_COLUMNS:
            column = getattr(got, name)
            assert column.dtype == dtype
            assert column.tobytes() == getattr(want, name).tobytes(), name
        assert got.events == want.events

    @settings(max_examples=40, deadline=None)
    @given(scenarios(), configs(), st.integers(1, 1100))
    def test_equals_the_per_tick_loop_on_the_row_by_row_path(self, scenario, config, cap):
        # At a 0.001 g dead-band a saturated sample is 2**64 quanta, so
        # `process_block` counts through `process_sample`, which writes the
        # rings in place: a chunk cut short by movement restores copies of them.
        config = dataclasses.replace(config, counts=CountsConfig(deadband_g=0.001))
        feedback = dataclasses.replace(scenario.motor_feedback, enabled=True)
        scenario = dataclasses.replace(scenario, motor_feedback=feedback)
        want = reference_run(scenario, config)
        with mock.patch.object(sim, "_BLOCK_ROWS", cap):
            got = run(scenario, config)
        for name, _ in TRACE_COLUMNS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.events == want.events

    @settings(max_examples=60, deadline=None)
    @given(scenarios(), configs(), st.integers(1, 1100))
    def test_blocks_are_the_trace_in_chunks(self, scenario, config, cap):
        want = reference_run(scenario, config)
        with mock.patch.object(sim, "_BLOCK_ROWS", cap):
            blocks = list(sim._run_blocks(scenario, config))
        assert all(1 <= len(block) <= cap for block in blocks)
        for name, dtype in TRACE_COLUMNS:
            columns = [getattr(block, name) for block in blocks]
            assert all(column.dtype == dtype for column in columns), name
            assert np.concatenate(columns).tobytes() == getattr(want, name).tobytes(), name
        assert tuple(e for block in blocks for e in block.events) == want.events

    def test_peak_memory_is_the_trace_arrays_and_one_chunk(self):
        # Measured: one chunk's work peaks 0.32 MB above the arrays at 30 s and
        # 0.35 MB at 300 s (the per-tick loop: 0.10 and 0.11 MB).
        per_tick = np.dtype(list(TRACE_COLUMNS)).itemsize

        def beyond_arrays_mb(seconds):
            scenario = canonical_scenario(seconds, motor_feedback=MotorFeedback(True))
            gc.collect()
            tracemalloc.start()
            try:
                trace = run(scenario)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return (peak - per_tick * len(trace)) / 2**20

        beyond_arrays_mb(30.0)  # first-use caches are not the run's
        short, long = beyond_arrays_mb(30.0), beyond_arrays_mb(300.0)
        assert long <= short + 0.1, (short, long)
