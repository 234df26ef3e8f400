import gc
import math
import re
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from stillwatch import (
    AxisWindow,
    Biquad,
    CountsConfig,
    CountsPipeline,
    DetectorConfig,
    DeviceConfig,
    FilterSpec,
    RawSample,
    VmCount,
    contribution,
    rectify_threshold,
    vm,
)
from stillwatch.counts import _quanta

from conftest import make_samples, run_pipeline
from _oracles import fsum_window_sums, offline_counts

# Saturated contribution per sample and the resulting VM ceiling, both fixed
# by the default constants: 2.13 / 0.01664 / 100 and sqrt(3) * 2.13 / 0.01664.
SATURATED_CONTRIBUTION = 1.280048076923077
VM_CEILING = 221.71083053616036
# The largest input magnitude the stock band-pass filters without overflow.
INPUT_LIMIT = CountsPipeline.from_spec()._input_limit


class TestRectifyThreshold:
    def test_below_deadband_is_zero(self, counts_cfg):
        assert rectify_threshold(0.05, counts_cfg) == 0.0
        assert rectify_threshold(-0.05, counts_cfg) == 0.0

    def test_above_saturation_clips(self, counts_cfg):
        assert rectify_threshold(-3.0, counts_cfg) == 2.13
        assert rectify_threshold(3.0, counts_cfg) == 2.13

    def test_boundaries_pass_through(self, counts_cfg):
        # dead-band uses strict <, saturation strict >
        assert rectify_threshold(0.068, counts_cfg) == 0.068
        assert rectify_threshold(-0.068, counts_cfg) == 0.068
        assert rectify_threshold(2.13, counts_cfg) == 2.13

    def test_passband_is_absolute_value(self, counts_cfg):
        assert rectify_threshold(-0.5, counts_cfg) == 0.5
        assert rectify_threshold(1.0, counts_cfg) == 1.0

    def test_nonfinite_rejected(self, counts_cfg):
        for bad in (float("nan"), 10**400, 10**5000):
            with pytest.raises(ValueError, match="^filtered value must be finite, got "):
                rectify_threshold(bad, counts_cfg)


class TestContribution:
    def test_zero(self, counts_cfg):
        assert contribution(0.0, counts_cfg) == 0.0

    def test_one_count_per_second_at_scale(self, counts_cfg):
        # Sustained 0.01664 g accumulates one count per second: 0.01 per sample.
        assert contribution(0.01664, counts_cfg) == 0.01

    def test_saturated_value(self, counts_cfg):
        assert contribution(2.13, counts_cfg) == SATURATED_CONTRIBUTION

    @pytest.mark.parametrize("bad", [-0.1, 2.14, 10.0, pytest.param(10**400, id="10**400"),
                                     pytest.param(10**5000, id="10**5000")])
    def test_out_of_range_rejected(self, bad, counts_cfg):
        with pytest.raises(ValueError, match="^thresholded value must lie in "):
            contribution(bad, counts_cfg)


class TestVm:
    def test_zero(self):
        assert vm(0.0, 0.0, 0.0) == 0.0

    def test_pythagorean_triple(self):
        assert vm(3.0, 4.0, 0.0) == 5.0

    def test_equal_components(self):
        rng = np.random.default_rng(21)
        for s in rng.uniform(0.001, 128.0, 50):
            expected = s * math.sqrt(3.0)
            assert abs(vm(s, s, s) - expected) <= 1e-12 * expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vm(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("sums", [(math.nan, 0.0, 0.0), (math.inf, 1.0, 0.0),
                                      (0.0, 0.0, -math.inf), (10**400, 0.0, 0.0),
                                      (0.0, 10**5000, 0.0)])
    def test_nonfinite_rejected(self, sums):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            vm(*sums)


QUANTA_CONFIGS = [CountsConfig(), CountsConfig(deadband_g=0.05, sample_rate_hz=50.0)]


class TestQuantaKernel:
    """`_quanta`, the streaming path's fused rectify-and-contribution step, is
    the public chain scaled to quanta, bit for bit."""

    @staticmethod
    def assert_same_bits(y: float, cfg: CountsConfig):
        up = AxisWindow(cfg)._up
        got = _quanta(y, cfg.deadband_g, cfg.saturation_g, cfg.scale_g_per_sec_per_count,
                      cfg.sample_rate_hz, up)
        want = contribution(rectify_threshold(y, cfg), cfg) * up
        assert got.hex() == want.hex(), y

    @pytest.mark.parametrize("cfg", QUANTA_CONFIGS)
    def test_edges(self, cfg):
        for edge in (cfg.deadband_g, cfg.saturation_g):
            for y in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                self.assert_same_bits(y, cfg)
                self.assert_same_bits(-y, cfg)
        self.assert_same_bits(0.0, cfg)
        self.assert_same_bits(-0.0, cfg)

    @settings(max_examples=300, deadline=None)
    @given(cfg=st.sampled_from(QUANTA_CONFIGS),
           y=st.floats(-INPUT_LIMIT, INPUT_LIMIT, allow_nan=False, allow_infinity=False))
    def test_any_filtered_value(self, cfg, y):
        self.assert_same_bits(y, cfg)

    def test_each_zero_is_a_fresh_float(self, counts_cfg):
        # A ring slot must hold a float of its own (see AxisWindow).
        args = (counts_cfg.deadband_g, counts_cfg.saturation_g,
                counts_cfg.scale_g_per_sec_per_count, counts_cfg.sample_rate_hz, 1.0)
        a, b = _quanta(0.01, *args), _quanta(-0.02, *args)
        assert a == b == 0.0 and a is not b


def thresholded(ys, cfg: CountsConfig) -> list[float]:
    """The contributions the pipeline would push for filtered values ys."""
    return [contribution(rectify_threshold(float(y), cfg), cfg) for y in ys]


def pipeline_state(pipeline: CountsPipeline):
    """Every filter register, window slot and the last accepted time."""
    registers = [b.state for chain in pipeline._filters for b in chain]
    windows = [(list(w._buf), w._idx, w._sum) for w in pipeline._windows]
    return registers, windows, pipeline._last_t, pipeline.epoch_sums


class TestAxisWindow:
    def test_constant_fill(self, counts_cfg):
        window = AxisWindow(counts_cfg)
        (c,) = thresholded([0.1664], counts_cfg)
        assert c == 0.1
        for _ in range(100):
            result = window.push(c)
        # adding 0.1 a hundred times in floats gives 9.99999999999998
        assert result == 10.0

    def test_drains_to_exact_zero(self, counts_cfg):
        rng = np.random.default_rng(22)
        window = AxisWindow(counts_cfg)
        for c in thresholded(rng.uniform(-3.0, 3.0, 137), counts_cfg):
            window.push(c)
        for _ in range(100):
            result = window.push(0.0)
        assert result == 0.0

    def test_matches_brute_force_resummation(self, counts_cfg):
        rng = np.random.default_rng(23)
        ys = rng.uniform(-3.0, 3.0, 2500)
        ys[rng.uniform(size=2500) < 0.3] = 0.0
        contributions = thresholded(ys, counts_cfg)
        window = AxisWindow(counts_cfg)
        streamed = np.array([window.push(c) for c in contributions])
        assert np.array_equal(streamed, fsum_window_sums(contributions, 100))

    def test_a_new_window_holds_its_memory_from_the_first_epoch(self, counts_cfg):
        # Every slot starts as its own float zero, so a push frees the float it
        # replaces; a shared int 0 grew the window by a float per slot (2.5 KB).
        window = AxisWindow(counts_cfg)
        assert all(type(slot) is float for slot in window._buf)
        contributions = [(k % 7 + 1) * window._down for k in range(len(window._buf))]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for c in contributions:
                window.push(c)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 6 * len(window._buf), growth  # measured: 184 B

    def test_rejects_negative_and_nonfinite(self, counts_cfg):
        window = AxisWindow(counts_cfg)
        window.push(0.5)
        for bad in (-0.1, float("inf"), float("nan"), 2.0**-60, SATURATED_CONTRIBUTION * 2,
                    10**400, 10**5000):
            with pytest.raises(ValueError, match="multiple of"):
                window.push(bad)
        assert window.value == 0.5

    def test_rejects_bad_capacity(self):
        # A window holds one epoch of samples, which the config keeps positive.
        with pytest.raises(ValueError, match="positive finite"):
            CountsConfig(epoch_seconds=0.0)
        with pytest.raises(ValueError, match="positive integer"):
            CountsConfig(epoch_seconds=0.004)


@st.composite
def window_cases(draw):
    """A random valid config and a filtered stream for one axis: values at the
    dead-band and saturation edges, anywhere in between or beyond, repeats,
    and runs of zeros longer than the epoch."""
    fs = draw(st.sampled_from([25.0, 50.0, 100.0, 200.0]))
    n = draw(st.integers(1, 120))
    deadband = draw(st.floats(1e-200, 1e3))
    saturation = draw(st.floats(deadband, deadband * 1e6, exclude_min=True))
    cfg = CountsConfig(deadband, saturation, draw(st.floats(1e-4, 1e2)), n / fs, fs)
    edges = [deadband, -deadband, math.nextafter(deadband, 0.0), saturation, -saturation]
    level = st.one_of(st.sampled_from(edges), st.floats(-2 * saturation, 2 * saturation))
    segment = st.one_of(
        st.tuples(level, st.just(1)),
        st.tuples(level, st.integers(1, 2 * n)),
        st.tuples(st.just(0.0), st.integers(n, 3 * n)),
    )
    ys = [y for y, k in draw(st.lists(segment, max_size=12)) for _ in range(k)]
    return cfg, ys


class TestAxisWindowExact:
    @settings(max_examples=150, deadline=None)
    @given(window_cases())
    def test_every_sum_is_fsum_of_the_window(self, case):
        cfg, ys = case
        n = cfg.window_samples
        window = AxisWindow(cfg)
        recent = deque([0.0] * n, maxlen=n)
        for c in thresholded(ys, cfg):
            recent.append(c)
            assert window.push(c) == math.fsum(recent) == window.value
        for _ in range(n):
            result = window.push(0.0)
        assert result == 0.0 and math.copysign(1.0, result) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(window_cases(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_invalid_push_changes_nothing(self, case, fraction):
        cfg, ys = case
        c_min, c_sat = thresholded([cfg.deadband_g, cfg.saturation_g], cfg)
        # every nonzero contribution is a multiple of c_min's lowest mantissa bit
        quantum = math.ldexp(1.0, math.frexp(c_min)[1] - 53)
        below = c_min * fraction
        bad = [-c_min, -quantum, math.nan, math.inf, -math.inf, quantum / 2]
        bad += [math.nextafter(c_sat, math.inf), 2 * c_sat]
        if below / quantum != int(below / quantum):
            bad.append(below)
        window = AxisWindow(cfg)
        twin = AxisWindow(cfg)
        contributions = thresholded(ys, cfg)
        for c in contributions:
            window.push(c)
            twin.push(c)
        before = window.value
        for c in bad:
            with pytest.raises(ValueError):
                window.push(c)
            assert window.value == before
        for c in contributions[: 2 * cfg.window_samples]:
            assert window.push(c) == twin.push(c)


class TestConfig:
    def test_deadband_must_be_below_saturation(self):
        with pytest.raises(ValueError, match="deadband_g"):
            CountsConfig(deadband_g=2.2, saturation_g=2.13)

    def test_epoch_must_be_integer_samples(self):
        with pytest.raises(ValueError, match="positive integer"):
            CountsConfig(epoch_seconds=0.505, sample_rate_hz=100.0)
        # Each is finite, but their product is an int past the floats.
        with pytest.raises(ValueError, match="positive integer"):
            CountsConfig(epoch_seconds=10**300, sample_rate_hz=10**10)

    @pytest.mark.parametrize(
        "deadband,saturation,scale",
        [
            (1e-300, 2e-300, 1e300),  # the dead-band's contribution underflows to 0
            (1e-10, 2e-10, 1e300),  # ... or is subnormal
            (1e-295, 2e-295, 0.01664),  # 2**S, its quanta per unit, overflows a double
            (1e-291, 2.13, 0.01664),  # a saturated epoch reaches 2**1023 quanta
        ],
    )
    def test_contributions_must_sum_exactly_in_doubles(self, deadband, saturation, scale):
        with pytest.raises(ValueError, match="sum exactly"):
            CountsConfig(deadband, saturation, scale)

    def test_tiny_deadband_accepted_while_exact(self):
        assert AxisWindow(CountsConfig(deadband_g=1e-289)).push(0.0) == 0.0

    def test_window_samples(self):
        assert CountsConfig().window_samples == 100
        assert CountsConfig(epoch_seconds=2.0).window_samples == 200


class TestPipeline:
    def test_rest_produces_no_counts_after_settling(self):
        # Constant gravity: the ramp-on transient fades and the dead-band
        # zeroes everything, so VM collapses to exact zero well before 10 s.
        n = 6000
        xyz = np.zeros((n, 3))
        xyz[:, 2] = 1.0
        vms, _ = run_pipeline(xyz)
        assert np.all(vms[1000:] < 1.0)
        assert np.all(vms[300:] == 0.0)
        assert np.all(vms < 125.0)  # never a movement detection

    def test_inband_sine_oracle_value(self):
        # 1 Hz is inside the pass band; the steady-state level must agree
        # with the offline reference chain.
        n = 1000
        t = np.arange(n) / 100.0
        xyz = np.zeros((n, 3))
        xyz[:, 0] = 0.5 * np.sin(2 * np.pi * 1.0 * t)
        xyz[:, 2] = 1.0
        vms, sums = run_pipeline(xyz)
        pipeline = CountsPipeline.from_spec()
        ref_vm, ref_sums = offline_counts(xyz, pipeline.sections, pipeline.config)
        scale = np.maximum(ref_vm, 1.0)
        assert np.max(np.abs(vms - ref_vm) / scale) < 1e-9
        steady = vms[700:]
        assert 17.5 < steady.min() and steady.max() < 17.8
        assert np.all(steady < 125.0)

    def test_high_frequency_vibration_yields_zero_counts(self):
        # 20 Hz at 0.5 g attenuates below the dead-band, so once the gravity
        # step transient has settled the counts are exactly zero.
        n = 3000
        t = np.arange(n) / 100.0
        xyz = np.zeros((n, 3))
        xyz[:, 0] = 0.5 * np.sin(2 * np.pi * 20.0 * t)
        xyz[:, 2] = 1.0
        vms, _ = run_pipeline(xyz)
        assert np.all(vms[300:] == 0.0)

    def test_per_axis_independence(self):
        rng = np.random.default_rng(24)
        xyz = rng.normal(0.0, 0.4, (600, 3))
        _, sums_full = run_pipeline(xyz)
        zeroed = xyz.copy()
        zeroed[:, 1] = 0.0
        _, sums_zeroed = run_pipeline(zeroed)
        assert np.array_equal(sums_full[:, 0], sums_zeroed[:, 0])
        assert np.array_equal(sums_full[:, 2], sums_zeroed[:, 2])
        assert np.all(sums_zeroed[:, 1] == 0.0)

    def test_vm_monotone_in_each_axis(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            sx, sy, sz = rng.uniform(0.0, 128.0, 3)
            bump = rng.uniform(1e-6, 5.0)
            assert vm(sx + bump, sy, sz) > vm(sx, sy, sz)
            assert vm(sx, sy + bump, sz) > vm(sx, sy, sz)
            assert vm(sx, sy, sz + bump) > vm(sx, sy, sz)

    def test_counts_are_nonnegative_and_bounded(self):
        # Drive every axis into saturation; VM may approach but never exceed
        # the ceiling set by the saturation threshold.
        n = 1500
        t = np.arange(n) / 100.0
        xyz = 10.0 * np.sin(2 * np.pi * 1.0 * t)[:, None] * np.ones((1, 3))
        vms, sums = run_pipeline(xyz)
        assert np.all(sums >= 0.0)
        assert np.all(vms >= 0.0)
        assert np.all(vms <= VM_CEILING + 1e-9)
        assert vms.max() > 0.9 * VM_CEILING

    def test_out_of_order_sample_rejected_and_state_kept(self, counts_cfg):
        pipeline = CountsPipeline.from_spec(config=counts_cfg)
        twin = CountsPipeline.from_spec(config=counts_cfg)
        xyz = np.tile([0.2, -0.1, 1.0], (10, 1))
        samples = make_samples(xyz)
        for s in samples[:5]:
            pipeline.process_sample(s)
            twin.process_sample(s)
        with pytest.raises(ValueError, match="not one 100.0 Hz step after"):
            pipeline.process_sample(RawSample(0.01, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="not one 100.0 Hz step after"):
            pipeline.process_sample(RawSample(0.06, 0.0, 0.0, 1.0))
        # the rejected calls must not have advanced anything
        for s in samples[5:]:
            assert pipeline.process_sample(s) == twin.process_sample(s)

    @pytest.mark.parametrize("axis", [0, 2])
    def test_overflowing_sample_rejected_and_state_kept(self, axis):
        # A finite 1.7e308 g sine overflows the filter unless it is turned
        # away before any axis is stepped; movement rides on the other axes.
        pipeline = CountsPipeline.from_spec()
        twin = CountsPipeline.from_spec()
        rejected = 0
        for k in range(100):
            t = k / 100.0
            xyz = [0.4 * math.sin(2.0 * math.pi * t), 0.3, 1.0]
            xyz[axis] = 1.7e308 * math.sin(2.0 * math.pi * 0.7 * t)
            before = pipeline_state(pipeline)
            try:
                count = pipeline.process_sample(RawSample(t, *xyz))
            except ValueError as exc:
                rejected += 1
                assert pipeline_state(pipeline) == before
                assert f"t={t}" in str(exc)
                with pytest.raises(ValueError):
                    pipeline.process_sample(RawSample(t, *xyz))
                assert pipeline_state(pipeline) == before
                xyz[axis] = 0.0
                count = pipeline.process_sample(RawSample(t, *xyz))
            assert count == twin.process_sample(RawSample(t, *xyz))
            assert pipeline_state(pipeline) == pipeline_state(twin)
        assert rejected > 0

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_inputs_up_to_the_limit_never_overflow(self, order):
        # The worst case for a linear filter: full-scale input whose signs
        # follow the time-reversed impulse response of the whole cascade.
        pipeline = CountsPipeline.from_spec(order=order)
        limit = pipeline._input_limit
        chain = [Biquad(c) for c in pipeline.sections]
        impulse = [1.0] + [0.0] * 1999
        for biquad in chain:
            impulse = biquad._process(impulse)
        signs = np.sign(impulse[::-1])
        for k, s in enumerate(signs):
            v = float(s) * limit
            pipeline.process_sample(RawSample(k / 100.0, v, -v, v))
        registers = [b.state for axis in pipeline._filters for b in axis]
        assert np.all(np.isfinite(registers))
        assert 1e20 < limit < sys.float_info.max
        beyond = math.nextafter(limit, math.inf)
        with pytest.raises(ValueError, match="exceeds"):
            pipeline.process_sample(RawSample(2000 / 100.0, 0.0, beyond, 1.0))

    def test_nonfinite_sample_impossible(self):
        with pytest.raises(ValueError):
            RawSample(0.0, float("nan"), 0.0, 1.0)

    @pytest.mark.parametrize("sections", [[], [1.0], ("a",)], ids=["empty", "float", "str"])
    def test_sections_that_are_not_biquads_rejected(self, sections):
        with pytest.raises(ValueError, match="non-empty sequence"):
            CountsPipeline(sections)

    def test_mismatched_rates_rejected(self, counts_cfg):
        from stillwatch import FilterSpec

        with pytest.raises(ValueError, match="does not match"):
            CountsPipeline.from_spec(FilterSpec(50.0, 0.305, 1.615), counts_cfg)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(26)
        xyz = rng.normal(0.0, 0.5, (500, 3))
        vms_a, sums_a = run_pipeline(xyz)
        vms_b, sums_b = run_pipeline(xyz)
        assert np.array_equal(vms_a, vms_b)
        assert np.array_equal(sums_a, sums_b)

    def test_epoch_sums_match_brute_force_on_random_streams(self):
        rng = np.random.default_rng(27)
        pipeline = CountsPipeline.from_spec()
        cfg = pipeline.config
        xyz = rng.normal(0.0, 0.6, (3000, 3))
        xyz[:, 2] += 1.0
        _, sums = run_pipeline(xyz)
        # reference contributions from the same designed filter, then
        # exactly re-summed trailing windows
        for axis in range(3):
            chain = [Biquad(c) for c in pipeline.sections]
            ys = xyz[:, axis].tolist()
            for biquad in chain:
                ys = biquad._process(ys)
            expected = fsum_window_sums(thresholded(ys, cfg), cfg.window_samples)
            assert np.array_equal(sums[:, axis], expected)


@st.composite
def hot_path_cases(draw):
    """A filter order, a config and a 3-axis stream of square waves whose
    amplitudes lie below the dead-band, between it and saturation, or above
    saturation, so filtered values land in all three regions."""
    order = draw(st.sampled_from([2, 4, 6]))
    cfg = draw(st.sampled_from([CountsConfig(), CountsConfig(0.01, 0.5, 0.02, 2.0, 50.0)]))
    bands = [
        st.floats(0.0, 0.5 * cfg.deadband_g),
        st.floats(1.5 * cfg.deadband_g, 0.6 * cfg.saturation_g),
        st.floats(1.5 * cfg.saturation_g, 50.0 * cfg.saturation_g),
    ]
    n = draw(st.integers(1, 400))
    axes = []
    for _ in range(3):
        values: list[float] = []
        while len(values) < n:
            amplitude = draw(st.one_of(bands))
            half_period = draw(st.integers(1, int(cfg.sample_rate_hz)))
            length = draw(st.integers(1, 150))
            values += [amplitude * (-1) ** (k // half_period) for k in range(length)]
        axes.append(values[:n])
    return order, cfg, list(zip(*axes))


def reference_chain(sections, cfg: CountsConfig):
    """The counting chain built from the public, checked stage functions:
    Biquad.step -> rectify_threshold -> contribution -> AxisWindow.push -> vm.
    Returns a function from one (ax, ay, az) to (vm, epoch sums)."""
    chains = [[Biquad(c) for c in sections] for _ in range(3)]
    windows = [AxisWindow(cfg) for _ in range(3)]

    def advance(xyz):
        sums = []
        for y, chain, window in zip(xyz, chains, windows):
            for biquad in chain:
                y = biquad.step(y)
            thresholded = rectify_threshold(y, cfg)
            event(
                "below dead-band" if thresholded == 0.0
                else "saturated" if thresholded == cfg.saturation_g
                else "in between"
            )
            sums.append(window.push(contribution(thresholded, cfg)))
        return vm(*sums), tuple(sums)

    return advance


class TestHotPathDifferential:
    @settings(max_examples=120, deadline=None)
    @given(hot_path_cases())
    @example((2, CountsConfig(), [(0.03, 0.5, 10.0)] * 100 + [(-0.03, -0.5, -10.0)] * 100))
    def test_process_sample_matches_the_public_stages_bit_for_bit(self, case):
        order, cfg, stream = case
        pipeline = CountsPipeline.from_spec(config=cfg, order=order)
        reference = reference_chain(pipeline.sections, cfg)
        for k, xyz in enumerate(stream):
            t = k / cfg.sample_rate_hz
            count = pipeline.process_sample(RawSample(t, *xyz))
            ref_vm, ref_sums = reference(xyz)
            assert count.t == t
            assert count.value.hex() == ref_vm.hex()
            assert [s.hex() for s in pipeline.epoch_sums] == [s.hex() for s in ref_sums]


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def stream_block(pipeline: CountsPipeline, block: np.ndarray):
    """`process_sample` over the rows of a block: (vm, epoch sums) arrays."""
    vms, sums = [], []
    for row in block.tolist():
        vms.append(pipeline.process_sample(RawSample(*row)).value)
        sums.append(pipeline.epoch_sums)
    return np.array(vms), np.array(sums).reshape(-1, 3)


# Stock; a 2 s epoch (a window of 200); and a dead-band of 0.001 g, whose
# saturated sample is 2**64 quanta, past the two int64 limbs' range.
BLOCK_CONFIGS = [CountsConfig(), CountsConfig(epoch_seconds=2.0), CountsConfig(deadband_g=0.001)]


@st.composite
def block_cases(draw):
    """A filter order, a config, a noisy 3-axis block, and split points each
    followed by the method that counts the rows up to the next one."""
    order = draw(st.sampled_from([2, 4, 6]))
    cfg = draw(st.sampled_from(BLOCK_CONFIGS))
    sigma = draw(st.sampled_from([0.03, 0.3, 3.0]))  # 3 g noise often saturates
    n = draw(st.integers(1, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = rng.normal(0.0, sigma, (n, 3)) + [0.0, 0.0, 1.0]
    block = np.column_stack([np.arange(n) / cfg.sample_rate_hz, xyz])
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    methods = draw(st.lists(st.booleans(), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return order, cfg, block, cuts, methods


class TestBlockDifferential:
    @settings(max_examples=150, deadline=None)
    @given(block_cases())
    def test_process_block_matches_process_sample_bit_for_bit(self, case):
        order, cfg, block, cuts, methods = case
        reference = CountsPipeline.from_spec(config=cfg, order=order)
        want_vm, want_sums = stream_block(reference, block)
        pipeline = CountsPipeline.from_spec(config=cfg, order=order)
        got_vm, got_sums = [], []
        for start, stop, as_block in zip([0] + cuts, cuts + [len(block)], methods):
            event("block" if as_block else "sample")
            count = pipeline.process_block if as_block else lambda b: stream_block(pipeline, b)
            vms, sums = count(block[start:stop])
            assert vms.shape == (stop - start,) and sums.shape == (stop - start, 3)
            if stop > start:
                assert pipeline.epoch_sums == tuple(sums[-1])
            got_vm.append(vms)
            got_sums.append(sums)
        assert bits(np.concatenate(got_vm)) == bits(want_vm)
        assert bits(np.concatenate(got_sums)) == bits(want_sums)
        assert pipeline.epoch_sums == reference.epoch_sums
        for window, ref in zip(pipeline._windows, reference._windows):
            assert window._sum == ref._sum

    def test_empty_block_changes_nothing(self):
        pipeline = CountsPipeline.from_spec()
        pipeline.process_block(np.array([[0.0, 0.5, 0.5, 1.0]]))
        vms, sums = pipeline.process_block(np.empty((0, 4)))
        assert vms.shape == (0,) and sums.shape == (0, 3)
        assert pipeline.process_block([[0.01, 0.5, 0.5, 1.0]])[0].shape == (1,)

    @pytest.mark.parametrize("shape", [(5, 3), (5, 5), (8,)])
    def test_block_of_the_wrong_shape_is_refused(self, shape):
        with pytest.raises(ValueError):
            CountsPipeline.from_spec().process_block(np.zeros(shape))


class TestBlockRefusal:
    """A refused block raises process_sample's error for its first bad row and
    leaves the pipeline as an untouched twin."""

    @staticmethod
    def primed(config=None):
        pipeline = CountsPipeline.from_spec(None, config)
        rng = np.random.default_rng(3)
        pipeline.process_block(np.column_stack([np.arange(150) / 100.0,
                                                rng.normal(0.0, 1.0, (150, 3))]))
        return pipeline

    @pytest.mark.parametrize("row", [0, 40, 79])
    @pytest.mark.parametrize("bad", ["nan", "inf t", "off grid", "over limit"])
    def test_bad_row_is_refused_without_a_state_change(self, bad, row):
        rng = np.random.default_rng(4)
        block = np.column_stack([(150 + np.arange(80)) / 100.0, rng.normal(0.0, 1.0, (80, 3))])
        if bad == "nan":
            block[row, 2] = float("nan")
        elif bad == "inf t":
            block[row, 0] = float("inf")
        elif bad == "off grid":
            block[row:, 0] += 0.0005
        else:
            block[row, 3] = -1e306
        pipeline, twin, streamed = self.primed(), self.primed(), self.primed()
        with pytest.raises(ValueError) as refused:
            pipeline.process_block(block)
        with pytest.raises(ValueError) as streaming:
            stream_block(streamed, block)
        assert str(refused.value) == str(streaming.value)
        assert refused.value.row == row
        self.assert_same_next_output(pipeline, twin)

    # A 0.001 g dead-band runs every block row by row, so its bad row is met
    # after rows that changed the state; the stock config refuses a bad seam
    # row from the array check.
    @pytest.mark.parametrize("config,row", [(CountsConfig(deadband_g=0.001), 40),
                                            (CountsConfig(), 0)])
    @pytest.mark.parametrize("bad", ["off grid", "over limit"])
    def test_refusal_is_process_samples_and_restores_the_state(self, bad, config, row):
        rng = np.random.default_rng(5)
        block = np.column_stack([(150 + np.arange(80)) / 100.0, rng.normal(0.0, 1.0, (80, 3))])
        if bad == "off grid":
            block[row:, 0] += 0.0005
        else:
            block[row, 1] = 1e306
        pipeline, twin, streamed = self.primed(config), self.primed(config), self.primed(config)
        saved = pipeline._save()
        with pytest.raises(ValueError) as refused:
            pipeline.process_block(block)
        with pytest.raises(ValueError) as streaming:
            stream_block(streamed, block)
        assert str(refused.value) == str(streaming.value)
        assert f"sample at t={float(block[row, 0])!r} " in str(refused.value)
        assert refused.value.row == row
        assert pipeline._save() == saved
        self.assert_same_next_output(pipeline, twin)

    def test_off_grid_seam_is_refused_without_a_state_change(self):
        block = np.column_stack([1.505 + np.arange(10) / 100.0, np.zeros((10, 3))])
        pipeline, twin = self.primed(), self.primed()
        with pytest.raises(ValueError, match="^sample at t=1.505 is not one 100.0 Hz step "
                                             "after t=1.49$"):
            pipeline.process_block(block)
        self.assert_same_next_output(pipeline, twin)

    @staticmethod
    def assert_same_next_output(pipeline, twin):
        block = np.column_stack([(150 + np.arange(120)) / 100.0, np.full((120, 3), 0.9)])
        got, want = pipeline.process_block(block), twin.process_block(block)
        assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])
        assert pipeline.epoch_sums == twin.epoch_sums


class TestVmCountRecord:
    def test_fields_are_read_only(self):
        count = VmCount(0.5, 12.0)
        for name in ("t", "value"):
            with pytest.raises(AttributeError):
                setattr(count, name, 1.0)

    def test_equal_fields_compare_equal(self):
        assert VmCount(0.5, 12.0) == VmCount(t=0.5, value=12.0)
        assert VmCount(0.5, 12.0) != VmCount(0.5, 12.5)


class TestRawSampleRecord:
    def test_fields_are_read_only(self):
        sample = RawSample(0.01, 0.0, 0.0, 1.0)
        for name in ("t", "ax", "ay", "az"):
            with pytest.raises(AttributeError):
                setattr(sample, name, 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "a"])
    @pytest.mark.parametrize("field", range(4))
    def test_nonfinite_value_fails_naming_its_field(self, bad, field):
        values = [0.01, 0.0, 0.0, 1.0]
        values[field] = bad
        name = ("t", "ax", "ay", "az")[field]
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {bad!r}$"):
            RawSample(*values)
        # The namedtuple constructors that bypass `__new__` check too.
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            RawSample._make(values)
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            RawSample(0.01, 0.0, 0.0, 1.0)._replace(**{name: bad})

    def test_ints_and_float_subclasses_are_accepted_as_given(self):
        sample = RawSample(0, 1, np.float64(0.5), True)
        assert sample == (0, 1, 0.5, True)
        assert type(sample.t) is int and type(sample.ay) is np.float64

    def test_keyword_construction(self):
        assert RawSample(t=0.01, ax=0.1, ay=0.2, az=1.0) == RawSample(0.01, 0.1, 0.2, 1.0)

    def test_equal_fields_compare_equal(self):
        assert RawSample(0.01, 0.1, 0.2, 1.0) == RawSample(0.01, 0.1, 0.2, 1.0)
        assert RawSample(0.01, 0.1, 0.2, 1.0) != RawSample(0.01, 0.1, 0.2, 1.5)
        assert hash(RawSample(0.01, 0.1, 0.2, 1.0)) == hash(RawSample(0.01, 0.1, 0.2, 1.0))


@pytest.mark.parametrize(
    "value",
    # Ints past the floats; the last is also past the 4,300 digits Python prints.
    [pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
     pytest.param(10**5000, id="10**5000")],
)
@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(lambda v: CountsConfig(deadband_g=v),
                     "deadband_g must be a positive finite number, got ", id="CountsConfig"),
        pytest.param(lambda v: DetectorConfig(count_threshold=v),
                     "count_threshold must be a positive finite number, got ",
                     id="DetectorConfig"),
        pytest.param(lambda v: FilterSpec(sample_rate_hz=v),
                     "sample_rate_hz must be a finite number, got ", id="FilterSpec"),
        pytest.param(lambda v: DeviceConfig(vibration_seconds=v),
                     "vibration_seconds must be a positive finite number, got ",
                     id="DeviceConfig-vibration"),
        pytest.param(lambda v: DeviceConfig(inactivity_options=(v, 1, 2)),
                     "inactivity options must be positive finite numbers, got ",
                     id="DeviceConfig-options"),
        pytest.param(lambda v: RawSample(v, 0.0, 0.0, 1.0),
                     "t must be a finite number, got ", id="RawSample"),
    ],
)
def test_an_int_past_the_floats_gets_the_fields_refusal(build, message, value):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}") as refused:
        build(value)
    if value == 10**5000:
        assert str(refused.value).endswith("got a number of over 4300 digits")
