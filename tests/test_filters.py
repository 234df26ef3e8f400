import math

import numpy as np
import pytest

from stillwatch import (
    Biquad,
    BiquadCoefficients,
    FilterSpec,
    design_bandpass_cascade,
    frequency_response,
)

from _oracles import df1_filter, scipy_bandpass_sos, scipy_filter, scipy_sos_gain

FS = 100.0
LOW = 0.305
HIGH = 1.615


@pytest.fixture(scope="module")
def coeffs():
    (section,) = design_bandpass_cascade(FilterSpec(FS, LOW, HIGH))
    return section


def polyval_response(sections, f, fs):
    """Independent gain evaluation via numpy polynomials on the unit circle."""
    if isinstance(sections, BiquadCoefficients):
        sections = (sections,)
    z = np.exp(1j * 2 * np.pi * f / fs)
    h = 1.0 + 0j
    for c in sections:
        h *= np.polyval([c.b0, c.b1, c.b2], 1 / z) / np.polyval([1.0, c.a1, c.a2], 1 / z)
    return abs(h)


class TestDesign:
    def test_cutoff_gains_are_minus_3db(self, coeffs):
        for f in (LOW, HIGH):
            mag = abs(frequency_response(coeffs, f, FS))
            assert 0.700 <= mag <= 0.714

    def test_zero_at_dc_and_nyquist(self, coeffs):
        assert abs(frequency_response(coeffs, 0.0, FS)) < 1e-12
        assert abs(frequency_response(coeffs, FS / 2, FS)) < 1e-12

    def test_unit_gain_at_geometric_center(self, coeffs):
        f_center = math.sqrt(LOW * HIGH)
        assert 0.999 <= polyval_response(coeffs, f_center, FS) <= 1.001

    def test_poles_inside_unit_circle(self, coeffs):
        radii = np.abs(np.roots([1.0, coeffs.a1, coeffs.a2]))
        assert np.all(radii < 1.0)

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize(
        "fs,low,high",
        [(100.0, 0.305, 1.615), (100.0, 0.5, 5.0), (50.0, 1.0, 10.0), (200.0, 0.305, 1.615)],
    )
    def test_matches_reference_design(self, fs, low, high, order):
        sections = design_bandpass_cascade(FilterSpec(fs, low, high), order)
        assert len(sections) == order // 2
        sos = scipy_bandpass_sos(fs, low, high, order)
        freqs = np.linspace(0.01, fs / 2 - 0.01, 301)
        ref = scipy_sos_gain(sos, freqs, fs)
        mine = np.array([abs(frequency_response(sections, f, fs)) for f in freqs])
        assert np.allclose(mine, ref, rtol=1e-8, atol=1e-12)

    def test_sections_report_bandpass_zeros(self, coeffs):
        # b1 = 0 and b2 = -b0 give exact zeros at z = 1 and z = -1.
        assert coeffs.b1 == 0.0
        assert coeffs.b2 == -coeffs.b0

    @pytest.mark.parametrize(
        "fs,low,high",
        [
            (100.0, 1.615, 0.305),  # reversed cutoffs
            (100.0, 0.0, 1.615),  # zero low cutoff
            (100.0, 0.305, 50.0),  # at Nyquist
            (100.0, 0.305, 80.0),  # above Nyquist
            (-100.0, 0.305, 1.615),  # negative rate
            (100.0, float("nan"), 1.615),
        ],
    )
    def test_invalid_specs_rejected(self, fs, low, high):
        with pytest.raises(ValueError):
            FilterSpec(fs, low, high)

    @pytest.mark.parametrize("order", [0, 1, 3, -2])
    def test_invalid_orders_rejected(self, order):
        with pytest.raises(ValueError):
            design_bandpass_cascade(FilterSpec(FS, LOW, HIGH), order)

    def test_unstable_coefficients_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            BiquadCoefficients(1.0, 0.0, -1.0, -2.5, 1.2)

    def test_nonzero_nyquist_gain_rejected(self):
        with pytest.raises(ValueError, match="^band-pass section must have zero gain at Nyquist$"):
            BiquadCoefficients(1.0, -1.0, 0.0, 0.1, 0.2)

    def test_degenerate_gain_rejected(self):
        # bw**2 underflows to 0, so the overall gain is 0
        with pytest.raises(ValueError, match="^degenerate design: non-positive overall gain$"):
            design_bandpass_cascade(FilterSpec(100.0, 1e-300, 2e-300), 4)

    def test_non_bandpass_coefficients_rejected(self):
        with pytest.raises(ValueError, match="DC"):
            BiquadCoefficients(1.0, 0.5, 0.25, -0.5, 0.25)


class TestStreaming:
    def test_zero_input_zero_output(self, coeffs):
        biquad = Biquad(coeffs)
        assert biquad._process([0.0] * 500) == [0.0] * 500
        assert biquad.state == (0.0, 0.0)

    def test_impulse_response_matches_offline_oracles(self, coeffs):
        impulse = [1.0] + [0.0] * 1999
        streamed = Biquad(coeffs)._process(impulse)
        df1 = df1_filter(coeffs, impulse)
        ref = scipy_filter(coeffs, impulse)
        assert np.max(np.abs(np.array(streamed) - np.array(df1))) < 1e-12
        assert np.max(np.abs(np.array(streamed) - ref)) < 1e-12

    def test_constant_input_is_rejected_as_dc(self, coeffs):
        n = int(60 * FS)
        ys = Biquad(coeffs)._process([1.0] * n)
        tail = np.abs(ys[int(50 * FS):])
        assert tail.max() < 1e-3
        oracle_tail = np.abs(df1_filter(coeffs, [1.0] * n)[int(50 * FS):])
        assert oracle_tail.max() < 1e-3

    def test_linearity(self, coeffs):
        rng = np.random.default_rng(11)
        x1 = rng.normal(0, 1, 1000)
        x2 = rng.normal(0, 1, 1000)
        alpha, beta = 0.7, -2.3
        combined = Biquad(coeffs)._process((alpha * x1 + beta * x2).tolist())
        y1 = np.array(Biquad(coeffs)._process(x1.tolist()))
        y2 = np.array(Biquad(coeffs)._process(x2.tolist()))
        expected = alpha * y1 + beta * y2
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.max(np.abs(combined - expected) / scale) < 1e-9

    @pytest.mark.parametrize("delay", [1, 7, 250])
    def test_time_invariance_is_exact(self, coeffs, delay):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, 400).tolist()
        base = Biquad(coeffs)._process(x)
        shifted = Biquad(coeffs)._process([0.0] * delay + x)
        assert shifted[:delay] == [0.0] * delay
        assert shifted[delay:] == base

    def test_bounded_over_a_million_samples(self, coeffs):
        rng = np.random.default_rng(13)
        biquad = Biquad(coeffs)
        peak = 0.0
        for block in range(100):
            xs = rng.uniform(-10.0, 10.0, 10_000).tolist()
            ys = biquad._process(xs)
            peak = max(peak, max(abs(min(ys)), abs(max(ys))))
            assert math.isfinite(peak)
        assert peak < 1e3

    def test_chunked_streaming_is_bit_identical(self, coeffs):
        rng = np.random.default_rng(14)
        xs = rng.normal(0, 1, 2000).tolist()
        whole = Biquad(coeffs)._process(xs)
        for trial in range(5):
            cuts = sorted(rng.integers(0, len(xs), 6).tolist())
            chunked_filter = Biquad(coeffs)
            chunked: list[float] = []
            prev = 0
            for cut in cuts + [len(xs)]:
                chunked.extend(chunked_filter._process(xs[prev:cut]))
                prev = cut
            assert chunked == whole

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_input_rejected_without_state_change(self, coeffs, bad):
        biquad = Biquad(coeffs)
        biquad._process([0.5, -0.25, 1.0])
        before = biquad.state
        with pytest.raises(ValueError):
            biquad.step(bad)
        assert biquad.state == before

    def test_process_is_step_bit_for_bit(self, coeffs):
        xs = np.random.default_rng(15).normal(0, 2, 3000).tolist()
        stepped = Biquad(coeffs)
        assert Biquad(coeffs)._process(xs) == [stepped.step(x) for x in xs]

    def test_state_starts_at_zero(self, coeffs):
        assert Biquad(coeffs).state == (0.0, 0.0)
