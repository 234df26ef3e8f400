"""Independent reference computations used to check the streaming code.

Everything here is deliberately written against the *definitions* rather than
the library internals: filtering via a direct-form I loop (and scipy), window
sums by exact re-summation (`math.fsum`) of each trailing window, and
detector event instants by arithmetic scanning of the movement ticks instead
of a per-tick state machine. A scenario's samples are synthesized one tick at
a time with `math` (`reference_sample`), and the closed loop's reference is
the watch run one tick at a time through the streaming API (`reference_run`).
CSV rows are written one value at a time (`format_rows`), which is also how
the tests write sample files (`samples_text`); event files are read back with
`read_events`.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np
from scipy import signal

from stillwatch import (AmbientVibration, BiquadCoefficients, BurstMovement, CountsConfig,
                        CountsPipeline, DetectorEvent, Device, RawSample, Rest, ScenarioSampler,
                        SimulationTrace, SineMovement)
from stillwatch.io import SAMPLES_HEADER, _float_str
from stillwatch.sim import TRACE_COLUMNS, ConfigFile


def df1_filter(coeffs: BiquadCoefficients, xs) -> list[float]:
    """Direct-form I evaluation of one biquad (different realization, same LTI map)."""
    y1 = y2 = x1 = x2 = 0.0
    out = []
    for x in xs:
        y = (
            coeffs.b0 * x
            + coeffs.b1 * x1
            + coeffs.b2 * x2
            - coeffs.a1 * y1
            - coeffs.a2 * y2
        )
        x2, x1 = x1, x
        y2, y1 = y1, y
        out.append(y)
    return out


def scipy_filter(sections, xs) -> np.ndarray:
    """Cascade filtering through scipy.signal.lfilter."""
    if isinstance(sections, BiquadCoefficients):
        sections = (sections,)
    y = np.asarray(xs, dtype=float)
    for c in sections:
        y = signal.lfilter([c.b0, c.b1, c.b2], [1.0, c.a1, c.a2], y)
    return y


def scipy_bandpass_sos(fs: float, low: float, high: float, order: int = 2) -> np.ndarray:
    """Reference design: scipy butter (half the overall order), kept in SOS form.

    Second-order sections sidestep the precision loss of expanded polynomials
    when poles cluster near z = 1, so the comparison is apples to apples.
    """
    return signal.butter(order // 2, [low, high], btype="bandpass", fs=fs, output="sos")


def scipy_sos_gain(sos: np.ndarray, freqs, fs: float) -> np.ndarray:
    w = 2 * np.pi * np.asarray(freqs) / fs
    _, h = signal.sosfreqz(sos, worN=w)
    return np.abs(h)


def fsum_window_sums(contributions, window: int) -> np.ndarray:
    """Trailing-window sums, each re-summed exactly by `math.fsum` (the first
    windows are shorter: the stream starts from an empty epoch)."""
    c = [float(x) for x in contributions]
    return np.array([math.fsum(c[max(0, k + 1 - window) : k + 1]) for k in range(len(c))])


def offline_counts(xyz: np.ndarray, sections, cfg: CountsConfig):
    """Whole-chain reference: scipy filtering + vectorized thresholds + windows.

    Returns (vm, sums) with sums of shape (n, 3).
    """
    xyz = np.asarray(xyz, dtype=float)
    n = xyz.shape[0]
    window = cfg.window_samples
    sums = np.zeros((n, 3))
    for axis in range(3):
        y = scipy_filter(sections, xyz[:, axis])
        r = np.abs(y)
        r = np.where(r < cfg.deadband_g, 0.0, r)
        r = np.where(r > cfg.saturation_g, cfg.saturation_g, r)
        c = r / cfg.scale_g_per_sec_per_count / cfg.sample_rate_hz
        sums[:, axis] = fsum_window_sums(c, window)
    return np.sqrt((sums**2).sum(axis=1)), sums


def detector_event_oracle(above, inactivity_ticks: int, vibration_ticks: int,
                          option_changes=()):
    """Recompute detector event instants from a movement mask, arithmetic only.

    `above` is the per-tick movement mask (vm strictly above threshold).
    Returns a list of (tick_index, kind) in emission order. Semantics mirrored
    from the published behavior: vibration starts `inactivity_ticks` after the
    last timer reference (start of stream, a movement tick, or a vibration
    end); movement at the would-be start tick preempts it; a vibration ends at
    the first movement tick or after `vibration_ticks`, whichever is first,
    and its end resets the timer. Reset events mark movement onsets and
    vibration ends only.

    `option_changes` lists (tick, inactivity_ticks) pairs in tick order, as a
    watch's select presses: each takes effect before its tick is processed,
    moves the timer reference to that tick and sets the inactivity time from
    then on. A change during a vibration leaves the vibration running, and
    its end moves the reference again.
    """
    above = np.asarray(above, dtype=bool)
    n = len(above)
    movement = np.flatnonzero(above)
    changes = [(int(c), int(ticks)) for c, ticks in option_changes]
    events: list[tuple[int, str]] = []
    ref = 0
    start = 0  # first tick not yet scanned for movement
    i = 0  # next entry of `movement` at or after `start`
    j = 0  # next entry of `changes`
    while True:
        while i < len(movement) and movement[i] < start:
            i += 1
        trigger = ref + inactivity_ticks
        m = int(movement[i]) if i < len(movement) else n
        if j < len(changes) and changes[j][0] <= min(m, trigger):
            ref, inactivity_ticks = changes[j]
            start = ref
            j += 1
            continue
        if m <= trigger:
            if m >= n:
                break
            if m == 0 or not above[m - 1]:
                events.append((m, "reset"))
            ref = m
            start = m + 1
            continue
        if trigger >= n:
            break
        events.append((trigger, "vib_start"))
        end = trigger + vibration_ticks
        k = int(np.searchsorted(movement, trigger, side="right"))
        if k < len(movement) and movement[k] <= end:
            end = int(movement[k])
        if end >= n:
            break
        events.append((end, "vib_end"))
        events.append((end, "reset"))
        while j < len(changes) and changes[j][0] <= end:
            inactivity_ticks = changes[j][1]
            j += 1
        ref = end
        start = end + 1
    return events


def segment_signal(segment, t: float) -> tuple[float, float, float]:
    """Movement contribution of a segment at time t (gravity and noise excluded)."""
    if isinstance(segment, Rest):
        return (0.0, 0.0, 0.0)
    local = t - segment.start
    if isinstance(segment, SineMovement):
        value = segment.amplitude_g * math.sin(2.0 * math.pi * segment.frequency_hz * local)
        out = [0.0, 0.0, 0.0]
        out["xyz".index(segment.axis)] = value
        return (out[0], out[1], out[2])
    if isinstance(segment, BurstMovement):
        u = local / (segment.end - segment.start)
        envelope = 0.5 - 0.5 * math.cos(2.0 * math.pi * u)
        value = (
            segment.amplitude_g
            * envelope
            * math.sin(2.0 * math.pi * segment.center_frequency_hz * local)
        )
        return (value, value, value)
    assert isinstance(segment, AmbientVibration)
    value = segment.amplitude_g * math.sin(2.0 * math.pi * segment.frequency_hz * local)
    return (value, value, value)


@functools.lru_cache(maxsize=4)
def noise_block(seed: int, sigma: float, b: int) -> np.ndarray:
    """Noise block b by its definition: 256 rows of three Gaussian draws from
    the generator keyed by (seed, b). Read only."""
    return np.random.default_rng((seed, b)).normal(0.0, sigma, (256, 3))


def reference_sample(scenario, rate: float, k: int, motor_on: bool = False) -> RawSample:
    """The raw sample at tick k, one tick alone: the movement of the segment
    that holds t = k / rate, plus the sum of noise and gravity, plus the
    feedback tone when the motor was on at the tick before."""
    t = k / rate
    starts = [segment.start for segment in scenario.segments]
    x, y, z = segment_signal(scenario.segments[bisect.bisect_right(starts, t) - 1], t)
    nx = ny = nz = 0.0
    if scenario.noise_sigma_g:
        nx, ny, nz = noise_block(scenario.seed, scenario.noise_sigma_g, k // 256)[k % 256].tolist()
    x += nx
    y += ny
    z += nz + 1.0  # gravity
    feedback = scenario.motor_feedback
    if motor_on and feedback.enabled:
        tone = feedback.amplitude_g * math.sin(2.0 * math.pi * feedback.frequency_hz * t)
        x += tone
        y += tone
        z += tone
    return RawSample(t, x, y, z)


def reference_run(scenario, config: ConfigFile | None = None) -> SimulationTrace:
    """`stillwatch.run` one tick at a time: press the tick's buttons, synthesize
    its sample (the motor state of the tick before drives the feedback), count
    it, feed the watch and record every column."""
    config = config or ConfigFile()
    sampler = ScenarioSampler(scenario, config.counts.sample_rate_hz)
    pipeline = CountsPipeline.from_spec(config.filter_spec, config.counts, config.filter_order)
    device = Device(config.device, config.detector)
    record = np.empty(sampler.n_ticks, dtype=list(TRACE_COLUMNS))
    motor_prev = False
    for k in range(sampler.n_ticks):
        t = k / sampler.sample_rate_hz
        for button in sampler.presses.get(k, ()):
            device.press_button(button, t)
        sample = reference_sample(scenario, sampler.sample_rate_hz, k, motor_prev)
        count = pipeline.process_sample(sample)
        snap = device.tick(count.value, t)
        motor_prev = snap.motor
        sx, sy, sz = pipeline.epoch_sums
        record[k] = (
            t, sample.ax, sample.ay, sample.az, count.value, sx, sy, sz,
            snap.timer_seconds, snap.motor, snap.white, snap.blue, snap.red, snap.option,
        )
    columns = {name: record[name] for name, _ in TRACE_COLUMNS}
    return SimulationTrace(**columns, events=tuple(device.events))


def format_rows(header: str, formats, rows) -> str:
    """The CSV text of the header and rows, each value written by its column's format."""
    texts = [map(fmt, values) for fmt, values in zip(formats, zip(*rows))]
    return "\n".join([header, *map(",".join, zip(*texts))]) + "\n"


def samples_text(samples) -> str:
    """The raw sample CSV of rows of t, ax, ay, az (`RawSample`s or the rows
    of a parsed array), each value the shortest decimal that reparses to the
    same double."""
    return format_rows(SAMPLES_HEADER, [_float_str] * 4, samples)


def read_events(text: str) -> list[DetectorEvent]:
    """The events of an event CSV, read back as the floats and kinds it names."""
    header, *rows = text.splitlines()
    assert header == "t,event", header
    return [DetectorEvent(float(t), kind) for t, kind in (row.split(",") for row in rows)]
