"""Independent reference computations used to check the streaming code.

Everything here is deliberately written against the *definitions* rather than
the library internals: filtering via a direct-form I loop (and scipy), window
sums by exact re-summation (`math.fsum`) of each trailing window, and
detector event instants by arithmetic scanning of the movement ticks instead
of a per-tick state machine.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import signal

from stillwatch import BiquadCoefficients, CountsConfig


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


def detector_event_oracle(above, inactivity_ticks: int, vibration_ticks: int):
    """Recompute detector event instants from a movement mask, arithmetic only.

    `above` is the per-tick movement mask (vm strictly above threshold).
    Returns a list of (tick_index, kind) in emission order. Semantics mirrored
    from the published behavior: vibration starts `inactivity_ticks` after the
    last timer reference (start of stream, a movement tick, or a vibration
    end); movement at the would-be start tick preempts it; a vibration ends at
    the first movement tick or after `vibration_ticks`, whichever is first,
    and its end resets the timer. Reset events mark movement onsets and
    vibration ends only.
    """
    above = np.asarray(above, dtype=bool)
    n = len(above)
    movement = np.flatnonzero(above)
    events: list[tuple[int, str]] = []
    ref = 0
    i = 0
    while True:
        while i < len(movement) and movement[i] <= ref:
            i += 1
        trigger = ref + inactivity_ticks
        if i < len(movement) and movement[i] <= trigger:
            m = int(movement[i])
            if m == 0 or not above[m - 1]:
                events.append((m, "reset"))
            ref = m
            i += 1
            continue
        if trigger >= n:
            break
        events.append((trigger, "vib_start"))
        end = trigger + vibration_ticks
        j = int(np.searchsorted(movement, trigger, side="right"))
        if j < len(movement) and movement[j] <= end:
            end = int(movement[j])
        if end >= n:
            break
        events.append((end, "vib_end"))
        events.append((end, "reset"))
        ref = end
        i = int(np.searchsorted(movement, end, side="right"))
    return events
