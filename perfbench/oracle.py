"""Correctness gate: independent reference computations for benchmark outputs.

Nothing here reuses the library's streaming code. Filtering goes through
scipy's `lfilter`, epoch sums are re-summed window by window, and detector
events come from an arithmetic scan of the movement mask instead of the
per-tick state machine. No golden digests are used, so a deliberate change to
the simulator's noise bytes does not fail the gate; only wrong arithmetic does.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance on VM counts and epoch sums, scaled by max(|ref|, 1).
RTOL = 1e-9


def offline_counts(xyz, sections, cfg):
    """Whole counts chain offline; returns (vm, sums (n, 3), filtered (n, 3))."""
    from scipy import signal

    xyz = np.asarray(xyz, dtype=float)
    window = cfg.window_samples
    filtered = np.empty_like(xyz)
    sums = np.empty_like(xyz)
    for axis in range(3):
        y = xyz[:, axis]
        for c in sections:
            y = signal.lfilter([c.b0, c.b1, c.b2], [1.0, c.a1, c.a2], y)
        filtered[:, axis] = y
        r = np.abs(y)
        r = np.where(r < cfg.deadband_g, 0.0, r)
        r = np.where(r > cfg.saturation_g, cfg.saturation_g, r)
        contrib = r / cfg.scale_g_per_sec_per_count / cfg.sample_rate_hz
        padded = np.concatenate([np.zeros(window - 1), contrib])
        sums[:, axis] = np.lib.stride_tricks.sliding_window_view(padded, window).sum(axis=1)
    return np.sqrt((sums**2).sum(axis=1)), sums, filtered


def mismatches(actual, reference, rtol: float = RTOL) -> int:
    """Number of entries whose relative error exceeds rtol (scale max(|ref|, 1))."""
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if actual.shape != reference.shape:
        return max(actual.size, reference.size, 1)
    scale = np.maximum(np.abs(reference), 1.0)
    return int(np.count_nonzero(~(np.abs(actual - reference) <= rtol * scale)))


def event_scan(above, inactivity_ticks: int, vibration_ticks: int, option_changes=()):
    """Detector events from a movement mask, by arithmetic on tick indices.

    `option_changes` lists (tick, inactivity_ticks) for each inactivity-option
    change, applied before that tick is processed: it moves the timer
    reference to that tick and sets the new inactivity length. Returns
    (tick, kind) pairs in emission order. A vibration starts `inactivity_ticks`
    after the timer reference unless a movement tick comes first; it ends at
    the first movement tick after its start or after `vibration_ticks`, and
    its end resets the timer. Reset events mark movement onsets and
    vibration ends.
    """
    above = np.asarray(above, dtype=bool)
    n = len(above)
    movement = np.flatnonzero(above)
    changes = sorted(option_changes)
    events: list[tuple[int, str]] = []
    ref = pos = ci = 0
    inactivity = inactivity_ticks
    while pos < n:
        i = int(np.searchsorted(movement, pos))
        move = int(movement[i]) if i < len(movement) else n
        trigger = ref + inactivity
        change = changes[ci][0] if ci < len(changes) else n
        first = min(move, trigger, change)
        if first >= n:
            break
        if change == first:
            ref, inactivity = change, changes[ci][1]
            ci += 1
            pos = change
            continue
        if move == first:
            if move == 0 or not above[move - 1]:
                events.append((move, "reset"))
            ref = move
            pos = move + 1
            continue
        events.append((trigger, "vib_start"))
        j = int(np.searchsorted(movement, trigger, side="right"))
        end = trigger + vibration_ticks
        if j < len(movement):
            end = min(end, int(movement[j]))
        # Changes during a vibration only set the next inactivity length; the
        # vibration's end moves the timer reference anyway.
        while ci < len(changes) and changes[ci][0] <= end:
            inactivity = changes[ci][1]
            ci += 1
        if end >= n:
            break
        events.append((end, "vib_end"))
        events.append((end, "reset"))
        ref = end
        pos = end + 1
    return events


def motor_mask(events, n: int) -> np.ndarray:
    """Per-tick motor state implied by an event list: on from vib_start to vib_end."""
    mask = np.zeros(n, dtype=bool)
    start = None
    for tick, kind in events:
        if kind == "vib_start":
            start = tick
        elif kind == "vib_end" and start is not None:
            mask[start:tick] = True
            start = None
    if start is not None:
        mask[start:] = True
    return mask


def feedback_mismatches(xyz, motor_off_xyz, motor, t, amplitude_g: float,
                        frequency_hz: float, atol: float = 1e-9) -> int:
    """Ticks on which the motor feedback tone is wrong on some axis.

    The run's samples minus the same samples drawn with the motor off must be
    the tone on every axis wherever the motor was on one tick earlier, and 0
    elsewhere (tick 0 has no earlier state, so no tone)."""
    was_on = np.concatenate([[False], np.asarray(motor, dtype=bool)[:-1]])
    tone = np.where(was_on, amplitude_g * np.sin(2.0 * np.pi * frequency_hz * np.asarray(t)), 0.0)
    diff = np.asarray(xyz, dtype=float) - np.asarray(motor_off_xyz, dtype=float)
    return int(np.count_nonzero(~(np.abs(diff - tone[:, None]) <= atol).all(axis=1)))


def parse_event_csv(text: str, sample_rate_hz: float) -> list[tuple[int, str]] | None:
    """Event CSV to (tick, kind) pairs; None if the text is malformed or off-grid."""
    lines = text.split("\n")
    if lines[0] != "t,event" or lines[-1] != "":
        return None
    out = []
    for line in lines[1:-1]:
        t_text, _, kind = line.partition(",")
        try:
            t = float(t_text)
        except ValueError:
            return None
        tick = round(t * sample_rate_hz)
        if abs(t - tick / sample_rate_hz) > 1e-6 * max(1.0, abs(t)):
            return None
        out.append((tick, kind))
    return out


def input_properties(vm, filtered, events, cfg, threshold, motor=None, presses=0) -> dict:
    """Input properties the workloads depend on, from oracle data."""
    minutes = len(vm) / cfg.sample_rate_hz / 60.0
    vib = sum(1 for _, kind in events if kind == "vib_start")
    transitions = int(np.count_nonzero(np.diff(motor.astype(np.int8)))) if motor is not None else 0
    return {
        "vm_nonzero_share": float(np.count_nonzero(vm > 0.0) / len(vm)),
        "vm_above_threshold_share": float(np.count_nonzero(vm > threshold) / len(vm)),
        "saturated_share": float(
            np.count_nonzero(np.abs(filtered) > cfg.saturation_g) / filtered.size
        ),
        "deadband_cleared_share": float(
            np.count_nonzero(np.abs(filtered) >= cfg.deadband_g) / filtered.size
        ),
        "vibrations_per_min": vib / minutes,
        "motor_transitions_per_min": transitions / minutes,
        "button_presses": presses,
    }
