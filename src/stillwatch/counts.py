"""Filtered acceleration to activity counts.

Per axis and per sample: band-pass filter, rectify, apply the dead-band and
saturation thresholds, convert to a count contribution, and accumulate over a
sliding one-second epoch, summed exactly (`AxisWindow`): each epoch sum is the
correctly rounded sum of its window. The three per-axis epoch sums form a
vector-magnitude (VM) count once per input sample, so a fresh VM value covers
the trailing epoch at every tick.

The conversion constant is treated as a rate: a sustained thresholded
acceleration equal to `scale_g_per_sec_per_count` accumulates one count per
second, so one sample contributes `y / scale / sample_rate` counts.

Validation happens once per sample, at the pipeline's boundary: `RawSample`
rejects non-finite values when it is built (inline for four floats, through
`require_finite` for anything else), and `CountsPipeline.process_sample`
rejects an off-grid timestamp and any axis beyond the filters' input limit.
The sample grid is checked here alone (`process_block` checks it as arrays,
seams included); `io.parse_samples` reads timestamps without checking them.
The public stage functions (`rectify_threshold`, `contribution`,
`AxisWindow.push`, `vm`) each check their own input. After the filters'
`Biquad.step`, the pipeline runs the same arithmetic unchecked: per axis,
`_quanta` does the rectify, the contribution and the scaling to quanta in one
call, in the public functions' order, and `AxisWindow._push` updates the
ring; `_vm` joins the three sums. The checks can be skipped because on input
that passed the boundary none of them can fire: the input limit keeps every
filter output finite, rectifying bounds each contribution to [0, saturation],
`_quantum_shift` makes every contribution a whole number of quanta, and
nonnegative quanta give nonnegative epoch sums.

The streaming path (`process_sample` and every stage under it) uses only the
standard library; `process_block` imports numpy on its first call.
"""

from __future__ import annotations

import cmath
import math
import sys
from array import array
from dataclasses import dataclass, fields
from math import isfinite
from typing import TYPE_CHECKING, NamedTuple, Sequence

from ._checks import finite, require_finite
from .filters import (_STOCK_ORDER, Biquad, BiquadCoefficients, FilterSpec, _as_sections,
                      design_bandpass_cascade)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RawSample",
    "CountsConfig",
    "VmCount",
    "rectify_threshold",
    "contribution",
    "vm",
    "AxisWindow",
    "CountsPipeline",
]

def check_sample_step(prev_t: float, t: float, sample_rate_hz: float) -> None:
    """Raise ValueError unless t follows prev_t by one sample period, within 1 ns."""
    step = t - prev_t
    if not (step > 0 and abs(step - 1.0 / sample_rate_hz) <= 1e-9):
        raise ValueError(
            f"sample at t={t} is not one {sample_rate_hz} Hz step after t={prev_t}"
        )


class _RawSampleFields(NamedTuple):
    t: float
    ax: float
    ay: float
    az: float


class RawSample(_RawSampleFields):
    """One timestamped 3-axis accelerometer reading, time in seconds, axes in g.

    An immutable tuple of four finite numbers, checked when it is built.
    """

    __slots__ = ()

    def __new__(cls, t: float, ax: float, ay: float, az: float) -> RawSample:
        self = tuple.__new__(cls, (t, ax, ay, az))
        # Four finite floats, as every parsed or simulated sample is, pass the
        # inline test; anything else (an int, a NaN, a string) goes through
        # require_finite, which accepts ints and names the first bad field.
        if not (
            type(t) is float and type(ax) is float and type(ay) is float and type(az) is float
            and isfinite(t) and isfinite(ax) and isfinite(ay) and isfinite(az)
        ):
            require_finite(self, cls._fields)
        return self

    @classmethod
    def _make(cls, iterable) -> RawSample:
        # The namedtuple `_make` (and `_replace`, which calls it) would skip the check.
        return cls(*iterable)


@dataclass(frozen=True, slots=True)
class CountsConfig:
    """Thresholds, conversion scale, epoch length and sample rate for counting."""

    deadband_g: float = 0.068
    saturation_g: float = 2.13
    scale_g_per_sec_per_count: float = 0.01664
    epoch_seconds: float = 1.0
    sample_rate_hz: float = FilterSpec().sample_rate_hz

    def __post_init__(self) -> None:
        require_finite(self, [f.name for f in fields(self)], positive=True)
        if not self.deadband_g < self.saturation_g:
            raise ValueError(
                f"deadband_g={self.deadband_g} must be below saturation_g={self.saturation_g}"
            )
        n = self.epoch_seconds * self.sample_rate_hz
        if not finite(n) or abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError(
                f"epoch_seconds * sample_rate_hz must be a positive integer, got {n}"
            )
        _quantum_shift(self)

    @property
    def window_samples(self) -> int:
        """Number of per-sample contributions in one epoch."""
        return int(round(self.epoch_seconds * self.sample_rate_hz))


class VmCount(NamedTuple):
    """Vector-magnitude activity count emitted for one input sample."""

    t: float
    value: float


def rectify_threshold(y: float, cfg: CountsConfig) -> float:
    """Rectify and threshold one filtered sample.

    Magnitudes strictly below the dead-band map to 0; magnitudes strictly
    above the saturation level clip to it; boundary values pass unchanged.
    """
    if not math.isfinite(y):
        raise ValueError(f"filtered value must be finite, got {y!r}")
    mag = abs(y)
    if mag < cfg.deadband_g:
        return 0.0
    if mag > cfg.saturation_g:
        return cfg.saturation_g
    return mag


def contribution(y_thresholded: float, cfg: CountsConfig) -> float:
    """Count mass contributed by one thresholded sample: y / scale / sample_rate."""
    if not (0.0 <= y_thresholded <= cfg.saturation_g):
        raise ValueError(
            f"thresholded value must lie in [0, {cfg.saturation_g}], got {y_thresholded!r}"
        )
    return y_thresholded / cfg.scale_g_per_sec_per_count / cfg.sample_rate_hz


def _quanta(y: float, deadband: float, saturation: float, scale: float, rate: float,
            up: float) -> float:
    """`contribution(rectify_threshold(y)) * up`, unchecked, in one call and
    with the same operations in the same order, so bit for bit the same.
    Below the dead-band it returns a fresh zero, `mag * 0.0`, not the literal
    0.0, which is one shared float: each ring slot keeps its own float."""
    mag = abs(y)
    if mag < deadband:
        return mag * 0.0
    if mag > saturation:
        mag = saturation
    return mag / scale / rate * up


def _vm(sx: float, sy: float, sz: float) -> float:
    return math.sqrt(sx * sx + sy * sy + sz * sz)


def vm(sx: float, sy: float, sz: float) -> float:
    """Euclidean norm of the three per-axis epoch sums."""
    if not all(isfinite(s) and s >= 0 for s in (sx, sy, sz)):
        raise ValueError(f"epoch sums must be finite and nonnegative, got ({sx}, {sy}, {sz})")
    return _vm(sx, sy, sz)


def _quantum_shift(cfg: CountsConfig) -> int:
    """The S that makes every contribution under `cfg` a whole multiple of 2**-S.

    A nonzero contribution is at least the dead-band's, c_min, so its last
    mantissa bit is worth at least 2**(e - 53), e = frexp(c_min)[1]: S = 53 - e
    (57 by default). Rejected: a subnormal c_min, 2**S beyond a double, or a
    saturated epoch of 2**1023 quanta or more (a dead-band below ~2e-290 g).
    """
    c_min = contribution(cfg.deadband_g, cfg)
    shift = 53 - math.frexp(c_min)[1]
    top = math.frexp(contribution(cfg.saturation_g, cfg))[1] + shift
    if c_min < sys.float_info.min or shift > 1023 or top + cfg.window_samples.bit_length() > 1023:
        raise ValueError(
            f"contributions from deadband_g={cfg.deadband_g} to saturation_g={cfg.saturation_g} "
            "are too small or too far apart to sum exactly"
        )
    return shift


class AxisWindow:
    """Sliding-epoch accumulator: a ring buffer with an exact running sum.

    Each slot holds a contribution's whole number of quanta 2**-S (S from
    `_quantum_shift`) as an integral double, zeros included, so the window
    holds the same memory whatever the signal (an int near 2**57 is a third
    larger than a double, and a shared int 0 would make the size vary). The
    running sum is a Python int, so it never drifts; one correctly rounded
    conversion makes each epoch sum `math.fsum` of its window, 0.0 at rest.
    """

    __slots__ = ("_buf", "_idx", "_sum", "_up", "_down", "_qmax")

    def __init__(self, config: CountsConfig):
        shift = _quantum_shift(config)
        self._up = 2.0**shift
        self._down = 2.0**-shift
        self._qmax = contribution(config.saturation_g, config) * self._up
        # A distinct 0.0 per slot, as the docstring asks; `[0.0] * n` shares one.
        self._buf = array("d", bytes(8 * config.window_samples)).tolist()
        self._idx = 0
        self._sum = 0

    @property
    def value(self) -> float:
        """Current epoch sum."""
        return self._sum * self._down

    def push(self, c: float) -> float:
        """Insert one contribution, evict the oldest, return the new epoch sum.
        Anything but a whole number of quanta up to saturation is rejected."""
        x = c * self._up
        if not (0.0 <= x <= self._qmax and x.is_integer()):
            raise ValueError(
                f"contribution must be a multiple of {self._down!r} up to saturation, got {c!r}"
            )
        return self._push(x)

    def _push(self, quanta: float) -> float:
        """`push` for a contribution already scaled to its count of quanta."""
        buf = self._buf
        i = self._idx
        old = buf[i]
        if quanta or old:
            self._sum += int(quanta) - int(old)
        buf[i] = quanta
        self._idx = (i + 1) % len(buf)
        return self._sum * self._down


def _input_limit(sections: Sequence[BiquadCoefficients]) -> float:
    """The largest input magnitude the cascade filters without overflow,
    whatever inputs within it came before (4.8e305 g for the stock band-pass).

    A stable section whose poles have radius at most r has an impulse response
    of l1 norm at most H = |b|_1 / (1 - r)**2. That bounds its output and its
    s1 register per unit of input, and every other intermediate sum of
    `Biquad.step` stays below K = |b|_1 + (1 + |a1| + |a2|) H. Sections chain
    by H; a factor of 2 covers rounding.
    """
    gain = worst = 1.0
    for c in sections:
        d = cmath.sqrt(c.a1 * c.a1 - 4.0 * c.a2)
        radius = max(abs(-c.a1 + d), abs(-c.a1 - d)) / 2.0
        b_sum = abs(c.b0) + abs(c.b1) + abs(c.b2)
        h = b_sum / (1.0 - radius) ** 2
        worst = max(worst, gain * (b_sum + (1.0 + abs(c.a1) + abs(c.a2)) * h))
        gain *= h
    return sys.float_info.max / (2.0 * worst)


class CountsPipeline:
    """Streaming chain from raw samples to VM counts.

    Holds one independent filter cascade and one sliding epoch window per
    axis; the ring buffers are sized at construction. A pipeline instance
    serves one ordered sample stream.
    """

    def __init__(
        self,
        sections: BiquadCoefficients | Sequence[BiquadCoefficients],
        config: CountsConfig | None = None,
    ):
        self.config = config or CountsConfig()
        self.sections: tuple[BiquadCoefficients, ...] = _as_sections(sections)
        self._filters = [[Biquad(c) for c in self.sections] for _ in range(3)]
        self._windows = [AxisWindow(self.config) for _ in range(3)]
        self._input_limit = _input_limit(self.sections)
        self._up = self._windows[0]._up
        self._last_t: float | None = None
        self._sums = (0.0, 0.0, 0.0)

    @classmethod
    def from_spec(
        cls,
        filter_spec: FilterSpec | None = None,
        config: CountsConfig | None = None,
        order: int = _STOCK_ORDER,
    ) -> "CountsPipeline":
        """Build a pipeline designing the band-pass from a spec; the stock pass
        band at the counts sample rate when no spec is given."""
        config = config or CountsConfig()
        filter_spec = filter_spec or FilterSpec(config.sample_rate_hz)
        if filter_spec.sample_rate_hz != config.sample_rate_hz:
            raise ValueError(
                f"filter sample rate {filter_spec.sample_rate_hz} Hz does not match "
                f"counts sample rate {config.sample_rate_hz} Hz"
            )
        return cls(design_bandpass_cascade(filter_spec, order), config)

    def _save(self) -> tuple:
        """The stream's state, for one `_restore`. The rings are copied: the
        row-by-row path of `process_block` writes them in place."""
        return ([(b, b._s1, b._s2) for chain in self._filters for b in chain],
                [(w, w._buf.copy(), w._idx, w._sum) for w in self._windows],
                self._last_t, self._sums)

    def _restore(self, saved: tuple) -> None:
        """Put the stream back in the state that `_save` returned."""
        biquads, windows, self._last_t, self._sums = saved
        for biquad, s1, s2 in biquads:
            biquad._s1, biquad._s2 = s1, s2
        for window, buf, idx, total in windows:
            window._buf, window._idx, window._sum = buf, idx, total

    @property
    def epoch_sums(self) -> tuple[float, float, float]:
        """Per-axis epoch sums after the most recent sample."""
        return self._sums

    def process_sample(self, sample: RawSample) -> VmCount:
        """Advance every stage by one sample and emit the VM count.

        Samples must arrive in time order at the configured rate, each axis
        within the filters' overflow-free range; both are checked before any
        state changes, so a rejected sample leaves the pipeline untouched.
        Past those two checks and `RawSample`'s finiteness check, each filter
        section runs through `Biquad.step`, and every later stage runs
        unchecked, as `_quanta`, `AxisWindow._push` and `_vm`, since no stage
        check could fire here (see the module docstring). The result is built
        with `tuple.__new__`, which skips namedtuple's Python-level `__new__`;
        it is the same `VmCount`.
        """
        cfg = self.config
        t, ax, ay, az = sample
        if self._last_t is not None:
            check_sample_step(self._last_t, t, cfg.sample_rate_hz)
        limit = self._input_limit
        if not (abs(ax) <= limit and abs(ay) <= limit and abs(az) <= limit):
            raise ValueError(
                f"sample at t={t} exceeds {limit:.3g} g, beyond which the filters "
                "could overflow"
            )
        deadband, saturation = cfg.deadband_g, cfg.saturation_g
        scale, rate, up = cfg.scale_g_per_sec_per_count, cfg.sample_rate_hz, self._up
        # One block per axis, unrolled: a loop over the axes costs a tenth of
        # the tick in bookkeeping.
        (fx, fy, fz), (wx, wy, wz) = self._filters, self._windows
        y = ax
        for biquad in fx:
            y = biquad.step(y)
        sx = wx._push(_quanta(y, deadband, saturation, scale, rate, up))
        y = ay
        for biquad in fy:
            y = biquad.step(y)
        sy = wy._push(_quanta(y, deadband, saturation, scale, rate, up))
        y = az
        for biquad in fz:
            y = biquad.step(y)
        sz = wz._push(_quanta(y, deadband, saturation, scale, rate, up))
        self._last_t = t
        self._sums = (sx, sy, sz)
        return tuple.__new__(VmCount, (t, _vm(sx, sy, sz)))

    def process_block(self, block) -> tuple[np.ndarray, np.ndarray]:
        """Advance every stage by an (n, 4) array of t, ax, ay, az rows; return
        each row's VM (n,) and epoch sums (n, 3), bit for bit `process_sample`'s.
        Both methods share the state, so a stream may switch at any row.

        All rows are checked as arrays first, the seam after the last sample
        included. Each window then sums two int64 limbs of the quanta by
        differences of cumulative sums, joined by one correctly rounded add as
        in `AxisWindow`. That is exact while a saturated sample is below 2**63
        quanta (2**58 stock, 2**64 at a 0.001 g dead-band), a window at most
        2**21 samples and a block under 2**31 rows. A block with a bad row, or
        beyond those bounds, runs row by row through `process_sample`, which
        refuses the first bad row; a refused block changes nothing, and its
        error carries that row's index in the block as `exc.row`.
        """
        import numpy as np

        block = np.asarray(block, dtype=float).reshape(len(block), 4)
        cfg, n, w, last_t = self.config, len(block), self.config.window_samples, self._last_t
        if n == 0:
            return np.empty(0), np.empty((0, 3))
        t, rate = block[:, 0], cfg.sample_rate_hz
        step = t - np.concatenate(([t[0] if last_t is None else last_t], t[:-1]))
        ok = (step > 0) & (np.abs(step - 1.0 / rate) <= 1e-9)  # as `check_sample_step`
        ok[0] |= last_t is None
        ok &= np.isfinite(block).all(axis=1) & (np.abs(block[:, 1:]) <= self._input_limit).all(1)
        if not (ok.all() and self._windows[0]._qmax < 2.0**63 and w <= 2**21 and n + w < 2**31):
            saved, vms, sums = self._save(), np.empty(n), np.empty((n, 3))
            try:
                for i, row in enumerate(block.tolist()):
                    vms[i] = self.process_sample(RawSample(*row)).value
                    sums[i] = self._sums
            except ValueError as exc:
                self._restore(saved)
                exc.row = i
                raise
            return vms, sums
        # Each window's carried quanta, oldest first, above the block's own from
        # the filters, one axis at a time; every later stage in place on all three.
        quanta = np.empty((w + n, 3))
        for axis, (chain, win) in enumerate(zip(self._filters, self._windows)):
            quanta[:w, axis] = win._buf[win._idx:] + win._buf[:win._idx]
            y = block[:, axis + 1].tolist()
            for biquad in chain:
                y = biquad._process(y)
            quanta[w:, axis] = y
            del y
        mag = quanta[w:]
        np.minimum(np.abs(mag, out=mag), cfg.saturation_g, out=mag)
        mag[mag < cfg.deadband_g] = 0.0
        mag /= cfg.scale_g_per_sec_per_count
        mag /= rate
        mag *= self._up
        rings = quanta[-w:].T.tolist()  # each window's last w quanta, oldest first
        lo = quanta.astype(np.int64)
        del mag, quanta
        hi = lo >> 32
        lo &= 0xFFFFFFFF
        np.cumsum(hi, axis=0, out=hi)
        np.cumsum(lo, axis=0, out=lo)
        hi = hi[w:] - hi[:-w]
        lo = lo[w:] - lo[:-w]
        for win, buf, top, bottom in zip(self._windows, rings, hi[-1].tolist(), lo[-1].tolist()):
            win._buf, win._idx, win._sum = buf, 0, (top << 32) + bottom
        sums = hi.astype(float)
        sums *= 2.0**32
        sums += lo
        sums *= self._windows[0]._down
        sx, sy, sz = sums.T
        self._last_t, self._sums = float(t[-1]), tuple(sums[-1].tolist())
        return np.sqrt(sx * sx + sy * sy + sz * sz), sums
