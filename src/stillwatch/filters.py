"""Butterworth band-pass design and constant-memory streaming filtering.

The design path builds an analog Butterworth low-pass prototype, applies the
low-pass-to-band-pass transform, and discretizes with the bilinear transform
after prewarping both band edges, so the digital magnitude response is exactly
-3 dB at the requested cutoffs. The result is a cascade of second-order
sections (biquads); the default overall order of 2 is a single section.

Streaming filtering runs each biquad in direct-form II transposed: two delay
registers per section, O(1) time and memory per sample, bit-deterministic for
identical input sequences. One independent filter instance is used per
accelerometer axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from ._checks import require_finite

__all__ = [
    "FilterSpec",
    "BiquadCoefficients",
    "design_bandpass_cascade",
    "Biquad",
    "frequency_response",
]

_STOCK_ORDER = 2  # the stock overall band-pass order: one second-order section

# Relative tolerance for the structural zeros a band-pass must have at DC and
# at the Nyquist frequency.
_ZERO_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class FilterSpec:
    """Band-pass design request: sample rate and the two cutoff frequencies, in Hz.

    The defaults are the stock tuning: 100 Hz sampling, 0.305-1.615 Hz pass band.
    """

    sample_rate_hz: float = 100.0
    low_cutoff_hz: float = 0.305
    high_cutoff_hz: float = 1.615

    def __post_init__(self) -> None:
        require_finite(self, ("sample_rate_hz", "low_cutoff_hz", "high_cutoff_hz"))
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not (0.0 < self.low_cutoff_hz < self.high_cutoff_hz):
            raise ValueError(
                "cutoffs must satisfy 0 < low_cutoff_hz < high_cutoff_hz, got "
                f"low={self.low_cutoff_hz}, high={self.high_cutoff_hz}"
            )
        if self.high_cutoff_hz >= self.sample_rate_hz / 2.0:
            raise ValueError(
                f"high_cutoff_hz={self.high_cutoff_hz} must be below the Nyquist "
                f"frequency {self.sample_rate_hz / 2.0}"
            )


@dataclass(frozen=True, slots=True)
class BiquadCoefficients:
    """One second-order band-pass section.

    Feedforward b0, b1, b2 and feedback a1, a2, normalized so the leading
    feedback coefficient is 1. Construction checks that the poles lie strictly
    inside the unit circle and that the section keeps the structural zeros of
    a band-pass (gain 0 at DC and at Nyquist).
    """

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def __post_init__(self) -> None:
        require_finite(self, ("b0", "b1", "b2", "a1", "a2"))
        # Stability triangle for z^2 + a1 z + a2.
        if not (abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2):
            raise ValueError(
                f"unstable section: poles of 1 + {self.a1}*z^-1 + {self.a2}*z^-2 "
                "are not strictly inside the unit circle"
            )
        scale = max(1.0, abs(self.b0), abs(self.b1), abs(self.b2))
        if abs(self.b0 + self.b1 + self.b2) > _ZERO_TOL * scale:
            raise ValueError("band-pass section must have zero gain at DC")
        if abs(self.b0 - self.b1 + self.b2) > _ZERO_TOL * scale:
            raise ValueError("band-pass section must have zero gain at Nyquist")


def _prototype_poles(n: int) -> list[complex]:
    # Unit-cutoff analog Butterworth low-pass poles, left half plane.
    return [cmath.exp(1j * math.pi * (2 * k + n + 1) / (2 * n)) for k in range(n)]


def design_bandpass_cascade(
    spec: FilterSpec, order: int = _STOCK_ORDER
) -> tuple[BiquadCoefficients, ...]:
    """Design a Butterworth band-pass of the given overall order as a biquad cascade.

    `order` is the overall filter order and must be even (a band-pass doubles
    the prototype order, so odd overall orders are not constructible). The
    default of 2 transforms a first-order prototype into a single section.
    """
    if not isinstance(order, int) or order < 2 or order % 2 != 0:
        raise ValueError(f"order must be an even integer >= 2, got {order!r}")
    n = order // 2
    fs = float(spec.sample_rate_hz)

    # Prewarp band edges so the bilinear transform lands them exactly.
    w1 = 2.0 * fs * math.tan(math.pi * spec.low_cutoff_hz / fs)
    w2 = 2.0 * fs * math.tan(math.pi * spec.high_cutoff_hz / fs)
    bw = w2 - w1
    w0 = math.sqrt(w1 * w2)

    # One walk over the prototype poles: each gives two band-pass poles.
    fs2 = 2.0 * fs
    denom = complex(1.0, 0.0)
    feedback: list[tuple[float, float]] = []
    for p in _prototype_poles(n):
        pb = p * (bw / 2.0)
        d = cmath.sqrt(pb * pb - w0 * w0)
        z = [(fs2 + s) / (fs2 - s) for s in (pb + d, pb - d)]  # bilinear transform
        denom *= fs2 - (pb + d)
        denom *= fs2 - (pb - d)
        if abs(p.imag) < 1e-12:
            # Real prototype pole: its two band-pass poles share one section.
            feedback.append((-(z[0] + z[1]).real, (z[0] * z[1]).real))
        elif p.imag > 0:
            # Complex pair (p, conj(p)): each band-pass pole pairs with its
            # own conjugate, giving two sections.
            feedback.extend((-2.0 * zk.real, abs(zk) ** 2) for zk in z)
    assert len(feedback) == n

    # Overall digital gain for n zeros at s=0 mapped through z = (2fs+s)/(2fs-s),
    # with n more zeros appended at z=-1 to balance the pole count.
    k_digital = ((bw**n) * (fs2**n) / denom).real
    if not (k_digital > 0.0 and math.isfinite(k_digital)):
        raise ValueError("degenerate design: non-positive overall gain")
    g = k_digital ** (1.0 / n)
    return tuple(BiquadCoefficients(g, 0.0, -g, a1, a2) for a1, a2 in feedback)


class Biquad:
    """One streaming section: direct-form II transposed, delay registers zero
    at stream start. One instance serves one logical stream at a time.
    """

    __slots__ = ("coeffs", "_s1", "_s2")

    def __init__(self, coeffs: BiquadCoefficients):
        self.coeffs = coeffs
        self._s1 = 0.0
        self._s2 = 0.0

    @property
    def state(self) -> tuple[float, float]:
        """The two delay registers (s1, s2)."""
        return (self._s1, self._s2)

    def step(self, x: float) -> float:
        """Advance by one sample; non-finite input is rejected without being consumed."""
        if not math.isfinite(x):
            raise ValueError(f"filter input must be finite, got {x!r}")
        c = self.coeffs
        y = c.b0 * x + self._s1
        self._s1 = c.b1 * x - c.a1 * y + self._s2
        self._s2 = c.b2 * x - c.a2 * y
        return y

    def _process(self, xs: list[float]) -> list[float]:
        """Filter a sequence of finite inputs, bit for bit as `step` would, the
        registers read and written once."""
        c = self.coeffs
        b0, b1, b2, a1, a2 = c.b0, c.b1, c.b2, c.a1, c.a2
        s1, s2 = self._s1, self._s2
        ys = []
        for x in xs:
            y = b0 * x + s1
            s1 = b1 * x - a1 * y + s2
            s2 = b2 * x - a2 * y
            ys.append(y)
        self._s1, self._s2 = s1, s2
        return ys


def _as_sections(
    filt: BiquadCoefficients | Sequence[BiquadCoefficients],
) -> tuple[BiquadCoefficients, ...]:
    if isinstance(filt, BiquadCoefficients):
        return (filt,)
    sections = tuple(filt)
    if not sections or not all(isinstance(s, BiquadCoefficients) for s in sections):
        raise ValueError("expected a BiquadCoefficients or a non-empty sequence of them")
    return sections


def frequency_response(
    filt: BiquadCoefficients | Sequence[BiquadCoefficients],
    frequency_hz: float,
    sample_rate_hz: float,
) -> complex:
    """Evaluate the cascade transfer function on the unit circle at one frequency."""
    w = 2.0 * math.pi * frequency_hz / sample_rate_hz
    e1 = cmath.exp(-1j * w)
    e2 = e1 * e1
    h = complex(1.0, 0.0)
    for c in _as_sections(filt):
        h *= (c.b0 + c.b1 * e1 + c.b2 * e2) / (1.0 + c.a1 * e1 + c.a2 * e2)
    return h
