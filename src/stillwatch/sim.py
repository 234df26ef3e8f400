"""Deterministic scenario simulation.

A scenario is a timeline of signal segments (rest, single-axis sine, enveloped
movement burst, ambient vibration) plus optional motor feedback and scripted
button presses. Gravity of 1 g sits on the Z axis throughout, and seeded
Gaussian sensor noise is added to every sample.

Motor feedback closes the loop: whenever the watch motor was on at the
previous tick, the configured vibration tone is added to all three axes of
the next sample. The band-pass filter has to strip that tone for the watch to
behave identically with and without feedback.

Determinism: noise is drawn in blocks of 256 ticks. Block b is
`numpy.random.default_rng((seed, b)).normal(0, sigma, (256, 3))` and tick k
takes row k % 256 of block k // 256, the block index serving as the counter
of a counter-keyed generator. A sample therefore depends only on the
scenario, the seed, the tick and the motor state, never on query order or
scenario length, and one generator serves 256 ticks instead of one.

`_run_blocks` advances the watch a chunk of ticks at a time, each chunk
ending at the first tick where the motor could turn on or off, so the feedback
is the same on every sample of a chunk. The chunk's samples are synthesized as
arrays, counted by `CountsPipeline.process_block` and fed to the watch's
detector by `InactivityDetector.process_block`; the LED and timer columns
follow from whole-tick arithmetic. Each chunk is yielded as a trace of its
own, so a writer holds one chunk, whatever the scenario's length; `run`
gathers them into one whole trace. Each column is bit for bit what the watch
gives one tick at a time: `ScenarioSampler.sample`, which is one row of the
same synthesis, then `process_sample`, then `Device.tick`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Literal, get_args

import numpy as np

from ._checks import finite, shown
from .counts import CountsConfig, CountsPipeline, RawSample
from .detector import DetectorConfig, DetectorEvent
from .device import Button, Device, DeviceConfig
from .filters import _STOCK_ORDER, FilterSpec, design_bandpass_cascade

__all__ = [
    "Axis",
    "Rest",
    "SineMovement",
    "BurstMovement",
    "AmbientVibration",
    "Segment",
    "MotorFeedback",
    "ButtonPress",
    "Scenario",
    "ScenarioSampler",
    "SimulationTrace",
    "TRACE_COLUMNS",
    "ConfigFile",
    "run",
    "canonical_scenario",
]

Axis = Literal["x", "y", "z"]
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def _check_span(start: float, end: float) -> None:
    if not (finite(start) and finite(end) and 0.0 <= start < end):
        span = f"[{shown(start, str)}, {shown(end, str)})"
        raise ValueError(f"segment must satisfy 0 <= start < end, got {span}")


def _check_tone(amplitude_g: float, frequency_hz: float) -> None:
    if not (finite(amplitude_g) and amplitude_g >= 0.0):
        raise ValueError(f"amplitude_g must be nonnegative, got {shown(amplitude_g)}")
    if not (finite(frequency_hz) and frequency_hz > 0.0):
        raise ValueError(f"frequency_hz must be positive, got {shown(frequency_hz)}")


@dataclass(frozen=True, slots=True)
class Rest:
    """No movement: gravity only (plus sensor noise)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        _check_span(self.start, self.end)


@dataclass(frozen=True, slots=True)
class SineMovement:
    """Steady sinusoidal movement on one axis, phase starting at the segment."""

    start: float
    end: float
    axis: Axis
    amplitude_g: float
    frequency_hz: float

    def __post_init__(self) -> None:
        _check_span(self.start, self.end)
        if self.axis not in _AXIS_INDEX:
            raise ValueError(f"axis must be one of x, y, z, got {self.axis!r}")
        _check_tone(self.amplitude_g, self.frequency_hz)


@dataclass(frozen=True, slots=True)
class BurstMovement:
    """A movement episode on all axes: a raised-cosine envelope over the segment."""

    start: float
    end: float
    amplitude_g: float
    center_frequency_hz: float

    def __post_init__(self) -> None:
        _check_span(self.start, self.end)
        _check_tone(self.amplitude_g, self.center_frequency_hz)


@dataclass(frozen=True, slots=True)
class AmbientVibration:
    """Continuous environmental vibration tone on all axes (e.g. a rolling chair)."""

    start: float
    end: float
    amplitude_g: float
    frequency_hz: float

    def __post_init__(self) -> None:
        _check_span(self.start, self.end)
        _check_tone(self.amplitude_g, self.frequency_hz)


Segment = Rest | SineMovement | BurstMovement | AmbientVibration


@dataclass(frozen=True, slots=True)
class MotorFeedback:
    """Vibration tone fed back into the sensor while the motor runs."""

    enabled: bool = False
    amplitude_g: float = 0.5
    frequency_hz: float = 20.0

    def __post_init__(self) -> None:
        _check_tone(self.amplitude_g, self.frequency_hz)


@dataclass(frozen=True, slots=True)
class ButtonPress:
    t: float
    button: Button

    def __post_init__(self) -> None:
        choices = get_args(Button)
        if self.button not in choices:
            raise ValueError(f"button must be one of {', '.join(choices)}, got {self.button!r}")


@dataclass(frozen=True, slots=True)
class Scenario:
    """A reproducible simulation input: segments tiling [0, duration], a seed,
    optional motor feedback and scripted button presses."""

    duration_seconds: float
    seed: int = 0
    segments: tuple[Segment, ...] = ()
    motor_feedback: MotorFeedback = field(default_factory=MotorFeedback)
    button_presses: tuple[ButtonPress, ...] = ()
    noise_sigma_g: float = 0.003

    def __post_init__(self) -> None:
        if not (finite(self.duration_seconds) and self.duration_seconds >= 0.0):
            raise ValueError(f"duration_seconds must be >= 0, got {shown(self.duration_seconds)}")
        # Exactly an int: `serialize_scenario` would write a bool seed as `True`.
        if not (type(self.seed) is int and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {shown(self.seed)}")
        if not (finite(self.noise_sigma_g) and self.noise_sigma_g >= 0.0):
            raise ValueError(f"noise_sigma_g must be >= 0, got {shown(self.noise_sigma_g)}")
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "button_presses", tuple(self.button_presses))
        if self.duration_seconds == 0.0:
            if self.segments:
                raise ValueError("a zero-duration scenario cannot have segments")
        else:
            if not self.segments:
                raise ValueError("segments must tile [0, duration]; none given")
            if self.segments[0].start != 0.0:
                raise ValueError(
                    f"first segment must start at 0, got {self.segments[0].start}"
                )
            for a, b in zip(self.segments, self.segments[1:]):
                if a.end != b.start:
                    raise ValueError(
                        f"segments must tile without gaps or overlap: "
                        f"[..., {a.end}) then [{b.start}, ...)"
                    )
            if self.segments[-1].end != self.duration_seconds:
                raise ValueError(
                    f"last segment ends at {self.segments[-1].end}, "
                    f"expected {self.duration_seconds}"
                )
        for press in self.button_presses:
            if not (0.0 <= press.t < self.duration_seconds):
                raise ValueError(
                    f"button press at t={press.t} is outside [0, {self.duration_seconds})"
                )


def _map(func, values: np.ndarray) -> np.ndarray:
    """`func` of each value, through `math` rather than numpy: numpy's sine and
    cosine may differ in the last bit from host to host."""
    return np.fromiter(map(func, values.tolist()), float, len(values))


def _segment_rows(segment: Segment, t: np.ndarray, xyz: np.ndarray) -> None:
    """The segment's movement (gravity and noise excluded) at each time of `t`,
    into the (n, 3) array `xyz`, which holds zeros; a Rest leaves them."""
    if isinstance(segment, Rest):
        return
    local = t - segment.start
    if isinstance(segment, BurstMovement):
        u = local / (segment.end - segment.start)
        envelope = 0.5 - 0.5 * _map(math.cos, 2.0 * math.pi * u)
        value = (segment.amplitude_g * envelope
                 * _map(math.sin, 2.0 * math.pi * segment.center_frequency_hz * local))
    else:
        value = segment.amplitude_g * _map(math.sin, 2.0 * math.pi * segment.frequency_hz * local)
    if isinstance(segment, SineMovement):
        xyz[:, _AXIS_INDEX[segment.axis]] = value
    else:
        xyz[:] = value[:, None]


# Ticks per noise block. Part of the definition of the noise, not a setting:
# changing it changes every noisy sample.
_NOISE_BLOCK = 256

# Most ticks `run` advances at once, lines `cli._count_file` reads at a time,
# and rows `io._csv_blocks` decides its constant columns over: memory for
# one block's arrays. The writer stages and formats a sub-block of its rows
# at a time.
_BLOCK_ROWS = 1024


class ScenarioSampler:
    """Sample generator for one scenario at a fixed rate."""

    def __init__(self, scenario: Scenario, sample_rate_hz: float = CountsConfig().sample_rate_hz):
        if not (finite(sample_rate_hz) and sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be positive, got {shown(sample_rate_hz)}")
        nyquist = sample_rate_hz / 2.0
        for segment in scenario.segments:
            freq = getattr(segment, "frequency_hz", None) or getattr(
                segment, "center_frequency_hz", None
            )
            if freq is not None and freq >= nyquist:
                raise ValueError(
                    f"segment frequency {freq} Hz is not below the Nyquist "
                    f"frequency {nyquist} Hz"
                )
        if scenario.motor_feedback.enabled and scenario.motor_feedback.frequency_hz >= nyquist:
            raise ValueError(
                f"motor feedback frequency {scenario.motor_feedback.frequency_hz} Hz "
                f"is not below the Nyquist frequency {nyquist} Hz"
            )
        ticks = scenario.duration_seconds * sample_rate_hz
        if not finite(ticks) or abs(ticks - round(ticks)) > 1e-9:
            raise ValueError(
                f"duration {scenario.duration_seconds} s is not a whole number of "
                f"samples at {sample_rate_hz} Hz"
            )
        self.scenario = scenario
        self.sample_rate_hz = sample_rate_hz
        self.n_ticks = int(round(ticks))
        # The buttons pressed at each tick, in time order: a press takes effect
        # at the first tick k with t <= k / rate + 1e-9. The estimate from the
        # product is at most one tick high, so the walk starts a tick below it.
        self.presses: dict[int, list[Button]] = {}
        for press in sorted(scenario.button_presses, key=lambda p: p.t):
            k = max(0, math.ceil((press.t - 1e-9) * sample_rate_hz) - 1)
            while press.t > k / sample_rate_hz + 1e-9:
                k += 1
            if k >= self.n_ticks:
                last = (self.n_ticks - 1) / sample_rate_hz
                raise ValueError(
                    f"button press at t={press.t} comes after the last tick, at t={last}"
                )
            self.presses.setdefault(k, []).append(press.button)
        self._starts = np.array([segment.start for segment in scenario.segments])
        # The one noise block held: its index and its rows, drawn on first use.
        self._block_index = -1
        self._block = np.empty((0, 3))

    def sample(self, k: int, motor_on: bool = False) -> RawSample:
        """The raw sample at tick k, 0 <= k < n_ticks; motor_on is the motor state
        one tick earlier."""
        if not self.scenario.segments or not (0 <= k < self.n_ticks):
            raise ValueError(f"tick {k} outside scenario of {self.n_ticks} ticks")
        return RawSample(*self._rows(k, k + 1, motor_on)[0].tolist())

    def _noise(self, b: int) -> np.ndarray:
        """Noise block b, (256, 3), held until another block is drawn."""
        if b != self._block_index:
            rng = np.random.default_rng((self.scenario.seed, b))
            self._block = rng.normal(0.0, self.scenario.noise_sigma_g, (_NOISE_BLOCK, 3))
            self._block_index = b
        return self._block

    def _rows(self, start: int, stop: int, motor_on: bool) -> np.ndarray:
        """The raw samples of ticks [start, stop), start < stop, as an (n, 4)
        array of t, ax, ay, az rows; motor_on is the motor state one tick
        before each. A row is its segment's movement, plus the sum of noise and
        gravity, plus the feedback tone while the motor is on."""
        rows = np.zeros((stop - start, 4))
        t = rows[:, 0] = np.arange(start, stop) / self.sample_rate_hz
        xyz = rows[:, 1:]
        first = int(self._starts.searchsorted(t[0], "right")) - 1
        last = int(self._starts.searchsorted(t[-1], "right"))
        ends = [*t.searchsorted(self._starts[first + 1:last]).tolist(), len(t)]
        lo = 0
        for segment, hi in zip(self.scenario.segments[first:last], ends):
            _segment_rows(segment, t[lo:hi], xyz[lo:hi])
            lo = hi
        if self.scenario.noise_sigma_g:
            offset = start % _NOISE_BLOCK
            blocks = range(start // _NOISE_BLOCK, (stop - 1) // _NOISE_BLOCK + 1)
            noise = np.concatenate([self._noise(b) for b in blocks])[offset:offset + len(t)]
        else:
            noise = np.zeros((len(t), 3))
        noise[:, 2] += 1.0  # gravity
        xyz += noise
        feedback = self.scenario.motor_feedback
        if motor_on and feedback.enabled:
            tone = feedback.amplitude_g * _map(math.sin, 2.0 * math.pi * feedback.frequency_hz * t)
            xyz += tone[:, None]
        return rows


def _column(dtype: type) -> Any:
    return field(metadata={"dtype": dtype})


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Per-tick record of a full closed-loop run, plus the detector events.

    Each array field is one trace column, in field order; its dtype is
    float64 unless the field's metadata names another.
    """

    t: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    vm: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    timer: np.ndarray
    motor: np.ndarray = _column(np.bool_)
    white: np.ndarray = _column(np.bool_)
    blue: np.ndarray = _column(np.bool_)
    red: np.ndarray = _column(np.bool_)
    option: np.ndarray = _column(np.int64)
    events: tuple[DetectorEvent, ...] = ()

    def __len__(self) -> int:
        return len(self.t)


# (name, dtype) of every trace column, in order.
TRACE_COLUMNS: tuple[tuple[str, type], ...] = tuple(
    (f.name, f.metadata.get("dtype", np.float64))
    for f in fields(SimulationTrace)
    if f.name != "events"
)


@dataclass(frozen=True, slots=True)
class ConfigFile:
    """Every tunable of the watch, each held once. The filter and the detector's
    tick take the counts sample rate, and `detector` is inactivity option 0,
    the one in force at power-on. Omitted fields keep their defaults."""

    low_cutoff_hz: float = FilterSpec().low_cutoff_hz
    high_cutoff_hz: float = FilterSpec().high_cutoff_hz
    filter_order: int = _STOCK_ORDER
    counts: CountsConfig = field(default_factory=CountsConfig)
    count_threshold: float = DetectorConfig().count_threshold
    device: DeviceConfig = field(default_factory=DeviceConfig)

    def __post_init__(self) -> None:
        # A failed check records the config section it is about, for a parser to blame.
        section = "filter"
        try:
            # checks the cutoffs against the rate, then the order and the design
            design_bandpass_cascade(self.filter_spec, self.filter_order)
            section = "detector"
            DetectorConfig(self.count_threshold)  # checks the threshold alone
            section = "device"
            Device(self.device, self.detector)  # checks the durations and flashes against the tick
        except ValueError as exc:
            exc.section = section
            raise

    @property
    def filter_spec(self) -> FilterSpec:
        return FilterSpec(self.counts.sample_rate_hz, self.low_cutoff_hz, self.high_cutoff_hz)

    @property
    def detector(self) -> DetectorConfig:
        tick = 1.0 / self.counts.sample_rate_hz
        return self.device.detector_configs(self.count_threshold, tick)[0]


def run(scenario: Scenario, config: ConfigFile | None = None) -> SimulationTrace:
    """Simulate the whole watch over a scenario and return its whole trace.
    Without a config, every tunable takes its default.

    The trace is `_run_blocks`' chunks, one after another, in arrays sized
    for the run (84 bytes per tick); a caller that writes the trace as it
    goes takes the chunks instead.
    """
    config = config or ConfigFile()
    n = ScenarioSampler(scenario, config.counts.sample_rate_hz).n_ticks
    trace = {name: np.empty(n, dtype) for name, dtype in TRACE_COLUMNS}
    events: list[DetectorEvent] = []
    k = 0
    for block in _run_blocks(scenario, config):
        for name, _ in TRACE_COLUMNS:
            trace[name][k:k + len(block)] = getattr(block, name)
        events += block.events
        k += len(block)
    return SimulationTrace(**trace, events=tuple(events))


def _run_blocks(scenario: Scenario, config: ConfigFile) -> Iterator[SimulationTrace]:
    """Simulate the whole watch over a scenario, one chunk of ticks at a time:
    each is yielded as a trace of its ticks and the events emitted in them.

    The motor's state at one tick drives the feedback on the next sample, so
    the loop runs in chunks that end where the motor could change: with the
    motor off, at the tick where the timer could first run out (movement only
    postpones it); with it on, at the tick where the vibration runs out, or
    at the first movement, which ends it sooner and cuts the chunk there. A
    chunk also ends before a button press and after `_BLOCK_ROWS` ticks. Each
    chunk is synthesized, counted and fed to the watch as arrays, so memory
    is that of one chunk, whatever the scenario's length.
    """
    sampler = ScenarioSampler(scenario, config.counts.sample_rate_hz)
    pipeline = CountsPipeline.from_spec(config.filter_spec, config.counts, config.filter_order)
    device = Device(config.device, config.detector)
    detector = device._detector

    n = sampler.n_ticks
    press_ticks = [*sorted(sampler.presses), n]
    k = p = 0
    motor = False  # at tick k - 1, so on the feedback of tick k
    while k < n:
        if press_ticks[p] == k:
            for button in sampler.presses[k]:
                device.press_button(button, k / sampler.sample_rate_hz)
            p += 1
        cfg = detector.cfg
        stop = min(press_ticks[p], k + _BLOCK_ROWS)
        if not device.power:
            stop = k + 1 if motor else stop  # the last tick's motor still feeds back once
        elif motor:
            stop = min(stop, detector.vibration_start_tick + cfg.vibration_ticks + 1)
        else:
            stop = min(stop, max(detector.last_reset_tick + cfg.inactivity_ticks, k) + 1)
        # The first row is the one whose motor state may differ from the row
        # before's. It is drawn by `sample`, the per-tick rule of which motor
        # state feeds which sample, so a fault planted there (perfbench's
        # late-tone gate test) reaches the trace. Drawn first, it leaves its
        # noise block held for `_rows`.
        first = sampler.sample(k, motor)
        rows = sampler._rows(k, stop, motor)
        rows[0] = first
        saved = pipeline._save() if motor and device.power else None
        vm, sums = pipeline.process_block(rows)
        if saved is not None:
            moved = np.flatnonzero(vm[:-1] > cfg.count_threshold)
            if len(moved):  # the vibration ends there: no feedback after it
                stop = k + int(moved[0]) + 1
                rows = rows[:stop - k]
                pipeline._restore(saved)
                vm, sums = pipeline.process_block(rows)
        watch = device._tick_block(vm, rows[:, 0])  # timer, motor, LEDs and option
        block = SimulationTrace(*rows.T, vm, *sums.T, *watch, events=tuple(device.events))
        device.events.clear()
        motor = bool(block.motor[-1])
        k = stop
        yield block
        del block, rows, vm, sums, watch  # not held while the next chunk is made


def canonical_scenario(
    duration_seconds: float = 30.0,
    seed: int = 1234,
    motor_feedback: MotorFeedback | None = None,
) -> Scenario:
    """The stock demonstration scenario: rest, one strong movement burst at
    5-8 s, then rest. With the default detector settings this produces one
    timer reset during the burst, a vibration 10 s after the movement dies
    down, and a 5 s vibration followed by a reset."""
    if duration_seconds < 10.0:
        raise ValueError("canonical scenario needs at least 10 s")
    return Scenario(
        duration_seconds=duration_seconds,
        seed=seed,
        segments=(
            Rest(0.0, 5.0),
            BurstMovement(5.0, 8.0, amplitude_g=3.0, center_frequency_hz=1.0),
            Rest(8.0, duration_seconds),
        ),
        motor_feedback=motor_feedback or MotorFeedback(),
    )
