"""The three benchmark workloads: seeded inputs, one timed pass, and the gate.

Every workload is a closed loop with one caller: the next pass starts only
after the previous one returned. A pass is one operation for `error_rate`:
one `stillwatch.cli.main` call for the two file workloads, one streamed
session for `stream_ticks`.

Inputs come from the seed alone. `detect_file` and `stream_ticks` signals are
drawn with numpy, never with `stillwatch.sim`, so a change to the simulator
cannot change them; `sim_closed_loop` is a scenario file.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stillwatch import cli
from stillwatch import io as formats
from stillwatch.counts import CountsConfig, CountsPipeline, RawSample
from stillwatch.detector import DetectorConfig
from stillwatch.device import Device, DeviceConfig
from stillwatch.sim import ScenarioSampler
from stillwatch.sim import run as simulate

import oracle

FS = 100.0


@dataclass
class Pass:
    """One timed operation: wall time, samples handled, its output or error."""

    seconds: float
    samples: int
    output: object = None
    error: str | None = None
    latencies_ns: array | None = None


def _scripted_presses(rng, n_ticks: int, toggles: int, select_triples: int):
    """Sorted (tick, button) presses: red toggles, and selects in threes a few
    seconds apart, so the shortest inactivity option is back in force soon."""
    presses = {}
    while len(presses) < toggles:
        presses[int(rng.integers(100, n_ticks - 100))] = "red"
    for _ in range(select_triples):
        tick = int(rng.integers(100, n_ticks - 1000))
        for step in range(3):
            presses[tick + step * int(rng.integers(100, 300))] = "select"
    return sorted(presses.items())


def _option_changes(presses, device_cfg: DeviceConfig, tick_seconds: float):
    """(tick, inactivity_ticks) for each select press, cycling the three options."""
    changes, option = [], 0
    for tick, button in presses:
        if button == "select":
            option = (option + 1) % 3
            changes.append((tick, round(device_cfg.inactivity_options[option] / tick_seconds)))
    return changes


def _option_column(presses, n: int) -> np.ndarray:
    col = np.zeros(n, dtype=np.int64)
    option = 0
    for tick, button in presses:
        if button == "select":
            option = (option + 1) % 3
            col[tick:] = option
    return col


def _check_events(got, want, what: str) -> list[str]:
    if got is None:
        return [f"{what}: malformed event output"]
    if got != want:
        i = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
        return [f"{what}: event {i} is {got[i:i + 1]}, the arithmetic scan has {want[i:i + 1]} "
                f"({len(got)} events against {len(want)})"]
    return []


def _count(problems: list[str], bad: int, what: str) -> None:
    if bad:
        problems.append(f"{bad} {what} outside the oracle tolerance")


class Workload:
    name = ""

    def __init__(self, work_dir: Path, seed: int, tiny: bool):
        self.work_dir = work_dir
        self.seed = seed
        self.tiny = tiny
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.counts_cfg = CountsConfig()
        self.detector_cfg = DetectorConfig()
        self.device_cfg = DeviceConfig()
        self.first = None
        self.exact: dict = {}
        self.properties: dict = {}
        self.bytes_in = 0

    def compare(self, result: Pass) -> str | None:
        """Cheap per-pass gate: the pass must not fail and must reproduce the
        first pass's output exactly (the same seed gives the same bytes)."""
        if result.error is not None:
            return result.error
        if self.first is None:
            self.first = result.output
            return None
        if not self.same(result.output, self.first):
            return "output differs from the first pass of the same seed"
        return None

    def verify_first(self) -> list[str]:
        """Full gate on the first output against the independent oracles;
        run once, after timing, since every other pass must equal it."""
        if self.first is None:
            return []
        problems, self.exact, self.properties = self.verify(self.first)
        return problems

    def same(self, a, b) -> bool:
        return a == b

    def operate(self) -> None:
        """The program's work for one pass and nothing of the benchmark's own:
        here one `stillwatch` command. Raises if the command fails."""
        code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"stillwatch {self.argv[0]} exited {code}")

    def _device_scan(self, vm, presses):
        """Events a `Device` with the default options should emit for `vm`."""
        tick = self.detector_cfg.tick_seconds
        return oracle.event_scan(
            np.asarray(vm) > self.detector_cfg.count_threshold,
            round(self.device_cfg.inactivity_options[0] / tick),
            round(self.device_cfg.vibration_seconds / tick),
            _option_changes(presses, self.device_cfg, tick),
        )

    @staticmethod
    def _exact(events, motor_on_ticks: int, presses: int) -> dict:
        return {
            "detector.events": len(events),
            "detector.vib_starts": sum(1 for _, kind in events if kind == "vib_start"),
            "device.motor_on_ticks": motor_on_ticks,
            "device.button_presses": presses,
        }


class SimClosedLoop(Workload):
    """`stillwatch simulate`: scenario file in, 14-column trace and events out."""

    name = "sim_closed_loop"

    def prepare(self) -> None:
        duration = 20.0 if self.tiny else 90.0
        self.n = int(duration * FS)
        self.presses = _scripted_presses(self.rng, self.n, 2 if self.tiny else 4, 1)
        text = self._scenario_text(duration)
        path = self.work_dir / "scenario.txt"
        path.write_text(text, encoding="utf-8")
        self.bytes_in = len(text.encode())
        self.trace_path = self.work_dir / "trace.csv"
        self.events_path = self.work_dir / "events.csv"
        self.argv = ["simulate", str(path), "-o", str(self.trace_path),
                     "--events", str(self.events_path)]

    def _scenario_text(self, duration: float) -> str:
        """Mostly rest, with bursts, single-axis sines and one ambient-vibration
        segment; motor feedback on; boundaries on a 0.5 s grid."""
        rng = self.rng
        halves = int(duration * 2)
        segments, h, moving = [], 0, False
        while h < halves:
            if moving:
                kind = "burst" if rng.random() < 0.6 else "sine"
                length = int(rng.integers(6, 16))
            else:
                kind, length = "rest", int(rng.integers(40, 100))
            end = min(h + length, halves)
            segments.append((kind, h / 2, end / 2))
            h, moving = end, not moving
        # One rest in the middle becomes ambient vibration (the wearer sits still).
        rests = [i for i, s in enumerate(segments) if s[0] == "rest" and i > 0] or [0]
        i = rests[len(rests) // 2]
        segments[i] = ("ambient",) + segments[i][1:]
        lines = ["[scenario]", f"duration_seconds = {duration!r}", f"seed = {self.seed}",
                 "noise_sigma_g = 0.003"]
        for kind, start, end in segments:
            lines += ["", "[segment]", f"kind = {kind}", f"start = {start!r}", f"end = {end!r}"]
            if kind == "burst":
                lines += [f"amplitude_g = {float(rng.uniform(2.5, 4.0))!r}",
                          f"center_frequency_hz = {float(rng.uniform(0.7, 1.5))!r}"]
            elif kind == "sine":
                lines += [f"axis = {'xyz'[int(rng.integers(3))]}",
                          f"amplitude_g = {float(rng.uniform(1.5, 3.0))!r}",
                          f"frequency_hz = {float(rng.uniform(0.5, 1.4))!r}"]
            elif kind == "ambient":
                lines += [f"amplitude_g = {float(rng.uniform(0.1, 0.3))!r}",
                          f"frequency_hz = {float(rng.uniform(8.0, 15.0))!r}"]
        lines += ["", "[motor_feedback]", "enabled = true", "amplitude_g = 0.5",
                  "frequency_hz = 20.0"]
        for tick, button in self.presses:
            lines += ["", "[button]", f"t = {tick / FS!r}", f"button = {button}"]
        return "\n".join(lines) + "\n"

    def run_pass(self) -> Pass:
        t0 = time.perf_counter()
        self.operate()
        seconds = time.perf_counter() - t0
        output = (self.trace_path.read_bytes(), self.events_path.read_bytes())
        return Pass(seconds, self.n, output)

    def verify(self, output):
        trace_bytes, events_bytes = output
        problems: list[str] = []
        # Full-precision values of the same run; the CSV holds 9 digits.
        scenario_text = (self.work_dir / "scenario.txt").read_text(encoding="utf-8")
        scenario = formats.parse_scenario(scenario_text)
        trace = simulate(scenario)
        table = np.loadtxt(trace_bytes.decode().splitlines()[1:], delimiter=",", ndmin=2)
        if table.shape != (len(trace), 14) or len(trace) != self.n:
            return [f"trace has shape {table.shape}, expected ({self.n}, 14)"], {}, {}
        columns = ("t", "ax", "ay", "az", "vm", "sx", "sy", "sz", "timer",
                   "motor", "white", "blue", "red", "option")
        for j, name in enumerate(columns):
            _count(problems, oracle.mismatches(table[:, j], getattr(trace, name), 1e-8),
                   f"trace CSV {name} values")
        if not np.array_equal(trace.t, np.arange(self.n) / FS):
            problems.append("trace times are off the sample grid")
        xyz = np.column_stack([trace.ax, trace.ay, trace.az])
        sections = CountsPipeline.from_spec().sections
        vm, sums, filtered = oracle.offline_counts(xyz, sections, self.counts_cfg)
        _count(problems, oracle.mismatches(trace.vm, vm), "VM counts")
        _count(problems, oracle.mismatches(np.column_stack([trace.sx, trace.sy, trace.sz]), sums),
               "epoch sums")
        want = self._device_scan(trace.vm, self.presses)
        got = oracle.parse_event_csv(events_bytes.decode(), FS)
        problems += _check_events(got, want, "events CSV")
        motor = oracle.motor_mask(want, self.n)
        if not np.array_equal(trace.motor, motor):
            problems.append("motor column disagrees with the scanned vibrations")
        sampler = ScenarioSampler(scenario, FS)
        motor_off = np.array([(s.ax, s.ay, s.az) for s in map(sampler.sample, range(self.n))])
        feedback = scenario.motor_feedback
        bad = oracle.feedback_mismatches(xyz, motor_off, motor, trace.t, feedback.amplitude_g,
                                         feedback.frequency_hz)
        if bad:
            problems.append(f"motor feedback tone wrong on {bad} ticks (it must follow the "
                            "motor state of the tick before)")
        if not np.array_equal(trace.option, _option_column(self.presses, self.n)):
            problems.append("option column disagrees with the scripted select presses")
        props = oracle.input_properties(vm, filtered, want, self.counts_cfg,
                                        self.detector_cfg.count_threshold, motor,
                                        len(self.presses))
        exact = self._exact(got or [], int(trace.motor.sum()), len(self.presses))
        exact["io.bytes_in"] = self.bytes_in
        exact["io.bytes_out"] = len(trace_bytes) + len(events_bytes)
        return problems, exact, props


class DetectFile(Workload):
    """`stillwatch detect`: a long numpy-made sample CSV in, events out."""

    name = "detect_file"

    def prepare(self) -> None:
        self.n = 2000 if self.tiny else 15000
        self.xyz = self._walking(self.n)
        t = np.arange(self.n) / FS
        rows = [f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in
                zip(t.tolist(), *self.xyz.T.tolist())]
        text = "t,ax,ay,az\n" + "\n".join(rows) + "\n"
        path = self.work_dir / "samples.csv"
        path.write_text(text, encoding="utf-8")
        self.bytes_in = len(text.encode())
        self.events_path = self.work_dir / "events.csv"
        self.argv = ["detect", str(path), "-o", str(self.events_path)]

    def _walking(self, n: int) -> np.ndarray:
        """Dense walking-like movement: strides with a harmonic on every axis,
        split by pauses of 2-15 s (only the long ones end in a vibration)."""
        rng = self.rng
        xyz = rng.normal(0.0, 0.003, (n, 3))
        xyz[:, 2] += 1.0
        k = 0
        while k < n:
            walk = int(rng.integers(3000, 9000))
            stop = min(n, k + walk)
            t = np.arange(stop - k) / FS
            stride = rng.uniform(0.8, 1.4)
            swell = 1.0 + 0.2 * np.sin(2 * np.pi * rng.uniform(0.02, 0.1) * t)
            for axis in range(3):
                amp = rng.uniform(2.0, 3.0)
                phase = rng.uniform(0, 2 * np.pi, 2)
                xyz[k:stop, axis] += amp * swell * (
                    np.sin(2 * np.pi * stride * t + phase[0])
                    + 0.3 * np.sin(4 * np.pi * stride * t + phase[1])
                ) + rng.normal(0.0, 0.02, stop - k)
            k = stop + int(rng.integers(200, 1500))
        return xyz

    def run_pass(self) -> Pass:
        t0 = time.perf_counter()
        self.operate()
        seconds = time.perf_counter() - t0
        return Pass(seconds, self.n, self.events_path.read_bytes())

    def verify(self, output):
        problems: list[str] = []
        # The run's own VM stream, at full precision (the CLI writes only events).
        pipeline = CountsPipeline.from_spec()
        vms, sums = np.empty(self.n), np.empty((self.n, 3))
        for k, row in enumerate(self.xyz.tolist()):
            vms[k] = pipeline.process_sample(RawSample(k / FS, *row)).value
            sums[k] = pipeline.epoch_sums
        vm, ref_sums, filtered = oracle.offline_counts(self.xyz, pipeline.sections,
                                                       self.counts_cfg)
        _count(problems, oracle.mismatches(vms, vm), "VM counts")
        _count(problems, oracle.mismatches(sums, ref_sums), "epoch sums")
        cfg = self.detector_cfg
        want = oracle.event_scan(vms > cfg.count_threshold, cfg.inactivity_ticks,
                                 cfg.vibration_ticks)
        got = oracle.parse_event_csv(output.decode(), FS)
        problems += _check_events(got, want, "events CSV")
        props = oracle.input_properties(vm, filtered, want, self.counts_cfg,
                                        self.detector_cfg.count_threshold)
        exact = self._exact(got or [], 0, 0)
        exact["io.bytes_in"] = self.bytes_in
        exact["io.bytes_out"] = len(output)
        return problems, exact, props


@dataclass(eq=False)
class StreamOutput:
    vm: array
    sums: array
    motor: bytearray
    events: list


class StreamTicks(Workload):
    """On-watch use: pre-built samples fed one at a time to
    `CountsPipeline.process_sample` then `Device.tick`, with button presses."""

    name = "stream_ticks"

    def prepare(self) -> None:
        self.n = 3000 if self.tiny else 6000
        self.xyz = self._desk_session(self.n)
        self.samples = [RawSample(k / FS, *row) for k, row in enumerate(self.xyz.tolist())]
        self.presses = _scripted_presses(self.rng, self.n, 1 if self.tiny else 4,
                                         1 if self.tiny else 2)

    def _desk_session(self, n: int) -> np.ndarray:
        """Long rests (noise far below the dead-band, so epochs stay at exact
        zero) with sparse short movements, some too weak to reset the timer."""
        rng = self.rng
        gravity = rng.normal(0.0, 0.2, 3) + np.array([0.0, 0.0, 1.0])
        xyz = gravity / np.linalg.norm(gravity) + rng.normal(0.0, 0.003, (n, 3))
        k = int(rng.integers(300, 2000))
        while k < n:
            strong = rng.random() < 0.5
            length = min(n - k, int(rng.integers(150, 400) if strong else rng.integers(50, 200)))
            u = np.arange(length) / length
            envelope = 0.5 - 0.5 * np.cos(2 * np.pi * u)
            tone = np.sin(2 * np.pi * rng.uniform(0.6, 1.6) * np.arange(length) / FS)
            for axis in np.flatnonzero(rng.random(3) < 0.6):
                amp = rng.uniform(2.5, 4.0) if strong else rng.uniform(0.2, 1.0)
                xyz[k:k + length, axis] += amp * envelope * tone
            k += length + int(rng.integers(1200, 3500))
        return xyz

    def operate(self) -> None:
        """One session streamed with nothing recorded, for the memory figure."""
        presses = dict(self.presses)
        pipeline = CountsPipeline.from_spec()
        device = Device()
        for k, sample in enumerate(self.samples):
            button = presses.get(k)
            if button is not None:
                device.press_button(button, sample.t)
            device.tick(pipeline.process_sample(sample).value, sample.t)

    def run_pass(self) -> Pass:
        samples, n = self.samples, self.n
        presses = dict(self.presses)
        pipeline = CountsPipeline.from_spec()
        device = Device()
        vm, sums, motor, lat = array("d"), array("d"), bytearray(n), array("q")
        clock = time.perf_counter_ns
        t0 = time.perf_counter()
        for k, sample in enumerate(samples):
            button = presses.get(k)
            if button is not None:
                device.press_button(button, sample.t)
            start = clock()
            count = pipeline.process_sample(sample)
            snap = device.tick(count.value, sample.t)
            lat.append(clock() - start)
            vm.append(count.value)
            sums.extend(pipeline.epoch_sums)
            motor[k] = snap.motor
        seconds = time.perf_counter() - t0
        events = [(round(e.t * FS), e.kind) for e in device.events]
        return Pass(seconds, n, StreamOutput(vm, sums, motor, events), latencies_ns=lat)

    def same(self, a: StreamOutput, b: StreamOutput) -> bool:
        return a.vm == b.vm and a.sums == b.sums and a.motor == b.motor and a.events == b.events

    def verify(self, output: StreamOutput):
        problems: list[str] = []
        vms = np.frombuffer(output.vm, dtype=float)
        sums = np.frombuffer(output.sums, dtype=float).reshape(-1, 3)
        sections = CountsPipeline.from_spec().sections
        vm, ref_sums, filtered = oracle.offline_counts(self.xyz, sections, self.counts_cfg)
        _count(problems, oracle.mismatches(vms, vm), "VM counts")
        _count(problems, oracle.mismatches(sums, ref_sums), "epoch sums")
        want = self._device_scan(vms, self.presses)
        problems += _check_events(output.events, want, "device events")
        motor = oracle.motor_mask(want, self.n)
        motor_out = np.frombuffer(output.motor, dtype=np.uint8).astype(bool)
        if not np.array_equal(motor_out, motor):
            problems.append("motor states disagree with the scanned vibrations")
        props = oracle.input_properties(vm, filtered, want, self.counts_cfg,
                                        self.detector_cfg.count_threshold, motor,
                                        len(self.presses))
        exact = self._exact(output.events, int(motor_out.sum()), len(self.presses))
        exact["io.bytes_in"] = exact["io.bytes_out"] = 0
        return problems, exact, props


WORKLOADS = {w.name: w for w in (SimClosedLoop, DetectFile, StreamTicks)}


def figure3_problems(root: Path, work_dir: Path) -> list[str]:
    """`stillwatch figure3` events must equal the committed reference file."""
    out = work_dir / "figure3"
    code = cli.main(["figure3", "-o", str(out)])
    if code != 0:
        return [f"stillwatch figure3 exited {code}"]
    got = (out / "figure3_events.csv").read_bytes()
    want = (root / "tests" / "data" / "figure3_events.csv").read_bytes()
    return [] if got == want else ["figure3 events differ from tests/data/figure3_events.csv"]
