import contextlib
import dataclasses
import gc
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stillwatch
from stillwatch import (
    ButtonPress,
    CountsPipeline,
    Device,
    InactivityDetector,
    MotorFeedback,
    RawSample,
    Scenario,
    ScenarioSampler,
    canonical_scenario,
    run,
)
from stillwatch import io as formats
from stillwatch import sim
from stillwatch.cli import main
from stillwatch.io import (
    TRACE_HEADER,
    ParseError,
    parse_config,
    parse_events,
    parse_samples,
    serialize_counts,
    serialize_events,
    serialize_samples,
    serialize_scenario,
)
from stillwatch.sim import TRACE_COLUMNS

from conftest import make_samples

GOLDEN_EVENTS = Path(__file__).parent / "data" / "figure3_events.csv"


def read_counts(path: Path) -> np.ndarray:
    """The rows of a counts CSV, t, vm, sx, sy, sz, as an (n, 5) array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_samples(path: Path) -> list[RawSample]:
    return [RawSample(*row) for row in parse_samples(path.read_text()).tolist()]


@pytest.fixture
def sample_file(tmp_path):
    rng = np.random.default_rng(61)
    n = 2000
    t = np.arange(n) / 100.0
    xyz = np.zeros((n, 3))
    movement = 2.5 * np.sin(2 * np.pi * 1.0 * t) * (t < 5.0)
    xyz += movement[:, None]
    xyz[:, 2] += 1.0 + rng.normal(0, 0.003, n)
    path = tmp_path / "samples.csv"
    path.write_text(serialize_samples(make_samples(xyz)), newline="\n")
    return path


@pytest.fixture
def refused_sample_file(tmp_path):
    """Parses cleanly, but the sample on line 3 is beyond the filters' input limit."""
    path = tmp_path / "huge.csv"
    path.write_text("t,ax,ay,az\n0,0,0,1\n0.01,1e306,0,1\n")
    return path


class TestDesignFilter:
    def test_prints_five_coefficients(self, capsys):
        assert main(["design-filter", "--fs", "100", "--low", "0.305", "--high", "1.615"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        fields = out[0].split(" ")
        assert len(fields) == 5
        values = [float(f) for f in fields]
        assert values[0] == pytest.approx(0.039549539044590194, rel=1e-15)
        assert values[1] == 0.0
        # 17 significant digits round-trip exactly
        assert float(fields[0]) == 0.039549539044590194

    def test_higher_order_prints_one_line_per_section(self, capsys):
        assert main(["design-filter", "--order", "4"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_bad_spec_exits_1(self, capsys):
        assert main(["design-filter", "--low", "2.0", "--high", "1.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["design-filter", "--ripple", "3"]) == 2


class TestCounts:
    def test_header_only_in_header_only_out(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("t,ax,ay,az\n")
        assert main(["counts", str(src)]) == 0
        assert capsys.readouterr().out == "t,vm,sx,sy,sz\n"

    def test_counts_to_file(self, sample_file, tmp_path):
        out = tmp_path / "counts.csv"
        assert main(["counts", str(sample_file), "-o", str(out)]) == 0
        rows = read_counts(out)
        assert rows.shape == (2000, 5)
        assert rows[:, 1].max() > 125.0

    def test_missing_file_exits_1(self, capsys):
        assert main(["counts", "no-such-file.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validation_error_carries_line(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("t,ax,ay,az\n0.0,0,0,oops\n")
        assert main(["counts", str(src)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_refused_sample_carries_line(self, refused_sample_file, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        assert main(["counts", str(refused_sample_file), "-o", str(out)]) == 1
        assert "error: line 3: sample at t=0.01 exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_time_is_written_0(self, tmp_path):
        src = tmp_path / "samples.csv"
        src.write_text("t,ax,ay,az\n-0.0,0,0,1\n0.01,2.5,0,1\n0.02,0,-2.5,1\n")
        out = tmp_path / "counts.csv"
        assert main(["counts", str(src), "-o", str(out)]) == 0
        pipeline = CountsPipeline.from_spec()
        rows = [(s.t, pipeline.process_sample(s).value, *pipeline.epoch_sums)
                for s in read_samples(src)]
        assert rows[0][0] == 0.0 and str(rows[0][0]) == "-0.0"
        assert out.read_text() == serialize_counts(rows)
        assert out.read_text().splitlines()[1].startswith("0,")

    def test_reruns_are_byte_identical(self, sample_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["counts", str(sample_file), "-o", str(out_a)]) == 0
        assert main(["counts", str(sample_file), "-o", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestDetect:
    def test_events_match_library_composition(self, sample_file, tmp_path):
        out = tmp_path / "events.csv"
        assert main(["detect", str(sample_file), "-o", str(out)]) == 0
        events_cli = parse_events(out.read_text())

        samples = read_samples(sample_file)
        pipeline = CountsPipeline.from_spec()
        detector = InactivityDetector()
        events_lib = []
        for s in samples:
            count = pipeline.process_sample(s)
            events_lib.extend(detector.tick(count.value, s.t).events)
        assert events_cli == events_lib
        assert [e.kind for e in events_cli][:2] == ["reset", "vib_start"]

    def test_config_override_changes_timing(self, sample_file, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("[device]\ninactivity_options = 3, 30, 60\n")
        out = tmp_path / "events.csv"
        assert main(["detect", str(sample_file), "--config", str(config), "-o", str(out)]) == 0
        events = parse_events(out.read_text())
        starts = [e.t for e in events if e.kind == "vib_start"]
        # the timer reference is the last super-threshold tick, not the
        # onset event; recover it from the counts
        samples = read_samples(sample_file)
        pipeline = CountsPipeline.from_spec()
        last_above = max(
            s.t for s in samples if pipeline.process_sample(s).value > 125.0
        )
        assert starts[0] == pytest.approx(last_above + 3.0, abs=0.011)

    def test_refused_sample_carries_line(self, refused_sample_file, tmp_path, capsys):
        out = tmp_path / "events.csv"
        assert main(["detect", str(refused_sample_file), "-o", str(out)]) == 1
        assert "error: line 3: sample at t=0.01 exceeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["counts", "detect"])
    def test_cr_only_line_ends_fail_at_line_1(self, command, tmp_path, capsys):
        # as parse_samples does: line ends reach it unchanged
        src = tmp_path / "cr.csv"
        src.write_bytes(b"t,ax,ay,az\r0,0,0,1\r0.01,0,0,1\r")
        assert main([command, str(src)]) == 1
        assert "error: line 1: expected header" in capsys.readouterr().err

    def test_cr_only_config_fails_at_line_1(self, sample_file, tmp_path, capsys):
        # read as one line, it is a comment, and the defaults would run
        config = tmp_path / "config.txt"
        config.write_bytes(b"# mine\r[detector]\rcount_threshold = 200\r")
        out = tmp_path / "events.csv"
        assert main(["detect", str(sample_file), "--config", str(config), "-o", str(out)]) == 1
        assert "line 1: line ends must be LF or CRLF" in capsys.readouterr().err
        assert not out.exists()


class TestBlockCounting:
    """`counts` and `detect` count the file in chunks of `_BLOCK_ROWS` lines, each
    as one block; a refused chunk is counted again line by line to name its line."""

    @pytest.fixture
    def late_refusal_file(self, tmp_path):
        """5,000 rows that parse cleanly; the one on line 4000 is beyond the
        filters' input limit."""
        xyz = np.random.default_rng(62).normal(0.0, 1.0, (5000, 3))
        xyz[3998, 1] = 1e306
        path = tmp_path / "late.csv"
        path.write_text(serialize_samples(make_samples(xyz)), newline="\n")
        return path

    @pytest.mark.parametrize("command", ["counts", "detect"])
    def test_late_refused_sample_carries_its_line(self, command, late_refusal_file, tmp_path,
                                                  capsys):
        out = tmp_path / "out.csv"
        assert main([command, str(late_refusal_file), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: line 4000: sample at t=39.98 exceeds")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["counts", "detect"])
    def test_a_valid_file_builds_no_raw_sample(self, command, sample_file, tmp_path,
                                               monkeypatch):
        def refuse(cls, *args):
            raise AssertionError("built a RawSample")

        monkeypatch.setattr(RawSample, "__new__", refuse)
        assert main([command, str(sample_file), "-o", str(tmp_path / "out.csv")]) == 0

    def test_detect_scans_blocks_without_a_tick(self, sample_file, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("called InactivityDetector.tick")

        monkeypatch.setattr(InactivityDetector, "tick", refuse)
        out = tmp_path / "out.csv"
        assert main(["detect", str(sample_file), "-o", str(out)]) == 0
        assert [e.kind for e in parse_events(out.read_text())][:2] == ["reset", "vib_start"]

    def test_late_refusal_prints_nothing_to_stdout(self, late_refusal_file, capsys):
        assert main(["counts", str(late_refusal_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 4000: sample at t=39.98 exceeds")

    @pytest.mark.parametrize("command", ["counts", "detect"])
    def test_invalid_utf8_in_the_header_is_line_1(self, command, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_bytes(b"t,ax,ay,a\xffz\n0,0,0,1\n")
        assert main([command, str(src)]) == 1
        assert capsys.readouterr().err == "error: line 1: not valid UTF-8: invalid start byte\n"

    @pytest.mark.parametrize("command", ["counts", "detect"])
    def test_invalid_utf8_in_a_late_chunk_names_its_line(self, command, late_refusal_file,
                                                         tmp_path, capsys):
        lines = late_refusal_file.read_bytes().split(b"\n")
        lines[3003] = lines[3003].replace(b",", b",\xc3", 1)  # line 3004, in the third chunk
        lines[3999] = b"39.98,0,0,1"  # line 4000's refusal goes
        src = tmp_path / "bad.csv"
        src.write_bytes(b"\n".join(lines))
        out = tmp_path / "out.csv"
        assert main([command, str(src), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: line 3004: not valid UTF-8: invalid continuation byte\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["counts", "detect"])
    def test_the_first_of_two_faults_wins(self, command, tmp_path, capsys):
        # A refused sample on line 3 comes before a word on line 6, in one chunk.
        src = tmp_path / "two.csv"
        src.write_text("t,ax,ay,az\n0,0,0,1\n0.01,1e306,0,1\n0.02,0,0,1\n"
                       "0.03,0,0,1\n0.04,oops,0,1\n")
        assert main([command, str(src)]) == 1
        assert capsys.readouterr().err.startswith("error: line 3: sample at t=0.01 exceeds")

    def test_counts_equal_the_streaming_rows(self, sample_file, tmp_path):
        out = tmp_path / "counts.csv"
        assert main(["counts", str(sample_file), "-o", str(out)]) == 0
        pipeline = CountsPipeline.from_spec()
        rows = [(s.t, pipeline.process_sample(s).value, *pipeline.epoch_sums)
                for s in read_samples(sample_file)]
        assert out.read_text() == serialize_counts(rows)

    def test_commands_do_not_import_scipy(self, sample_file, tmp_path):
        # README promises numpy as the only runtime dependency; scipy's import
        # alone would cost every command over a second.
        script = (
            "import sys\n"
            "from stillwatch.cli import main\n"
            "samples, out = sys.argv[1:]\n"
            "assert main(['counts', samples, '-o', out]) == 0\n"
            "assert main(['detect', samples, '-o', out]) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(stillwatch.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", script, str(sample_file),
                               str(tmp_path / "out.csv")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


# A detector that acts within a few rows: movement above 1 count resets a
# 0.03 s timer, whose alert lasts 0.02 s.
FAST_DETECTOR = (b"[device]\ninactivity_options = 0.03, 30, 60\nvibration_seconds = 0.02\n"
                 b"\n[detector]\ncount_threshold = 1\n")
HEADER = b"t,ax,ay,az"
FAULTS = {  # one line spoilt in each way: (t, a) -> the line's bytes
    "nan": lambda t, a: b"%r,nan,0,1" % t,
    "word": lambda t, a: b"%r,%r,oops,1" % (t, a),
    "over limit": lambda t, a: b"%r,1e306,0,1" % t,
    "off grid": lambda t, a: b"%r,%r,0,1" % (t + 0.004, a),
    "blank": lambda t, a: b"",
    "three fields": lambda t, a: b"%r,%r,1" % (t, a),
    "CR inside": lambda t, a: b"%r,%r\r%r,0,1" % (t, a, a),
    "not UTF-8": lambda t, a: b"%r,%r,0,1\xff" % (t, a),
}


def sample_bytes(amplitudes, faults=(), newline=b"\n", final_newline=True, header=HEADER):
    """A sample file: rows k of t = k / 100, axes (a, -a, 1 + a), some spoilt."""
    lines = [b"%r,%r,%r,%r" % (k / 100.0, a, -a, 1.0 + a) for k, a in enumerate(amplitudes)]
    for k, kind in faults:
        lines[k] = FAULTS[kind](k / 100.0, amplitudes[k])
    text = newline.join([header, *lines])
    return text + newline if final_newline else text


@st.composite
def chunked_files(draw):
    """(file bytes, number of faults): up to 20 rows, up to two spoilt lines, either
    line end, with or without a final newline, a blank last line or a bad header."""
    amplitudes = draw(st.lists(st.sampled_from([0.0, 0.2, 3.0]), max_size=20))
    faults = draw(st.lists(st.tuples(st.integers(0, max(len(amplitudes) - 1, 0)),
                                     st.sampled_from(sorted(FAULTS))),
                           max_size=2 if amplitudes else 0, unique_by=lambda f: f[0]))
    header = draw(st.sampled_from([HEADER] * 4 + [b"t,ax,ay", b"t,ax,ay,a\xffz"]))
    data = sample_bytes(amplitudes, faults, draw(st.sampled_from([b"\n", b"\r\n"])),
                        draw(st.booleans()), header)
    blank_last = draw(st.booleans()) and data.endswith(b"\n")
    return data + b"\n" * blank_last, len(faults) + blank_last + (header != HEADER)


def cli_outcome(command, src, config):
    """(exit code, output bytes or None, stdout, stderr) of one command."""
    out = src.with_suffix(".out")
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, str(src), "--config", str(config), "-o", str(out)])
    return code, out.read_bytes() if out.exists() else None, stdout.getvalue(), stderr.getvalue()


def whole_file_outcome(command, data, config):
    """`cli_outcome` composed from the library on the whole file at once: the
    file parsed as one text, then counted (and detected) row by row."""
    try:
        samples = parse_samples(data.decode()).tolist()
        pipeline = CountsPipeline.from_spec(config.filter_spec, config.counts,
                                            config.filter_order)
        detector = InactivityDetector(config.detector)
        rows, events = [], []
        for line, row in enumerate(samples, start=2):
            try:
                count = pipeline.process_sample(RawSample(*row))
            except ValueError as exc:
                raise ParseError(str(exc), line) from None
            rows.append((count.t, count.value, *pipeline.epoch_sums))
            events.extend(detector.tick(count.value, count.t).events)
    except ParseError as exc:
        return 1, None, "", f"error: {exc}\n"
    text = serialize_counts(rows) if command == "counts" else serialize_events(events)
    return 0, text.encode(), "", ""


class TestChunking:
    """Any chunk length, down to one line, gives what one line at a time gives:
    the same output bytes, or the same exit code and message."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("chunks")
        (work / "fast.cfg").write_bytes(FAST_DETECTOR)
        return work

    @settings(max_examples=40, deadline=None)
    @given(chunked_files())
    @example((b"", 1))
    @example((sample_bytes([0.0, 0.2], header=b"t,ax,ay"), 1))
    @example((HEADER + b"\n", 0))
    @example((HEADER, 0))
    @example((sample_bytes([0.2, 3.0, 0.0, 0.0, 3.0], newline=b"\r\n"), 0))
    @example((sample_bytes([3.0, 0.0, 0.0, 0.2], final_newline=False), 0))
    @example((sample_bytes([3.0, 0.0, 0.0, 0.2]) + b"\n", 1))
    @example((sample_bytes([3.0, 0.0, 0.0, 0.2, 0.0, 3.0], [(2, "off grid")]), 1))
    @example((sample_bytes([0.0] * 6, [(1, "over limit"), (4, "word")]), 2))
    @example((sample_bytes([0.0] * 6, [(1, "word"), (4, "blank")]), 2))
    def test_every_chunk_length_agrees(self, work, case):
        data, n_faults = case
        src = work / "samples.csv"
        src.write_bytes(data)
        config = parse_config(FAST_DETECTOR.decode())
        for command in ("counts", "detect"):
            with mock.patch.object(sim, "_BLOCK_ROWS", 1):
                want = cli_outcome(command, src, work / "fast.cfg")
            assert want[2] == ""
            for rows in range(2, data.count(b"\n") + 2):
                with mock.patch.object(sim, "_BLOCK_ROWS", rows):
                    assert cli_outcome(command, src, work / "fast.cfg") == want, rows
            # With one fault at most, the first bad line is the whole file's. A
            # file with a byte that is not UTF-8 has no whole text to compare.
            if n_faults <= 1 and b"\xff" not in data:
                assert want == whole_file_outcome(command, data, config)


class TestBoundedMemory:
    """The file commands hold one chunk at a time, so their peak does not grow
    with the file (tracemalloc: Python objects and numpy buffers)."""

    # Measured on these files: 6k rows peak at 0.52 MB (detect) and 0.65 MB
    # (counts), 60k rows 0.01 and 0.02 MB above that; counting the whole file
    # at once peaked at 1.2 and 11.5 MB (detect), 1.8 and 15.0 MB (counts).
    MARGIN_MB = 0.1

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("memory")
        rng = np.random.default_rng(63)
        paths = {}
        for n in (6_000, 60_000):
            xyz = rng.normal(0.0, 0.4, (n, 3))
            xyz[(np.arange(n) // 1500) % 2 == 1] = 0.0  # 15 s of rest in every 30 s
            paths[n] = work / f"samples_{n}.csv"
            paths[n].write_text(serialize_samples(make_samples(xyz)), newline="\n")
        return paths

    @staticmethod
    def peak_mb(argv):
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command", ["counts", "detect"])
    def test_peak_does_not_grow_with_the_file(self, command, files, tmp_path):
        short, long = (self.peak_mb([command, str(files[n]), "-o", str(tmp_path / "out.csv")])
                       for n in (6_000, 60_000))
        assert long < short + self.MARGIN_MB, (short, long)

    def test_simulate_holds_the_trace_arrays_and_one_block_of_text(self, tmp_path):
        # The trace record (84 B per tick) is all that grows. Measured: 30 s
        # peaks at 0.91 MB and 300 s at 3.08 MB, 84.1 B per extra tick; with
        # the trace's whole text held, as before, 1.04 and 6.54 MB (214 B).
        argv = {}
        for seconds in (30.0, 300.0):
            path = tmp_path / f"scenario_{seconds:g}.txt"
            path.write_text(serialize_scenario(canonical_scenario(seconds)))
            argv[seconds] = ["simulate", str(path), "-o", str(tmp_path / "trace.csv"),
                             "--events", str(tmp_path / "events.csv")]
        self.peak_mb(argv[30.0])  # first-use caches are not the trace's
        short, long = self.peak_mb(argv[30.0]), self.peak_mb(argv[300.0])
        per_tick = np.dtype(list(TRACE_COLUMNS)).itemsize
        assert long < short + (per_tick * 27_000) / 2**20 + self.MARGIN_MB, (short, long)


class TestSimulate:
    def test_trace_and_events_outputs(self, tmp_path):
        scenario_path = tmp_path / "scenario.txt"
        scenario_path.write_text(serialize_scenario(canonical_scenario()))
        trace_path = tmp_path / "trace.csv"
        events_path = tmp_path / "events.csv"
        assert main([
            "simulate", str(scenario_path),
            "-o", str(trace_path), "--events", str(events_path),
        ]) == 0
        assert trace_path.read_text().startswith("t,ax,ay,az,vm,sx,sy,sz,timer,")
        assert events_path.read_bytes() == GOLDEN_EVENTS.read_bytes()

    @pytest.mark.parametrize("events", [False, True])
    def test_stdout_gets_the_bytes_of_the_output_file(self, events, tmp_path, capsysbinary):
        scenario_path = tmp_path / "scenario.txt"
        scenario_path.write_text(serialize_scenario(canonical_scenario(12.0)))
        trace_path, events_path = tmp_path / "trace.csv", tmp_path / "events.csv"
        assert main(["simulate", str(scenario_path), "-o", str(trace_path),
                     "--events", str(events_path)]) == 0
        events_argv = ["--events", str(tmp_path / "stdout_events.csv")] if events else []
        assert main(["simulate", str(scenario_path), *events_argv]) == 0
        stdout = capsysbinary.readouterr().out
        assert stdout == trace_path.read_bytes()
        assert stdout.count(b"\n") == 1 + 1200  # the header, then two blocks of rows
        if events:
            assert (tmp_path / "stdout_events.csv").read_bytes() == events_path.read_bytes()

    def test_simulate_runs_blocks_without_a_tick(self, tmp_path, monkeypatch):
        scenario = dataclasses.replace(
            canonical_scenario(30.0, motor_feedback=MotorFeedback(True)),
            button_presses=(ButtonPress(12.0, "red"), ButtonPress(20.0, "select"),
                            ButtonPress(28.0, "power")),
        )
        scenario_path = tmp_path / "scenario.txt"
        scenario_path.write_text(serialize_scenario(scenario))

        def refuse(*args):
            raise AssertionError("ran a tick")

        for owner, name in ((CountsPipeline, "process_sample"), (Device, "tick")):
            monkeypatch.setattr(owner, name, refuse)
        # `sample` draws the first row of each chunk alone.
        sample, drawn = ScenarioSampler.sample, []

        def seam(self, k, motor_on=False):
            drawn.append(k)
            return sample(self, k, motor_on)

        monkeypatch.setattr(ScenarioSampler, "sample", seam)
        events = tmp_path / "events.csv"
        assert main(["simulate", str(scenario_path), "-o", str(tmp_path / "trace.csv"),
                     "--events", str(events)]) == 0
        kinds = [e.kind for e in parse_events(events.read_text())]
        assert kinds == ["reset", "vib_start", "vib_end", "reset"]
        # 3,000 ticks in 7 chunks, each ending at a press or a motor change.
        assert drawn == [0, 1001, 1200, 1769, 2000, 2269, 2800]

    def test_zero_duration_gives_the_header_alone(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.txt"
        scenario_path.write_text(serialize_scenario(Scenario(0.0, seed=1, segments=())))
        assert main(["simulate", str(scenario_path), "--events", str(tmp_path / "ev.csv")]) == 0
        assert capsys.readouterr().out == TRACE_HEADER + "\n"
        assert (tmp_path / "ev.csv").read_text() == "t,event\n"

    def test_scenario_parse_error_is_line_addressed(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[scenario]\nduration_seconds = ten\n")
        assert main(["simulate", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_simulate_agrees_with_counts_and_detect_composition(self, tmp_path):
        # without feedback the simulated raw stream is motor-independent, so
        # feeding it back through the batch commands must reproduce the run
        scenario = canonical_scenario()
        trace = run(scenario)
        sampler = ScenarioSampler(scenario, 100.0)
        samples = [sampler.sample(k) for k in range(sampler.n_ticks)]
        src = tmp_path / "samples.csv"
        src.write_text(serialize_samples(samples), newline="\n")
        counts_out = tmp_path / "counts.csv"
        events_out = tmp_path / "events.csv"
        assert main(["counts", str(src), "-o", str(counts_out)]) == 0
        assert main(["detect", str(src), "-o", str(events_out)]) == 0
        assert parse_events(events_out.read_text()) == list(trace.events)
        vm_cli = read_counts(counts_out)[:, 1]
        # counts CSV carries 9 significant digits
        assert np.allclose(vm_cli, trace.vm, rtol=1e-8, atol=1e-8)

    def test_detect_and_simulate_agree_on_the_device_durations(self, tmp_path):
        # The durations are set once, in [device]; `detect` runs option 0
        # with them, as the simulated watch does at power-on.
        config_path = tmp_path / "config.txt"
        config_path.write_text(
            "[device]\ninactivity_options = 20, 40, 60\nvibration_seconds = 2\n"
        )
        scenario = canonical_scenario(60.0)
        trace = run(scenario, parse_config(config_path.read_text()))
        columns = (trace.t, trace.ax, trace.ay, trace.az)
        samples = [RawSample(*row) for row in zip(*(c.tolist() for c in columns))]
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text(serialize_samples(samples), newline="\n")
        scenario_path = tmp_path / "scenario.txt"
        scenario_path.write_text(serialize_scenario(scenario))
        detected, simulated = tmp_path / "detected.csv", tmp_path / "simulated.csv"
        config = ["--config", str(config_path)]
        assert main(["detect", str(samples_path), *config, "-o", str(detected)]) == 0
        assert main(["simulate", str(scenario_path), *config, "-o", str(tmp_path / "trace.csv"),
                     "--events", str(simulated)]) == 0
        assert detected.read_bytes() == simulated.read_bytes()
        starts = [e for e in parse_events(detected.read_text()) if e.kind == "vib_start"]
        assert starts and starts[0].t == pytest.approx(27.68)


class TestTickOverflow:
    """Finite settings whose count of ticks overflows a float are refused as
    any other misfit is, not with a traceback. Each fails at construction,
    before any array is sized from it."""

    @pytest.mark.parametrize(
        "config,message",
        [
            ("[counts]\nepoch_seconds = 1e300\nsample_rate_hz = 1e10\n",
             "error: line 1: epoch_seconds * sample_rate_hz must be a positive integer, got inf"),
            ("[detector]\ncount_threshold = 100\n\n[device]\nblue_flash_period_seconds = 1e307\n",
             "error: line 4: blue_flash_period_seconds=1e+307 must be at least two 0.01 s ticks"),
        ],
        ids=["counts", "device"],
    )
    def test_config_fails_on_its_section_line(self, config, message, sample_file, tmp_path,
                                              capsys):
        path = tmp_path / "config.txt"
        path.write_text(config)
        out = tmp_path / "events.csv"
        assert main(["detect", str(sample_file), "--config", str(path), "-o", str(out)]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_scenario_duration_fails_in_simulate(self, tmp_path, capsys):
        path = tmp_path / "scenario.txt"
        path.write_text("[scenario]\nduration_seconds = 1e307\n\n"
                        "[segment]\nkind = rest\nstart = 0\nend = 1e307\n")
        assert main(["simulate", str(path), "-o", str(tmp_path / "trace.csv")]) == 1
        err = capsys.readouterr().err
        assert err == "error: duration 1e+307 s is not a whole number of samples at 100.0 Hz\n"


class TestFigure3:
    def test_writes_golden_event_sequence(self, tmp_path):
        out_dir = tmp_path / "fig"
        assert main(["figure3", "-o", str(out_dir)]) == 0
        assert (out_dir / "figure3_trace.csv").exists()
        assert (out_dir / "figure3_scenario.txt").exists()
        events = (out_dir / "figure3_events.csv").read_bytes()
        assert events == GOLDEN_EVENTS.read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        assert main(["figure3", "-o", str(tmp_path / "a")]) == 0
        assert main(["figure3", "-o", str(tmp_path / "b")]) == 0
        for name in ("figure3_trace.csv", "figure3_events.csv", "figure3_scenario.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
