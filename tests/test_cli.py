from pathlib import Path

import numpy as np
import pytest

from stillwatch import (
    CountsPipeline,
    InactivityDetector,
    RawSample,
    ScenarioSampler,
    canonical_scenario,
    run,
)
from stillwatch.cli import main
from stillwatch.io import (
    parse_config,
    parse_counts,
    parse_events,
    parse_samples,
    serialize_samples,
    serialize_scenario,
)

from conftest import make_samples

GOLDEN_EVENTS = Path(__file__).parent / "data" / "figure3_events.csv"


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
        rows = parse_counts(out.read_text())
        assert len(rows) == 2000
        vm_peak = max(r[1] for r in rows)
        assert vm_peak > 125.0

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

        samples = parse_samples(sample_file.read_text())
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
        samples = parse_samples(sample_file.read_text())
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
        vm_cli = np.array([row[1] for row in parse_counts(counts_out.read_text())])
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
