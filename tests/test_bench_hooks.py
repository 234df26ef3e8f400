"""Guards on the names the benchmark reaches into.

The benchmark's traced mode (perfbench/spans.py) times each layer by wrapping
public functions and methods by name, and its set-up probe
(perfbench/probe_setup.py) builds each workload's objects. A rename, or a
call that goes round one of those names, breaks the benchmark without
failing any other test. These tests read perfbench/ and write nothing in it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stillwatch import (CountsPipeline, ScenarioSampler, canonical_scenario, cli,
                        device)
from stillwatch.io import serialize_samples, serialize_scenario

from conftest import make_samples

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

DETECT_SAMPLES = 300  # 3 s at 100 Hz
STREAM_TICKS = 300  # 3 s at 100 Hz


@pytest.fixture(scope="module")
def spans():
    """perfbench/spans.py, loaded without writing its bytecode under perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(serialize_scenario(canonical_scenario(12.0)), newline="\n")
    return path


def test_every_traced_name_resolves(spans):
    for name, owner, attr in spans.TRACED:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_traced_session_reaches_every_span(spans, scenario_file, tmp_path):
    t = np.arange(DETECT_SAMPLES) / 100.0
    xyz = np.zeros((DETECT_SAMPLES, 3))
    xyz[:, 0] = 2.0 * np.sin(2 * np.pi * t) * (t < 1.0)
    xyz[:, 2] += 1.0
    samples = tmp_path / "samples.csv"
    samples.write_text(serialize_samples(make_samples(xyz)), newline="\n")

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["detect", str(samples), "-o", str(tmp_path / "detect.csv")]) == 0
        assert cli.main(["simulate", str(scenario_file), "-o", str(tmp_path / "trace.csv"),
                         "--events", str(tmp_path / "events.csv")]) == 0
        # `simulate` writes its trace as it runs; `figure3` runs the whole
        # trace through `sim.run` first.
        assert cli.main(["figure3", "-o", str(tmp_path / "figure3")]) == 0
        # The commands run blocks; the streaming names are reached by a stream
        # of their own, one tick at a time, as the stream_ticks workload runs.
        sampler = ScenarioSampler(canonical_scenario(12.0))
        pipeline, watch = CountsPipeline.from_spec(), device.Device()
        for k in range(STREAM_TICKS):
            if k == STREAM_TICKS // 2:
                watch.press_button("select", k / 100.0)
            watch.tick(pipeline.process_sample(sampler.sample(k)).value, k / 100.0)
    finally:
        tracer.uninstall()

    calls = {name: n for name, (n, _) in tracer.self_times_ns().items()}
    assert len(calls) == 12
    assert all(n >= 1 for n in calls.values()), calls
    # The watch reaches its detector through `stillwatch.device.detector_tick`,
    # once per `Device.tick`; the detect and simulate commands scan blocks with
    # `InactivityDetector.process_block`, which calls no traced name.
    assert calls["detector.tick"] == calls["device.tick"] == STREAM_TICKS
    # The stream's tick calls `Biquad.step` once per section of each axis's
    # one-section band-pass; no block path does, so a tick that routed round
    # it would read `filters.step_us` 0.
    assert calls["counts.process_sample"] == STREAM_TICKS
    assert calls["filters.step"] == 3 * STREAM_TICKS
    # One formatting call per command that writes a trace, so the per-row
    # figure stays per row.
    assert calls["io.serialize_trace"] == 2
    # One parse per chunk of `detect`'s file, which is one chunk long.
    assert calls["io.parse_samples"] == 1
    assert not tracer.errors


@pytest.mark.parametrize("workload", WORKLOADS)
def test_probe_setup_builds_each_workload(workload, scenario_file):
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe_setup.py"), workload, str(ROOT / "src"),
         str(scenario_file)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) >= 0.0
