"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from stillwatch import Device  # noqa: E402
from stillwatch.sim import ScenarioSampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_run(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) == 3}
    for name, unit in wanted.items():
        assert printed.get(name) == unit, name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert any(line.strip().startswith("timings from the") and " n=" in line for line in lines)
    assert any(line.strip().startswith("error_rate 0 ") for line in lines)


def test_exact_counts_repeat_for_a_seed():
    exact = ("detector.events", "detector.vib_starts", "device.motor_on_ticks")
    runs = [tiny_run("stream_ticks", 1, seed=11)[1]["metrics"] for _ in range(2)]
    first, second = ([run[k]["value"] for k in exact] for run in runs)
    assert first == second


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = bench("--workload", "stream_ticks", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _first_pass(cls, tmp_path, seed: int = 5):
    workload = cls(tmp_path, seed, True)
    workload.prepare()
    result = workload.run_pass()
    assert workload.compare(result) is None
    return workload, result


def _cross_threshold(value: float) -> float:
    return 124.5 if value > 125.0 else 125.5


def test_gate_catches_a_vm_nudged_across_the_threshold_in_a_stream(tmp_path):
    workload, result = _first_pass(workloads.StreamTicks, tmp_path)
    assert workload.verify_first() == []
    k = len(result.output.vm) // 2
    result.output.vm[k] = _cross_threshold(result.output.vm[k])
    assert workload.verify_first() != []


def test_gate_catches_a_vm_nudged_across_the_threshold_in_a_trace(tmp_path):
    workload, result = _first_pass(workloads.SimClosedLoop, tmp_path)
    assert workload.verify_first() == []
    trace, events = result.output
    lines = trace.decode().split("\n")
    fields = lines[500].split(",")
    fields[4] = repr(_cross_threshold(float(fields[4])))
    lines[500] = ",".join(fields)
    perturbed = ("\n".join(lines).encode(), events)
    assert workload.compare(workloads.Pass(1.0, workload.n, perturbed)) is not None
    workload.first = perturbed
    assert workload.verify_first() != []


def test_gate_catches_a_motor_feedback_tone_one_tick_late(tmp_path, monkeypatch):
    # An engine that adds the tone for the motor state two ticks back writes
    # a self-consistent trace: only the feedback check can see it.
    sample, given = ScenarioSampler.sample, {}

    def late(self, k, motor_on=False):
        given[k] = motor_on
        return sample(self, k, given.get(k - 1, False))

    monkeypatch.setattr(ScenarioSampler, "sample", late)
    workload, _ = _first_pass(workloads.SimClosedLoop, tmp_path, seed=2)  # the motor runs
    problems = workload.verify_first()
    assert workload.exact["device.motor_on_ticks"] > 0
    assert [p for p in problems if "feedback" in p] == problems != []


def test_gate_catches_a_shifted_event(tmp_path):
    workload, result = _first_pass(workloads.DetectFile, tmp_path)
    assert workload.verify_first() == []
    lines = result.output.decode().split("\n")
    t, kind = lines[1].split(",")
    lines[1] = f"{float(t) + 0.01:.9g},{kind}"
    workload.first = "\n".join(lines).encode()
    assert workload.verify_first() != []


def test_figure3_events_match_the_committed_reference(tmp_path):
    assert workloads.figure3_problems(ROOT, tmp_path) == []


@pytest.mark.parametrize("seed", range(6))
def test_event_scan_matches_the_device_with_option_changes(seed):
    rng = np.random.default_rng(seed)
    n = 20000
    vm = np.where(rng.random(n) < 0.5, 0.0, 200.0)
    # Long quiet stretches, some exactly at the (non-movement) threshold.
    for start in rng.integers(0, n, 12):
        vm[start:start + int(rng.integers(500, 4000))] = 0.0
    vm[rng.integers(0, n, 40)] = 125.0
    press_ticks = {int(k) for k in rng.integers(1, n, 6)}
    presses = [(k, "select") for k in sorted(press_ticks)]
    device = Device()
    for k in range(n):
        if k in press_ticks:
            device.press_button("select", k / 100.0)
        device.tick(float(vm[k]), k / 100.0)
    got = [(round(e.t * 100), e.kind) for e in device.events]
    changes = workloads._option_changes(presses, device.config, 0.01)
    assert oracle.event_scan(vm > 125.0, 1000, 500, changes) == got
