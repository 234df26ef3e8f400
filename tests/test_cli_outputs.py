"""scripts/cli_outputs.py writes the whole output tree used for byte-identity checks."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "cli_outputs.py"
GOLDEN_EVENTS = ROOT / "tests" / "data" / "figure3_events.csv"
TREE = {
    "inputs/samples.csv", "inputs/custom.cfg", "inputs/scenario.txt",
    "inputs/scenario_seams.txt", "simulate_seams_trace.csv", "simulate_seams_events.csv",
    "counts_default.csv", "counts_custom.csv", "detect_default.csv", "detect_custom.csv",
    "detect_crlf.csv",
    "simulate_default_trace.csv", "simulate_default_events.csv",
    "simulate_custom_trace.csv", "simulate_custom_events.csv", "simulate_stdout_trace.csv",
    "design_filter_order2.txt", "design_filter_order4.txt", "design_filter_order6.txt",
    "figure3/figure3_trace.csv", "figure3/figure3_events.csv", "figure3/figure3_scenario.txt",
    "config_default.txt", "config_custom.txt", "scenario_canonical.txt", "scenario_custom.txt",
    "errors.txt",
}


def test_script_writes_the_output_tree(tmp_path):
    out = tmp_path / "out"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(out)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert files == TREE
    assert all((out / name).stat().st_size > 0 for name in files)
    assert len((out / "design_filter_order6.txt").read_text().splitlines()) == 3
    assert (out / "figure3" / "figure3_events.csv").read_bytes() == GOLDEN_EVENTS.read_bytes()
    assert (out / "detect_crlf.csv").read_bytes() == (out / "detect_default.csv").read_bytes()
    stdout_trace = (out / "simulate_stdout_trace.csv").read_bytes()
    assert stdout_trace == (out / "simulate_default_trace.csv").read_bytes()
