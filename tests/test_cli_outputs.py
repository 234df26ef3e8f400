"""scripts/cli_outputs.py writes the whole output tree used for byte-identity checks.

`tests/data/cli_outputs.sha256` holds the sha256, size and path of every file
in the tree, under a header that names the numpy version it was written with:
the noise comes from numpy's `default_rng(...).normal`, whose stream numpy
does not promise across versions. A deliberate output change rewrites it:

    python3 scripts/cli_outputs.py /tmp/tree
    python3 tests/test_cli_outputs.py /tmp/tree > tests/data/cli_outputs.sha256
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "cli_outputs.py"
GOLDEN_EVENTS = ROOT / "tests" / "data" / "figure3_events.csv"
GOLDEN_ERRORS = ROOT / "tests" / "data" / "cli_errors.txt"
MANIFEST = ROOT / "tests" / "data" / "cli_outputs.sha256"
NUMPY_HEADER = "# numpy "
TREE = {
    "inputs/samples.csv", "inputs/custom.cfg", "inputs/scenario.txt",
    "inputs/scenario_seams.txt", "simulate_seams_trace.csv", "simulate_seams_events.csv",
    "inputs/event_dense.cfg", "simulate_event_dense_trace.csv",
    "simulate_event_dense_events.csv",
    "counts_default.csv", "counts_custom.csv", "detect_default.csv", "detect_custom.csv",
    "detect_crlf.csv", "detect_event_dense.csv", "detect_stdout.csv",
    "simulate_default_trace.csv", "simulate_default_events.csv",
    "simulate_custom_trace.csv", "simulate_custom_events.csv", "simulate_stdout_trace.csv",
    "design_filter_order2.txt", "design_filter_order4.txt", "design_filter_order6.txt",
    "figure3/figure3_trace.csv", "figure3/figure3_events.csv", "figure3/figure3_scenario.txt",
    "config_default.txt", "config_custom.txt", "scenario_canonical.txt", "scenario_custom.txt",
    "errors.txt",
}


def digests(out: Path) -> dict[str, str]:
    """The `sha256 size` of each file under `out`, by its path there."""
    found = {}
    for p in sorted(out.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            found[p.relative_to(out).as_posix()] = f"{hashlib.sha256(data).hexdigest()} {len(data)}"
    return found


def manifest(out: Path) -> str:
    """The manifest text of the tree under `out`, as written under this numpy."""
    lines = [f"{NUMPY_HEADER}{np.__version__}"]
    lines += [f"{digest} {path}" for path, digest in digests(out).items()]
    return "\n".join(lines) + "\n"


def read_manifest(text: str) -> tuple[str, dict[str, str]]:
    """The numpy version and the `sha256 size` by path of manifest text."""
    header, *lines = text.splitlines()
    assert header.startswith(NUMPY_HEADER), f"manifest header {header!r}"
    entries = {}
    for line in lines:
        sha, size, path = line.split(" ", 2)
        entries[path] = f"{sha} {size}"
    return header.removeprefix(NUMPY_HEADER), entries


def differing(out: Path, expected: dict[str, str]) -> list[str]:
    """The paths whose file under `out` is missing, extra or not as `expected`."""
    found = digests(out)
    return sorted(path for path in found.keys() | expected.keys()
                  if found.get(path) != expected.get(path))


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
    assert (out / "errors.txt").read_bytes() == GOLDEN_ERRORS.read_bytes()
    assert (out / "detect_crlf.csv").read_bytes() == (out / "detect_default.csv").read_bytes()
    assert len((out / "simulate_event_dense_events.csv").read_text().splitlines()) > 3000
    assert len((out / "detect_event_dense.csv").read_text().splitlines()) > 3000
    assert (out / "detect_stdout.csv").read_bytes() == (out / "detect_event_dense.csv").read_bytes()
    stdout_trace = (out / "simulate_stdout_trace.csv").read_bytes()
    assert stdout_trace == (out / "simulate_default_trace.csv").read_bytes()
    version, expected = read_manifest(MANIFEST.read_text())
    assert version == np.__version__, (
        f"{MANIFEST.name} was written under numpy {version}, this is numpy {np.__version__}:"
        " its noise stream may differ, so the digests cannot be compared"
    )
    changed = differing(out, expected)
    assert not changed, f"differ from {MANIFEST.name}: {', '.join(changed)}"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[2])
    sys.stdout.write(manifest(Path(sys.argv[1])))
