"""Every demo, and the README quickstart, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Files a demo writes into its working directory.
OUTPUTS = {"05_closed_loop_simulation": {"demo_trace.csv", "demo_events.csv"}}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert {p.name for p in tmp_path.iterdir()} == OUTPUTS.get(demo.stem, set())


def test_readme_quickstart_runs():
    """Both quickstart blocks, run as one program: the loop prints the events
    the text describes, and the block form's `events` are the same."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quickstart")[1]
    loop, block = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)
    show = 'print(*(f"{event.t!r} {event.kind}" for event in events), sep="\\n")\n'
    result = subprocess.run(
        [sys.executable, "-c", loop + block + show],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    want = [(10.0, "vib_start"), (15.0, "vib_end"), (15.0, "reset"), (25.0, "vib_start"),
            (30.0, "vib_end"), (30.0, "reset"), (40.0, "vib_start"), (45.0, "vib_end"),
            (45.0, "reset"), (55.0, "vib_start")]
    assert result.stdout.splitlines() == (
        [f"{t:6.2f}  {kind}" for t, kind in want] + [f"{t!r} {kind}" for t, kind in want]
    )
