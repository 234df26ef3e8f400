"""What importing stillwatch loads: the streaming core runs on the standard
library alone, and the names re-exported from `sim` load it, and numpy, on
first access. Each check runs in a fresh interpreter, since this one has
imported everything already."""

import os
import subprocess
import sys
from pathlib import Path

import stillwatch


def run_fresh(script: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(stillwatch.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_streaming_core_loads_no_numpy():
    # 20 s through process_sample and Device.tick: a 3 g burst at 1-3 s resets
    # the timer, the quiet that follows runs one full vibration, and select is
    # pressed after it ends.
    run_fresh(
        "import math, sys\n"
        "from stillwatch import (Biquad, CountsPipeline, Device, FilterSpec,\n"
        "                        InactivityDetector, RawSample, design_bandpass_cascade)\n"
        "pipeline = CountsPipeline(design_bandpass_cascade(FilterSpec()))\n"
        "device = Device()\n"
        "assert isinstance(pipeline._filters[0][0], Biquad)\n"
        "assert isinstance(device._detector, InactivityDetector)\n"
        "for k in range(2000):\n"
        "    t = k / 100.0\n"
        "    a = 3.0 * math.sin(2.0 * math.pi * t) if 100 <= k < 300 else 0.0\n"
        "    if k == 1900:\n"
        "        device.press_button('select', t)\n"
        "    device.tick(pipeline.process_sample(RawSample(t, a, a, 1.0 + a)).value, t)\n"
        "kinds = [event.kind for event in device.events]\n"
        "assert kinds == ['reset', 'vib_start', 'vib_end', 'reset'], kinds\n"
        "assert device.selected_option == 1\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "import stillwatch\n"
        "assert stillwatch.canonical_scenario().duration_seconds == 30.0\n"
        "assert 'numpy' in sys.modules\n"
    )


def test_the_sim_names_resolve_on_first_access():
    run_fresh(
        "import sys\n"
        "import stillwatch\n"
        "assert 'stillwatch.sim' not in sys.modules\n"
        "namespace = {}\n"
        "exec('from stillwatch import *', namespace)\n"
        "missing = set(stillwatch.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
        "import stillwatch.sim\n"
        "assert stillwatch.run is stillwatch.sim.run\n"
        "assert namespace['ScenarioSampler'] is stillwatch.sim.ScenarioSampler\n"
        "try:\n"
        "    stillwatch.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('stillwatch.no_such_name resolved')\n"
        "from stillwatch import cli, io\n"
        "assert cli is sys.modules['stillwatch.cli'] and io is sys.modules['stillwatch.io']\n"
    )
