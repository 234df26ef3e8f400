"""Write the standard tree of CLI outputs, for byte-identity checks between commits.

Usage: python3 scripts/cli_outputs.py OUT_DIR

The inputs are fixed: a 300 s sample CSV drawn with numpy (rest, desk work,
walking and saturating movement), a custom configuration and a scenario with
motor feedback and button presses, and a second scenario whose presses and
movement meet the watch's vibrations, all written as text here rather than by
stillwatch. From them the script runs `counts` and `detect` (stock and custom
configuration; `detect` also on a CRLF copy of the samples, which must give
the same events), `simulate` (trace and events, both configurations, the
stock trace once more from stdout, which must be the same bytes, the
second scenario under the stock configuration, and the first under a
configuration of few-tick durations, whose events fill many chunks; `detect`
also runs on the samples under that configuration, to a file and to stdout),
`design-filter --order 2/4/6` and `figure3`, and round-trips the configuration
and scenario files through their parsers and serializers. `errors.txt` holds
the exit code and stderr of each command refused for a fixed bad input: sample
files for `counts` and `detect`, with faults in chunks that parse and in chunks
that do not, some also under a 0.001 g dead-band, whose blocks are counted row
by row, configuration files for `detect`, and for `simulate` a scenario that
does not parse and one refused mid-run, both with `--events`; no refused
command may leave an output file. Everything lands under OUT_DIR, so two commits
compare with one command:

    PYTHONPATH=path/to/other/src python3 scripts/cli_outputs.py /tmp/other
    python3 scripts/cli_outputs.py /tmp/this
    diff -r /tmp/other /tmp/this

stillwatch is imported from PYTHONPATH when it is there, and otherwise from
the `src` directory next to this script.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import stillwatch  # noqa: E402
from stillwatch import io as formats  # noqa: E402
from stillwatch.cli import main  # noqa: E402

FS = 100.0
SECONDS = 300

CUSTOM_CONFIG = """\
[filter]
low_cutoff_hz = 0.25
high_cutoff_hz = 2.0
order = 4

[counts]
deadband_g = 0.05
saturation_g = 3.0
epoch_seconds = 2.0

[detector]
count_threshold = 100

[device]
inactivity_options = 20, 40, 60
vibration_seconds = 4
"""

SCENARIO = """\
[scenario]
duration_seconds = 120
seed = 2020
noise_sigma_g = 0.003

[segment]
kind = rest
start = 0
end = 15

[segment]
kind = burst
start = 15
end = 19
amplitude_g = 3.0
center_frequency_hz = 1.0

[segment]
kind = rest
start = 19
end = 50

[segment]
kind = sine
start = 50
end = 58
axis = y
amplitude_g = 0.9
frequency_hz = 1.2

[segment]
kind = ambient
start = 58
end = 90
amplitude_g = 0.2
frequency_hz = 12

[segment]
kind = rest
start = 90
end = 120

[motor_feedback]
enabled = true
amplitude_g = 0.5
frequency_hz = 20

[button]
t = 30.0
button = select

[button]
t = 70.0
button = red
"""

# The closed loop's seams under the stock configuration: a select and a red
# toggle during the 10 s vibration, a burst that cuts it short, 60 s of rest
# under option 2 (6,000 ticks), a vibration that runs out, and a power press
# during the last vibration, whose motor feeds back once more.
SEAMS_SCENARIO = """\
[scenario]
duration_seconds = 100
seed = 2021
noise_sigma_g = 0.003

[segment]
kind = rest
start = 0
end = 12.5

[segment]
kind = burst
start = 12.5
end = 15.5
amplitude_g = 3.0
center_frequency_hz = 1.0

[segment]
kind = rest
start = 15.5
end = 100

[motor_feedback]
enabled = true
amplitude_g = 0.5
frequency_hz = 20

[button]
t = 11.0
button = select

[button]
t = 11.5
button = red

[button]
t = 20.0
button = select

[button]
t = 86.0
button = select

[button]
t = 98.01
button = power
"""

# Inactivity and vibration of a few ticks: the watch vibrates and resets tens
# of times a second, so a run is thousands of chunks of a few ticks, each
# written with its events as it is run.
EVENT_DENSE_CONFIG = """\
[device]
inactivity_options = 0.05, 0.1, 0.2
vibration_seconds = 0.02
"""


def grid_csv(rows: int, spoilt: dict[int, bytes]) -> bytes:
    """A sample file of `rows` rows on the sample grid, the row on each line
    number in `spoilt` replaced by its bytes. A chunk is 1,024 lines, so line
    1,026 is the second chunk's first and line 1,502 is in its middle."""
    lines = [b"t,ax,ay,az"] + [f"{k / FS!r},0,0,1".encode() for k in range(rows)]
    for number, row in spoilt.items():
        lines[number - 1] = row
    return b"\n".join(lines) + b"\n"


def over_limit(number: int) -> bytes:
    """The grid row on line `number`, with ax beyond the filters' input limit."""
    return f"{(number - 2) / FS!r},1e306,0,1".encode()


# Inputs that every command given them refuses, with exit 1.
BAD_SAMPLES = {
    "bad_token": b"t,ax,ay,az\n0,0,0,1\n0.01,0,oops,1\n",
    "off_grid_t": b"t,ax,ay,az\n0,0,0,1\n0.015,0,0,1\n",
    "over_input_limit": b"t,ax,ay,az\n0,0,0,1\n0.01,1e306,0,1\n",
    "not_utf8": b"t,ax,ay,az\n0,0,0,1\n0.01,0,0,\xff1\n",
    "wrong_header": b"time,ax,ay,az\n0,0,0,1\n",
    "blank_line": b"t,ax,ay,az\n0,0,0,1\n\n0.01,0,0,1\n",
    "cr_line_ends": b"t,ax,ay,az\r0,0,0,1\r0.01,0,0,1\r",
    "off_grid_t_line_1026": grid_csv(1025, {1026: b"10.5,0,0,1"}),
    # Chunks that parse and that counting refuses, named from their arrays.
    "over_input_limit_line_1026": grid_csv(1536, {1026: over_limit(1026)}),
    "over_input_limit_line_1502": grid_csv(1536, {1502: over_limit(1502)}),
    # Chunks that do not parse: the first fault in the file is named, whatever
    # its kind, a refused row above a line that does not parse included.
    "over_input_limit_line_1100_then_bad_token": grid_csv(
        1536, {1100: over_limit(1100), 1200: b"11.98,0,oops,1"}),
    "bad_token_line_1100_then_over_input_limit": grid_csv(
        1536, {1100: b"10.98,0,oops,1", 1200: over_limit(1200)}),
    "off_grid_t_line_1030_then_not_utf8": grid_csv(
        1536, {1030: b"10.285,0,0,1", 1040: b"10.38,0,0,\xff1"}),
}
# A dead-band whose saturated sample is 2**64 quanta, past the two int64 limbs
# of `process_block`, which then runs its rows through `process_sample`; the
# bad samples refused under it too.
FINE_DEADBAND_CONFIG = "[counts]\ndeadband_g = 0.001\n"
FINE_DEADBAND_BAD_SAMPLES = {
    "over_input_limit_line_1502": BAD_SAMPLES["over_input_limit_line_1502"],
    "off_grid_t_line_1026": BAD_SAMPLES["off_grid_t_line_1026"],
}
BAD_CONFIGS = {
    "unknown_key": "[filter]\nq_factor = 2\n",
    "moved_key": "[filter]\nsample_rate_hz = 50\n",
    "off_grid_device_duration": "[device]\nvibration_seconds = 0.005\n",
}
BAD_SCENARIO = SCENARIO.replace("kind = sine", "kind = wiggle")
# Parses, but its burst passes the filters' input limit 15.57 s in, after more
# than a chunk of ticks has been run and written.
OVER_LIMIT_SCENARIO = """\
[scenario]
duration_seconds = 20
seed = 0

[segment]
kind = rest
start = 0
end = 15

[segment]
kind = burst
start = 15
end = 20
amplitude_g = 1e307
center_frequency_hz = 1.0
"""


def samples_csv() -> str:
    """SECONDS of numpy-drawn 3-axis samples in stretches of rest, desk work,
    walking and saturating movement, with gravity on z and sensor noise."""
    rng = np.random.default_rng(2020)
    n = int(SECONDS * FS)
    t = np.arange(n) / FS
    xyz = rng.normal(0.0, 0.003, (n, 3))
    xyz[:, 2] += 1.0
    start = 0
    while start < n:
        stop = min(n, start + int(rng.integers(500, 4000)))
        kind = rng.integers(4)
        local = t[start:stop] - t[start]
        if kind == 1:  # desk work: small broadband jitter
            xyz[start:stop] += rng.normal(0.0, 0.03, (stop - start, 3))
        elif kind == 2:  # walking: a stride tone and its harmonic on every axis
            amp = rng.uniform(0.3, 1.2, 3)
            stride = rng.uniform(0.8, 1.1)
            wave = np.sin(2 * np.pi * stride * local) + 0.3 * np.sin(4 * np.pi * stride * local)
            xyz[start:stop] += np.outer(wave, amp)
        elif kind == 3:  # vigorous movement, beyond saturation
            xyz[start:stop] += np.outer(np.sin(2 * np.pi * 0.8 * local), rng.uniform(2.5, 4.0, 3))
        start = stop
    rows = [f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in zip(t.tolist(), *xyz.T.tolist())]
    return "t,ax,ay,az\n" + "\n".join(rows) + "\n"


def run(argv: list[str]) -> str:
    """Run one CLI command in process; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"stillwatch {' '.join(argv)} exited with {code}")
    return out.getvalue()


def refusals(scratch: Path, samples: str) -> str:
    """The exit code and stderr of each command run on a bad input, under a
    heading that names the command and the input."""
    cases = []
    for name, data in BAD_SAMPLES.items():
        path = scratch / f"{name}.csv"
        path.write_bytes(data)
        cases += [(f"{command} {name}", [command, str(path)]) for command in ("counts", "detect")]
    fine = write(scratch / "fine_deadband.cfg", FINE_DEADBAND_CONFIG)
    for name, data in FINE_DEADBAND_BAD_SAMPLES.items():
        path = scratch / f"fine_deadband_{name}.csv"
        path.write_bytes(data)
        cases += [(f"{command} --config fine_deadband {name}",
                   [command, str(path), "--config", fine]) for command in ("counts", "detect")]
    for name, text in BAD_CONFIGS.items():
        config = write(scratch / f"{name}.cfg", text)
        cases.append((f"detect --config {name}", ["detect", samples, "--config", config]))
    events = ["--events", str(scratch / "refused_events")]
    scenario = write(scratch / "unknown_segment_kind.txt", BAD_SCENARIO)
    cases.append(("simulate unknown_segment_kind", ["simulate", scenario, *events]))
    scenario = write(scratch / "burst_over_input_limit.txt", OVER_LIMIT_SCENARIO)
    cases.append(("simulate burst_over_input_limit", ["simulate", scenario, *events]))
    blocks = []
    for title, argv in cases:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "-o", str(scratch / "refused_output")])
        if code != 1:
            raise SystemExit(f"stillwatch {title} exited with {code}, not 1")
        if any((scratch / name).exists() for name in ("refused_output", "refused_events")):
            raise SystemExit(f"stillwatch {title} left an output behind")
        blocks.append(f"# {title}\nexit {code}\n{err.getvalue()}")
    return "\n".join(blocks)


def write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return str(path)


def write_tree(out_dir: Path) -> None:
    inputs = out_dir / "inputs"
    text = samples_csv()
    samples = write(inputs / "samples.csv", text)
    custom = write(inputs / "custom.cfg", CUSTOM_CONFIG)
    scenario = write(inputs / "scenario.txt", SCENARIO)
    for name, config in (("default", []), ("custom", ["--config", custom])):
        run(["counts", samples, *config, "-o", str(out_dir / f"counts_{name}.csv")])
        run(["detect", samples, *config, "-o", str(out_dir / f"detect_{name}.csv")])
        run(["simulate", scenario, *config, "-o", str(out_dir / f"simulate_{name}_trace.csv"),
             "--events", str(out_dir / f"simulate_{name}_events.csv")])
    write(out_dir / "simulate_stdout_trace.csv", run(["simulate", scenario]))
    seams = write(inputs / "scenario_seams.txt", SEAMS_SCENARIO)
    run(["simulate", seams, "-o", str(out_dir / "simulate_seams_trace.csv"),
         "--events", str(out_dir / "simulate_seams_events.csv")])
    dense = write(inputs / "event_dense.cfg", EVENT_DENSE_CONFIG)
    run(["simulate", scenario, "--config", dense,
         "-o", str(out_dir / "simulate_event_dense_trace.csv"),
         "--events", str(out_dir / "simulate_event_dense_events.csv")])
    run(["detect", samples, "--config", dense, "-o", str(out_dir / "detect_event_dense.csv")])
    write(out_dir / "detect_stdout.csv", run(["detect", samples, "--config", dense]))
    # The copy stays out of the tree: it is the samples input with CRLF line
    # ends, which reach `parse_samples` as written and take its numpy path.
    # So do the bad inputs, whose refusals errors.txt holds.
    with tempfile.TemporaryDirectory() as scratch:
        crlf = write(Path(scratch) / "samples_crlf.csv", text.replace("\n", "\r\n"))
        run(["detect", crlf, "-o", str(out_dir / "detect_crlf.csv")])
        write(out_dir / "errors.txt", refusals(Path(scratch), samples))
    for order in (2, 4, 6):
        write(out_dir / f"design_filter_order{order}.txt",
              run(["design-filter", "--order", str(order)]))
    run(["figure3", "-o", str(out_dir / "figure3")])
    write(out_dir / "config_default.txt", formats.serialize_config(formats.ConfigFile()))
    write(out_dir / "config_custom.txt",
          formats.serialize_config(formats.parse_config(CUSTOM_CONFIG)))
    write(out_dir / "scenario_canonical.txt",
          formats.serialize_scenario(stillwatch.canonical_scenario()))
    write(out_dir / "scenario_custom.txt",
          formats.serialize_scenario(formats.parse_scenario(SCENARIO)))
    files = sum(1 for p in out_dir.rglob("*") if p.is_file())
    print(f"wrote {files} files under {out_dir} with {Path(stillwatch.__file__).parent}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    write_tree(Path(sys.argv[1]))
