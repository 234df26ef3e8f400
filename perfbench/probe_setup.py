"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/probe_setup.py WORKLOAD SRC_DIR [INPUT_FILE]

Prints the seconds spent importing stillwatch and constructing what the
workload uses: filter design, counts pipeline, detector or device, and for
`sim_closed_loop` reading and parsing the scenario file. Interpreter start-up
and input generation are excluded. Only the standard library is imported
before the clock starts.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    workload, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    if workload == "stream_ticks":
        from stillwatch import CountsPipeline, Device

        CountsPipeline.from_spec()
        Device()
    elif workload == "detect_file":
        from stillwatch import InactivityDetector, cli  # noqa: F401  (the command's imports)
        from stillwatch.counts import CountsPipeline
        from stillwatch.io import ConfigFile

        config = ConfigFile()
        CountsPipeline.from_spec(config.filter_spec, config.counts, config.filter_order)
        InactivityDetector(config.detector)
    elif workload == "sim_closed_loop":
        from stillwatch import CountsPipeline, Device, ScenarioSampler, cli  # noqa: F401
        from stillwatch.io import ConfigFile, parse_scenario

        config = ConfigFile()
        scenario = parse_scenario(Path(sys.argv[3]).read_text(encoding="utf-8"))
        ScenarioSampler(scenario, config.counts.sample_rate_hz)
        CountsPipeline.from_spec(config.filter_spec, config.counts, config.filter_order)
        Device(config.device, config.detector)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
