"""Steadiness report: run workloads over several seeds and compare each
metric's spread with the bound fixed in BENCHMARK.json.

    python3 perfbench/report.py [--seeds 1-10] [--trace 0|1] [--save FILE]

Each run is a separate `run.py` process, one after another, of every
workload in BENCHMARK.json at its `run_seconds`. For every end-to-end metric
it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and the
bound. A spread below a third of the bound is steady, one above the bound is
too wide; it exits 1 unless every spread, `setup_s` included, is steady. With
`--trace 1` it prints the per-layer medians and checks that the exact counts
repeat for every seed given more than once.
`--save` writes every metric's median and quartiles as JSON, the form of
`baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("detector.events", "detector.vib_starts", "device.motor_on_ticks")


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,3,4")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write medians and quartiles to this JSON file")
    args = parser.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    steady = True
    summary: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = defaultdict(list)
        exact: dict[int, set] = defaultdict(set)
        failed = attempted = 0
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, spec["run_seconds"], args.trace)
            failed += result["failed"]
            attempted += result["attempted"]
            got = result["metrics"]
            for m in metrics:
                values[m["name"]].append(got[m["name"]]["value"])
            if args.trace:
                exact[seed].add(tuple(got[name]["value"] for name in EXACT))
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{m['name']}={got[m['name']]['value']:.6g}" for m in metrics
                             if not args.trace), flush=True)
        print(f"\n{workload}: {len(values[metrics[0]['name']])} runs, error_rate "
              f"{failed / attempted:.3g} ({failed} of {attempted} operations)")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}  verdict")
        for m in metrics:
            vals = values[m["name"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            verdict = ""
            if "bound" in m:
                if spread < m["bound"] / 3:
                    verdict = "steady"
                else:
                    verdict = "within bound" if spread <= m["bound"] else "TOO WIDE"
                    steady = False
            summary.setdefault(workload, {})[m["name"]] = {
                "median": median, "q1": q1, "q3": q3, "unit": m["unit"], "runs": len(vals)}
            bound = f"{m['bound']:6.3g}" if "bound" in m else " " * 6
            print(f"  {m['name']:32s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound}  {verdict} {m['unit']}")
        for seed, seen in exact.items():
            if len(seen) > 1:
                steady = False
                print(f"  exact counts differ between runs of seed {seed}: {sorted(seen)}")
        if failed:
            steady = False
        print()
    if args.save:
        args.save.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
