"""Run one stillwatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sim_closed_loop, detect_file, stream_ticks (see perfbench/README.md).
The program is built from the `src/` directory beside this one. Human-readable
lines come first; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
the end-to-end ones of BENCHMARK.json, with `--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 25
# Tick latencies are summarised over stretches of 10 s of streaming at 100 Hz:
# the 99th percentile of a stretch is its highest with ten ticks beyond it.
STRETCH = 1000


def _import_program() -> None:
    """Put the checkout's sources first on the path; refuse anything else."""
    package = SRC / "stillwatch"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no stillwatch sources at {package}")
    sys.path.insert(0, str(SRC))
    import stillwatch

    if Path(stillwatch.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported stillwatch from {stillwatch.__file__}, not {package}")


class SetupProbes:
    """Cold set-ups of one workload, each timed in a fresh interpreter."""

    def __init__(self, name: str, work_dir: Path, count: int):
        self.cmd = [sys.executable, str(HERE / "probe_setup.py"), name, str(SRC),
                    str(work_dir / "scenario.txt")]
        self.count = count
        self.seconds: list[float] = []

    def due(self, fraction: float) -> bool:
        """Whether the next probe is due once `fraction` of the run is over."""
        return len(self.seconds) < self.count and fraction >= len(self.seconds) / self.count

    def run(self) -> None:
        out = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60, check=True)
        self.seconds.append(float(out.stdout.strip().splitlines()[-1]))


def _measure(workload, seconds: float, gate: list,
             probes: SetupProbes | None = None) -> tuple[list, np.ndarray | None]:
    """Closed loop, one caller: run passes back to back until `seconds` pass
    (at least one). Each pass is gated against the first, outside its timing.
    `probes` are run between passes, spread evenly over the run, so set-up
    and passes are timed over the same stretch of the host's load.

    Returns the passes and, where single ticks are timed, one row per good
    pass: the lowest mean, the lowest median and the lowest 99th percentile
    of the tick latencies (us) of its `STRETCH`-tick stretches."""
    from workloads import Pass

    passes, ticks = [], []
    begin = time.perf_counter()
    while not passes or time.perf_counter() < begin + seconds:
        start = time.perf_counter()
        try:
            result = workload.run_pass()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = Pass(time.perf_counter() - start, 0, error=f"{type(exc).__name__}: {exc}")
        gate.append(workload.compare(result))
        if result.latencies_ns is not None and result.error is None:
            lat = np.frombuffer(result.latencies_ns, dtype=np.int64) / 1e3
            stretches = lat[:len(lat) // STRETCH * STRETCH].reshape(-1, STRETCH)
            p50, p99 = np.quantile(stretches, [0.5, 0.99], axis=1).min(axis=1)
            ticks.append([stretches.mean(axis=1).min(), p50, p99])
        result.output = result.latencies_ns = None  # the workload keeps the first output
        passes.append(result)
        if probes and probes.due((time.perf_counter() - begin) / seconds):
            probes.run()
    while probes and probes.due(1.0):
        probes.run()
    return passes, np.array(ticks) if ticks else None


def _timings(passes, ticks) -> tuple[dict, str]:
    """samples_per_s, tick_p50_us and tick_p99_us from the quietest stretch
    of ticks or the quietest pass, with a line on what was kept.

    Other tenants of the machine only ever add time, and how much changes
    from second to second, so the fast end of a run is what repeats between
    runs. `stream_ticks` times every tick, and each of its figures is that
    of the quietest `STRETCH` consecutive ticks of any pass, as a caller
    sees them: pauses inside the stretch, such as garbage collections, stay
    in its tail. A file workload's caller cannot see single ticks, so all
    its figures come from its quietest pass's time per sample."""
    ok = [p for p in passes if p.error is None]
    if not ok:
        raise SystemExit(f"error: every timed pass failed, first: {passes[0].error}")
    if ticks is not None:
        mean, p50, p99 = ticks.min(axis=0)
        note = (f"quietest stretch of n={STRETCH} ticks (p99: ten ticks beyond) in "
                f"{len(ticks)} passes of {ok[0].samples} ticks")
    else:
        best = min(ok, key=lambda p: p.seconds)
        mean = p50 = p99 = best.seconds / best.samples * 1e6
        note = f"quietest of {len(ok)} passes, time per sample: n=1; max {mean:.4f} us"
    return {"samples_per_s": 1e6 / mean, "tick_p50_us": p50, "tick_p99_us": p99}, note


def _peak_heap_mb(workload) -> float:
    """Peak of the memory one untimed pass of the program's own work holds
    at once, above the level when the pass starts (tracemalloc: Python
    objects and numpy buffers). The benchmark's per-pass records are not in
    it, so memory the program keeps per tick shows in full."""
    gc.collect()
    tracemalloc.start()
    try:
        workload.operate()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _layer_metrics(tracer, workload, traced, untraced, gc_per_pass: float) -> dict:
    from spans import LAYERS

    own = tracer.self_times_ns()
    n_passes = len(traced[0])

    def mean_us(name: str, per: int = 1) -> float:
        calls, total = own[name]
        return total / (calls * per) / 1e3 if calls else 0.0

    def per_pass(name: str) -> float:
        return own[name][0] / n_passes

    # The quietest whole pass of each phase, so both sides are judged alike.
    untraced_rate, traced_rate = (max(p.samples / p.seconds for p in phase[0] if p.error is None)
                                  for phase in (untraced, traced))
    metrics = {
        "sim.sample_us": mean_us("sim.sample"),
        "sim.calls": per_pass("sim.sample"),
        "filters.step_us": mean_us("filters.step"),
        "filters.calls": per_pass("filters.step"),
        "counts.process_sample_us": mean_us("counts.process_sample"),
        "counts.nonzero_vm_share": workload.properties.get("vm_nonzero_share", 0.0),
        "detector.tick_us": mean_us("detector.tick"),
        "device.tick_us": mean_us("device.tick"),
        "io.parse_samples_us_per_row": mean_us("io.parse_samples", workload.n),
        "io.serialize_trace_us_per_row": mean_us("io.serialize_trace", workload.n),
        "io.parse_scenario_us": mean_us("io.parse_scenario"),
        "io.serialize_events_us": mean_us("io.serialize_events"),
        "cli.self_s": mean_us("cli.main") / 1e6,
        "py.gc_gen0_collections": gc_per_pass,
        "trace.untraced_samples_per_s": untraced_rate,
        "trace.traced_samples_per_s": traced_rate,
        "trace.overhead_samples_per_s": untraced_rate - traced_rate,
    }
    metrics.update(workload.exact)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(
            count for name, count in tracer.errors.items() if name.startswith(layer + ".")
        )
    return metrics


def _print_accounting(tracer, traced) -> None:
    from spans import LAYERS

    wall_ns = sum(p.seconds for p in traced) * 1e9
    own = tracer.self_times_ns()
    print(f"  traced wall {wall_ns / 1e9:.4f} s over {len(traced)} passes:")
    layer_total = 0.0
    for layer in LAYERS:
        spans = {n: v for n, v in own.items() if n.startswith(layer + ".") and v[0]}
        total = sum(v[1] for v in spans.values())
        layer_total += total
        detail = ", ".join(f"{n} {v[1] / 1e9:.4f} s / {v[0]} calls" for n, v in spans.items())
        print(f"    {layer:9s} self {total / 1e9:9.4f} s  {detail}")
    remainder = wall_ns - tracer.root_ns()
    print(f"    untraced remainder {remainder / 1e9:.4f} s; layers + remainder = "
          f"{(layer_total + remainder) / 1e9:.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and two set-up probes, for the self-tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(workloads.WORKLOADS)}")
    work_root = HERE / "_work"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        return _run(args, wanted, workloads, work_root, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, wanted, workloads, work_root: Path, work_dir: Path) -> int:
    workload = workloads.WORKLOADS[args.workload](work_dir, args.seed, args.tiny)
    workload.prepare()
    gate: list = []
    warmup, _ = _measure(workload, 0.0, gate)
    if args.trace:
        from spans import Tracer

        gen0 = gc.get_stats()[0]["collections"]
        untraced = _measure(workload, args.seconds / 4, gate)
        gc_per_pass = (gc.get_stats()[0]["collections"] - gen0) / len(untraced[0])
        tracer = Tracer()
        tracer.install()
        try:
            measured = _measure(workload, args.seconds, gate)
        finally:
            tracer.uninstall()
        tracer.write(work_root / f"spans-{args.workload}.npz")
    else:
        probes = SetupProbes(args.workload, work_dir, 2 if args.tiny else SETUP_PROBES)
        measured = _measure(workload, args.seconds, gate, probes)
    timed = measured[0]
    if not args.trace:
        try:
            peak_mb = _peak_heap_mb(workload)
            gate.append(None)
        except Exception as exc:  # counted like a failed pass
            peak_mb = 0.0
            gate.append(f"memory pass: {type(exc).__name__}: {exc}")
    problems = workload.verify_first()
    failures = [p or (problems[0] if problems else None) for p in gate]
    failures.append((workloads.figure3_problems(ROOT, work_dir) or [None])[0])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(timed)} timed passes of {workload.n} samples (+{len(warmup)} warm-up)")
    for problem, count in Counter(f for f in failures if f).items():
        print(f"  GATE FAILURE in {count} operations: {problem}")
    for problem in problems[1:]:
        print(f"  GATE FAILURE: {problem}")
    if args.trace:
        metrics = _layer_metrics(tracer, workload, measured, untraced, gc_per_pass)
        _print_accounting(tracer, timed)
    else:
        timings, note = _timings(*measured)
        metrics = {
            "setup_s": statistics.median(probes.seconds),
            **timings,
            "peak_rss_mb": peak_mb,
        }
        print(f"  setup_s median of {len(probes.seconds)} cold set-ups: "
              + " ".join(f"{t:.4f}" for t in probes.seconds))
        print(f"  timings from the {note}")
        print(f"  peak_rss_mb from one untimed pass under tracemalloc: {peak_mb:.4f} MB")
    for spec in wanted:
        print(f"  {spec['name']:32s} {metrics[spec['name']]:>16.6g} {spec['unit']}")
    failed = sum(1 for f in failures if f)
    print(f"  error_rate {failed / len(failures):.6g} ({failed} failed of {len(failures)} "
          f"operations)")
    for key, value in workload.properties.items():
        print(f"  input {key} = {value:.6g}")
    for key, value in workload.exact.items():
        print(f"  exact {key} = {value}")
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
