"""Traced mode: spans around the calls into each stillwatch layer.

The program is not instrumented. `Tracer.install` replaces public functions
and methods of the stillwatch modules with wrappers that record one span per
call (name, start, end, parent) in flat in-memory arrays; `uninstall` puts the
originals back. A span's self time is its duration minus the time its direct
children cover, so every traced nanosecond is attributed to exactly one
span, and the wall time outside all spans is the untraced remainder.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import stillwatch.cli
import stillwatch.counts
import stillwatch.detector
import stillwatch.device
import stillwatch.filters
import stillwatch.io
import stillwatch.sim

# (span name, owner, attribute). One span name may cover several entry points
# that reach the same code, e.g. `sim.run` is also bound into `stillwatch.cli`.
TRACED = (
    ("cli.main", stillwatch.cli, "main"),
    ("sim.run", stillwatch.sim, "run"),
    ("sim.run", stillwatch.cli, "run"),
    ("sim.sample", stillwatch.sim.ScenarioSampler, "sample"),
    ("filters.step", stillwatch.filters.Biquad, "step"),
    ("counts.process_sample", stillwatch.counts.CountsPipeline, "process_sample"),
    ("detector.tick", stillwatch.detector.InactivityDetector, "tick"),
    ("detector.tick", stillwatch.device, "detector_tick"),
    ("device.tick", stillwatch.device.Device, "tick"),
    ("device.press_button", stillwatch.device.Device, "press_button"),
    ("io.parse_samples", stillwatch.io, "parse_samples"),
    ("io.parse_scenario", stillwatch.io, "parse_scenario"),
    ("io.serialize_trace", stillwatch.io, "serialize_trace"),
    ("io.serialize_events", stillwatch.io, "serialize_events"),
)

LAYERS = ("filters", "counts", "detector", "device", "sim", "io", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = sorted({name for name, _, _ in TRACED})
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.errors: Counter[str] = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        nid = self.name_ids[name]
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times_ns(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in ns)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        own = duration - covered
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i])) for i, n in enumerate(self.names)}

    def root_ns(self) -> float:
        """Wall time covered by top-level spans."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        root = parent < 0
        return float((np.frombuffer(self.end, dtype=np.int64)[root]
                      - np.frombuffer(self.start, dtype=np.int64)[root]).sum())

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent index) as a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
