import io

import numpy as np
import pytest

from stillwatch import (
    CountsConfig,
    CountsPipeline,
    DetectorConfig,
    DeviceConfig,
    FilterSpec,
    RawSample,
    design_bandpass_cascade,
)
from stillwatch.io import serialize_counts, serialize_trace


@pytest.fixture(scope="session")
def default_spec() -> FilterSpec:
    return FilterSpec(100.0, 0.305, 1.615)


@pytest.fixture(scope="session")
def default_coeffs(default_spec):
    (section,) = design_bandpass_cascade(default_spec)
    return section


@pytest.fixture
def counts_cfg() -> CountsConfig:
    return CountsConfig()


@pytest.fixture
def detector_cfg() -> DetectorConfig:
    return DetectorConfig()


@pytest.fixture
def device_cfg() -> DeviceConfig:
    return DeviceConfig()


def make_samples(xyz: np.ndarray, fs: float = 100.0, t0: float = 0.0) -> list[RawSample]:
    """Wrap an (n, 3) array as grid-timed raw samples."""
    xyz = np.asarray(xyz, dtype=float)
    return [
        RawSample(t0 + k / fs, float(xyz[k, 0]), float(xyz[k, 1]), float(xyz[k, 2]))
        for k in range(xyz.shape[0])
    ]


def trace_text(trace) -> str:
    """The trace CSV that `serialize_trace` writes for a whole trace, as a string."""
    out = io.StringIO()
    serialize_trace([trace], out)
    return out.getvalue()


def counts_text(rows) -> str:
    """The counts CSV that `serialize_counts` writes for rows of t, vm, sx,
    sy, sz, as a string."""
    out = io.StringIO()
    serialize_counts([np.array(rows, dtype=float).reshape(-1, 5)], out)
    return out.getvalue()


def run_pipeline(xyz: np.ndarray, cfg: CountsConfig | None = None, order: int = 2):
    """Run the streaming pipeline over an array; returns (vm, sums) arrays."""
    cfg = cfg or CountsConfig()
    pipeline = CountsPipeline.from_spec(config=cfg, order=order)
    vms = []
    sums = []
    for sample in make_samples(xyz, cfg.sample_rate_hz):
        vms.append(pipeline.process_sample(sample).value)
        sums.append(pipeline.epoch_sums)
    return np.asarray(vms), np.asarray(sums)


def random_vm_trace(rng, n: int, threshold: float = 125.0) -> np.ndarray:
    """Alternating quiet/active stretches with occasional exact-threshold ticks."""
    vms = np.empty(n)
    i = 0
    active = False
    while i < n:
        span = int(rng.integers(5, 1500))
        stop = min(n, i + span)
        if active:
            vms[i:stop] = rng.uniform(threshold, 3.2 * threshold, stop - i) + 1e-6
        else:
            vms[i:stop] = rng.uniform(0.0, threshold, stop - i)
        i = stop
        active = not active
    exact = rng.integers(0, n, max(1, n // 50))
    vms[exact] = threshold
    return vms
