"""stillwatch: activity counts from raw acceleration and an inactivity-alert watch model.

The streaming core turns 3-axis accelerometer samples into ActiGraph-style
vector-magnitude activity counts (band-pass filter, thresholds, count
conversion, sliding 1 s epochs, Euclidean norm) and feeds an inactivity timer
that triggers vibration alerts. A deterministic simulator reproduces the full
watch, buttons and LEDs included, in closed loop with its own motor.

The streaming core (`Biquad`, `CountsPipeline.process_sample`,
`InactivityDetector.tick`, `Device.tick`) imports only the standard library.
numpy loads on first use of a block path (`process_block`), of `sim`, whose
names this package resolves on first access, of `io` or of the command line.
"""

from .counts import (
    AxisWindow,
    CountsConfig,
    CountsPipeline,
    RawSample,
    VmCount,
    contribution,
    rectify_threshold,
    vm,
)
from .detector import (
    DetectorConfig,
    DetectorEvent,
    InactivityDetector,
)
from .device import (
    Device,
    DeviceConfig,
    DeviceSnapshot,
)
from .filters import (
    Biquad,
    BiquadCoefficients,
    FilterSpec,
    design_bandpass_cascade,
    frequency_response,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # filters
    "FilterSpec",
    "BiquadCoefficients",
    "design_bandpass_cascade",
    "Biquad",
    "frequency_response",
    # counts
    "RawSample",
    "CountsConfig",
    "VmCount",
    "rectify_threshold",
    "contribution",
    "vm",
    "AxisWindow",
    "CountsPipeline",
    # detector
    "DetectorConfig",
    "DetectorEvent",
    "InactivityDetector",
    # device
    "Device",
    "DeviceConfig",
    "DeviceSnapshot",
    # sim, resolved on first access by `__getattr__`
    "Scenario",
    "Rest",
    "SineMovement",
    "BurstMovement",
    "AmbientVibration",
    "MotorFeedback",
    "ButtonPress",
    "ScenarioSampler",
    "SimulationTrace",
    "run",
    "canonical_scenario",
]


def __getattr__(name: str):
    # The names of `__all__` not imported above are `sim`'s. `sim` imports numpy,
    # so it loads on the first access to one of them.
    if name in __all__:
        from . import sim

        value = globals()[name] = getattr(sim, name)
        return value
    # Any other name is not an attribute, so `from stillwatch import cli` goes
    # on to import the submodule.
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
