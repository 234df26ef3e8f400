"""stillwatch: activity counts from raw acceleration and an inactivity-alert watch model.

The streaming core turns 3-axis accelerometer samples into ActiGraph-style
vector-magnitude activity counts (band-pass filter, thresholds, count
conversion, sliding 1 s epochs, Euclidean norm) and feeds an inactivity timer
that triggers vibration alerts. A deterministic simulator reproduces the full
watch, buttons and LEDs included, in closed loop with its own motor.
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
    RESET,
    VIB_END,
    VIB_START,
    DetectorConfig,
    DetectorEvent,
    DetectorOutput,
    InactivityDetector,
    detector_tick,
)
from .device import (
    POWER,
    RED_TOGGLE,
    SELECT,
    Device,
    DeviceConfig,
    DeviceSnapshot,
    replay_event_log,
)
from .filters import (
    Biquad,
    BiquadCoefficients,
    FilterSpec,
    design_bandpass_cascade,
    frequency_response,
)
from .sim import (
    AmbientVibration,
    BurstMovement,
    ButtonPress,
    MotorFeedback,
    Rest,
    Scenario,
    ScenarioSampler,
    SimulationTrace,
    SineMovement,
    canonical_scenario,
    run,
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
    "DetectorOutput",
    "DetectorEvent",
    "InactivityDetector",
    "detector_tick",
    "RESET",
    "VIB_START",
    "VIB_END",
    # device
    "Device",
    "DeviceConfig",
    "DeviceSnapshot",
    "replay_event_log",
    "SELECT",
    "RED_TOGGLE",
    "POWER",
    # sim
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
