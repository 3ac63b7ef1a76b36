"""Jetson-class hardware platform simulator.

This package stands in for the paper's two physical testbeds (NVIDIA
Jetson TX2 and Jetson AGX Xavier).  It provides:

* :class:`PlatformSpec` presets with the boards' real GPU frequency
  tables (TX2: 13 levels, 114.75-1300.5 MHz; AGX: 14 levels,
  114.75-1377 MHz) and CMOS-style voltage/frequency curves,
* a roofline latency model and a voltage-aware power model,
* a discrete-event inference simulator with pluggable DVFS governors,
  sampled telemetry ("tegrastats") and exact energy integration,
* a DVFS actuator with configurable switch latency (the paper measures
  ~50 ms per level change on its devices).

Absolute watts/seconds are simulator-scale; the *relationships* the paper
exploits (convex energy-vs-frequency for compute-bound operators, low
optimal frequencies for memory-bound operators, reactive-governor lag)
are faithfully reproduced.
"""

from repro.hw.platform import (
    PlatformSpec,
    CpuSpec,
    jetson_tx2,
    jetson_agx_xavier,
    PLATFORM_PRESETS,
    get_platform,
)
from repro.hw.power import PowerModel
from repro.hw.perf import LatencyModel, OpTiming
from repro.hw.dvfs import DVFSController, DVFSSwitch, SwitchResult
from repro.hw.faults import (
    CapWindow,
    FaultInjector,
    FaultProfile,
    FaultStats,
    TransientWorkerError,
)
from repro.hw.telemetry import (
    Trace,
    TraceSegment,
    TelemetrySample,
    EnergyReport,
)
from repro.hw.simulator import InferenceSimulator, SimulationResult, InferenceJob

__all__ = [
    "PlatformSpec",
    "CpuSpec",
    "jetson_tx2",
    "jetson_agx_xavier",
    "PLATFORM_PRESETS",
    "get_platform",
    "PowerModel",
    "LatencyModel",
    "OpTiming",
    "DVFSController",
    "DVFSSwitch",
    "SwitchResult",
    "CapWindow",
    "FaultInjector",
    "FaultProfile",
    "FaultStats",
    "TransientWorkerError",
    "Trace",
    "TraceSegment",
    "TelemetrySample",
    "EnergyReport",
    "InferenceSimulator",
    "SimulationResult",
    "InferenceJob",
]
