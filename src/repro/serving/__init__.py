"""Fleet-scale serving simulator: PowerLens as a planner service.

``repro.serving`` turns the single-board simulator into a
request-driven serving system (the ROADMAP's "millions of users" north
star): seedable arrival traces (:mod:`~repro.serving.arrivals`),
batch-coalescing queueing policies (:mod:`~repro.serving.queueing`),
a heterogeneous device fleet with per-device plan stores and
anomaly-fed health (:mod:`~repro.serving.fleet`), a deterministic
discrete-event scheduler (:mod:`~repro.serving.scheduler`) and the
fleet SLO report (:mod:`~repro.serving.slo_report`), a fold of the
scheduler's event log.

Entry point::

    from repro.serving import (DeviceConfig, Fleet, FleetScheduler,
                               SchedulerConfig, poisson_trace)

    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-0", "agx")],
                        governor="powerlens")
    trace = poisson_trace(rate_rps=20, duration_s=2.0,
                          models=["alexnet"], seed=7)
    result = FleetScheduler(fleet, SchedulerConfig("slo")).run(trace)
    print(result.report.format_table())

Determinism contract: identical ``(trace, fleet config, scheduler
config)`` gives byte-identical event logs and fleet joules across runs
(``tests/test_serving_determinism.py``).
"""

from repro.serving.arrivals import (
    ArrivalTrace,
    Request,
    TRACE_KINDS,
    bursty_trace,
    make_trace,
    poisson_trace,
)
from repro.governors.family import PlanCache, analytic_plan
from repro.serving.fleet import (
    DeviceConfig,
    DispatchRecord,
    Fleet,
    RecoveryConfig,
    FAMILY_GOVERNORS,
    SERVING_GOVERNORS,
    SimulatedDevice,
    derive_seed,
)
from repro.serving.queueing import (
    DeadlinePolicy,
    EnergyAwarePolicy,
    FifoPolicy,
    POLICY_REGISTRY,
    QueuePolicy,
    make_policy,
)
from repro.serving.request_trace import (
    RequestTracer,
    SamplingConfig,
    head_sample_keep,
)
from repro.serving.scheduler import (
    FleetScheduler,
    SchedulerConfig,
    ServingResult,
    canonical_event_line,
)
from repro.serving.slo_report import (
    DeviceSummary,
    SLOReport,
    nearest_rank,
)

__all__ = [
    "ArrivalTrace", "Request", "TRACE_KINDS", "bursty_trace",
    "make_trace", "poisson_trace",
    "DeviceConfig", "DispatchRecord", "Fleet", "PlanCache",
    "RecoveryConfig", "FAMILY_GOVERNORS", "SERVING_GOVERNORS",
    "SimulatedDevice",
    "analytic_plan", "derive_seed",
    "DeadlinePolicy", "EnergyAwarePolicy", "FifoPolicy",
    "POLICY_REGISTRY", "QueuePolicy", "make_policy",
    "FleetScheduler", "SchedulerConfig", "ServingResult",
    "canonical_event_line",
    "RequestTracer", "SamplingConfig",
    "head_sample_keep",
    "DeviceSummary", "SLOReport", "nearest_rank",
]
