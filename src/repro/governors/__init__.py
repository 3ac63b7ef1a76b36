"""DVFS governors: the paper's three baselines plus utility governors.

* :class:`OndemandGovernor` — the built-in method (BiM), the Linux
  simple_ondemand devfreq policy both Jetson boards ship with.
* :class:`FPGGovernor` — the FPG heuristic of Karzhaubayeva et al.
  (reference [5] of the paper), in GPU-only (FPG-G) and CPU+GPU
  (FPG-C+G) variants.
* :class:`StaticGovernor` — pinned level (used by frequency sweeps).
* :class:`PresetGovernor` — executes a per-block frequency plan at
  operator-boundary instrumentation points; this is the runtime half of
  PowerLens (the plan itself comes from :mod:`repro.core`).
* :class:`OracleGovernor` — exhaustive per-block optimum, the upper
  bound used to sanity-check the decision model.
* :class:`AdaptivePresetGovernor` — the preset runtime plus a closed
  feedback loop: ledger misprediction flags and anomaly signals drive
  bounded, re-scored plan corrections between jobs, with rollback to
  the last-good plan when a correction regresses.
* :class:`PlanCache` — the input-aware plan *family*: one analytic
  plan per (batch, sparsity bucket), selected before each job and
  holding adopted corrections per member (:mod:`repro.governors.family`).
"""

from repro.governors.base import (
    Governor,
    GOVERNOR_REGISTRY,
    make_governor,
    sample_is_valid,
)
from repro.governors.static import StaticGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.fpg import FPGGovernor, fpg_g, fpg_cg
from repro.governors.preset import (
    PresetGovernor,
    FrequencyPlan,
    PlanStep,
    RuntimeHealth,
)
from repro.governors.oracle import OracleGovernor
from repro.governors.adaptive import (
    AdaptivePresetGovernor,
    ReplanHealth,
)
from repro.governors.family import PlanCache, analytic_plan

__all__ = [
    "AdaptivePresetGovernor",
    "ReplanHealth",
    "PlanCache",
    "analytic_plan",
    "Governor",
    "GOVERNOR_REGISTRY",
    "make_governor",
    "sample_is_valid",
    "StaticGovernor",
    "OndemandGovernor",
    "FPGGovernor",
    "fpg_g",
    "fpg_cg",
    "PresetGovernor",
    "FrequencyPlan",
    "PlanStep",
    "RuntimeHealth",
    "OracleGovernor",
]
