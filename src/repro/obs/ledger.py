"""Energy attribution ledger: who burned the joules?

The simulator's :class:`~repro.hw.telemetry.Trace` is an exact,
piecewise-constant record of the run; every ``gpu_op`` segment now
carries the canonical index of the operator it executes.  The
:class:`EnergyLedger` folds those segments into the accounting operators
actually care about:

* **per power block** — each block of the preset plan gets the wall
  time, platform energy and DVFS-level residency of exactly the
  segments its operators produced;
* **per operator** — same attribution one level finer;
* **overheads** — CPU preprocessing, switch stalls and idle time that
  belong to no block land in named overhead buckets instead of
  disappearing.

Two invariants make the ledger trustworthy:

* **reconciliation** — the attributed energy and time, summed over
  every block and overhead bucket, equal the simulator's own totals to
  within 1e-9 relative error (property-tested across random nets,
  fault profiles and governors in ``tests/test_obs_ledger.py``);
* **observe-only** — the ledger is computed *after* the run from the
  trace; it cannot perturb the computation it accounts for.

On top of attribution the ledger answers the PowerLens question "did
the preset frequency actually win?": with an
:class:`~repro.hw.analytic.AnalyticEvaluator` attached, every block's
planned level is compared against the exhaustive
:class:`~repro.hw.analytic.ProfileTable` sweep, and blocks where a
different level would have beaten the preset by more than
:data:`MISPREDICTION_MARGIN` are flagged *mispredicted* — exactly the
fine-grained per-layer verdict Rodrigues et al. profile for on real
hardware.  ``powerlens ledger`` renders the result as a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.hw.telemetry import KIND_CPU, KIND_GPU_OP, KIND_IDLE, \
    KIND_SWITCH

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.graph import Graph
    from repro.hw.analytic import AnalyticEvaluator
    from repro.hw.simulator import SimulationResult
    from repro.governors.preset import FrequencyPlan

__all__ = ["BlockLedgerRow", "OpLedgerRow", "Reconciliation",
           "EnergyLedger", "RECONCILIATION_TOLERANCE"]

#: Acceptance bound on the attribution closure (relative error).
RECONCILIATION_TOLERANCE = 1e-9

#: Relative analytic saving another level must offer over the planned
#: one before a block counts as mispredicted.
MISPREDICTION_MARGIN = 0.005

#: Overhead bucket names (segment kinds that belong to no power block).
OVERHEAD_KINDS = (KIND_CPU, KIND_SWITCH, KIND_IDLE)


@dataclass
class OpLedgerRow:
    """Attributed totals for one operator (canonical compute index)."""

    op_index: int
    label: str = ""
    time_s: float = 0.0
    energy_j: float = 0.0

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0


@dataclass
class BlockLedgerRow:
    """Attributed totals plus the planned-vs-optimal verdict for one
    power block."""

    index: int
    op_start: int
    op_stop: int                     # exclusive
    planned_level: Optional[int] = None
    time_s: float = 0.0
    energy_j: float = 0.0
    #: Wall time spent at each DVFS level inside this block's segments.
    level_time: Dict[int, float] = field(default_factory=dict)
    #: Exhaustive-sweep winner from the ProfileTable (None when the
    #: ledger was built without an evaluator).
    best_level: Optional[int] = None
    #: Analytic energy at the planned / best level (one batch).
    planned_energy_j: Optional[float] = None
    best_energy_j: Optional[float] = None
    mispredicted: bool = False

    @property
    def n_ops(self) -> int:
        return self.op_stop - self.op_start

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0

    @property
    def predicted_savings_frac(self) -> float:
        """Analytic energy the best level would have saved, relative to
        the planned level (0 when the plan already won)."""
        if not self.planned_energy_j or self.best_energy_j is None:
            return 0.0
        return max(0.0, (self.planned_energy_j - self.best_energy_j)
                   / self.planned_energy_j)


@dataclass(frozen=True)
class Reconciliation:
    """Closure check of the attribution against the simulator totals."""

    attributed_energy_j: float
    trace_energy_j: float
    attributed_time_s: float
    trace_time_s: float

    @property
    def energy_rel_err(self) -> float:
        scale = max(abs(self.trace_energy_j), 1e-300)
        return abs(self.attributed_energy_j - self.trace_energy_j) / scale

    @property
    def time_rel_err(self) -> float:
        scale = max(abs(self.trace_time_s), 1e-300)
        return abs(self.attributed_time_s - self.trace_time_s) / scale

    @property
    def ok(self) -> bool:
        return (self.energy_rel_err <= RECONCILIATION_TOLERANCE
                and self.time_rel_err <= RECONCILIATION_TOLERANCE)


class EnergyLedger:
    """Per-block / per-op energy attribution for one simulator run.

    Build with :meth:`from_result` (or the
    :meth:`repro.core.pipeline.PowerLens.ledger` convenience, which
    also wires up the misprediction analysis).
    """

    def __init__(self, blocks: List[BlockLedgerRow],
                 ops: List[OpLedgerRow],
                 overheads: Dict[str, Tuple[float, float]],
                 reconciliation: Reconciliation,
                 images: int = 0) -> None:
        self.blocks = blocks
        self.ops = ops
        #: kind -> (time_s, energy_j) for segments outside every block.
        self.overheads = overheads
        self.reconciliation = reconciliation
        self.images = images

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result: "SimulationResult",
                    plan: Optional["FrequencyPlan"] = None,
                    graph: Optional["Graph"] = None,
                    evaluator: Optional["AnalyticEvaluator"] = None,
                    batch_size: int = 16,
                    latency_slack: float = 0.25,
                    sparsity: float = 0.0) -> "EnergyLedger":
        """Attribute ``result``'s trace.

        ``plan`` partitions operators into power blocks (without one the
        whole graph is a single block).  ``graph`` + ``evaluator``
        additionally enable the planned-vs-optimal sweep; a block is
        flagged mispredicted when some other level's analytic energy
        beats the planned level's by more than
        :data:`MISPREDICTION_MARGIN` (relative).  ``sparsity`` must match
        the job's activation sparsity so the sweep runs against the
        workload the trace actually executed.
        """
        trace = result.trace
        if not trace.keep_segments or (trace.total_time > 0
                                       and not trace.segments):
            raise ValueError(
                "EnergyLedger needs a full trace: run the simulator "
                "with keep_trace=True")
        kinds, op_indices = trace.column("kind"), trace.column("op_index")
        gpu_op = trace.code(KIND_GPU_OP)
        # Blocks partition the ops of ``graph``, else of the trace.
        if graph is not None:
            n_ops = max(len(graph.compute_nodes()), 1)
        else:
            n_ops = 1 + max((op for kind, op in zip(kinds, op_indices)
                             if kind == gpu_op and op >= 0), default=0)
        if plan is not None:
            # Every op up to the plan's last step belongs to a block, so
            # each step's block is non-empty.
            n_ops = max(n_ops, plan.max_op_index + 1)
            spans = plan.spans(n_ops)
            planned_levels = [s.level for s in plan.steps]
        else:
            spans = [(0, n_ops)]
            planned_levels = [None]
        blocks = [
            BlockLedgerRow(index=i, op_start=start, op_stop=stop,
                           planned_level=level)
            for i, ((start, stop), level) in enumerate(zip(spans,
                                                           planned_levels))
        ]
        op_rows: Dict[int, OpLedgerRow] = {}
        overheads: Dict[str, Tuple[float, float]] = {}
        over_t = {k: 0.0 for k in OVERHEAD_KINDS}
        over_e = {k: 0.0 for k in OVERHEAD_KINDS}
        block_of_op = [i for i, (start, stop) in enumerate(spans)
                       for _ in range(start, stop)]

        # Duration and energy elementwise; the attribution below stays a
        # sequential loop, so every sum has the order it always had.
        dts, energies = trace.durations_energies()
        strings = trace.strings
        for dt, energy, kind, gpu_level, op_index, label in zip(
                memoryview(dts), memoryview(energies), kinds,
                trace.column("gpu_level"), op_indices,
                trace.column("label")):
            if kind == gpu_op and op_index >= 0:
                row = blocks[block_of_op[op_index]] \
                    if op_index < n_ops else None
                if row is None:
                    over_t.setdefault("unattributed", 0.0)
                    over_e.setdefault("unattributed", 0.0)
                    over_t["unattributed"] += dt
                    over_e["unattributed"] += energy
                    continue
                row.time_s += dt
                row.energy_j += energy
                row.level_time[gpu_level] = \
                    row.level_time.get(gpu_level, 0.0) + dt
                op = op_rows.get(op_index)
                if op is None:
                    op = op_rows[op_index] = OpLedgerRow(
                        op_index=op_index, label=strings[label])
                op.time_s += dt
                op.energy_j += energy
            else:
                kind = strings[kind]
                kind = kind if kind in over_t else "unattributed"
                over_t.setdefault(kind, 0.0)
                over_e.setdefault(kind, 0.0)
                over_t[kind] += dt
                over_e[kind] += energy

        for kind in over_t:
            if over_t[kind] or over_e[kind]:
                overheads[kind] = (over_t[kind], over_e[kind])

        attributed_e = math.fsum(
            [b.energy_j for b in blocks] + [e for _, e in
                                            overheads.values()])
        attributed_t = math.fsum(
            [b.time_s for b in blocks] + [t for t, _ in
                                          overheads.values()])
        reconciliation = Reconciliation(
            attributed_energy_j=attributed_e,
            trace_energy_j=trace.total_energy,
            attributed_time_s=attributed_t,
            trace_time_s=trace.total_time,
        )
        ledger = cls(
            blocks=blocks,
            ops=sorted(op_rows.values(), key=lambda r: r.op_index),
            overheads=overheads,
            reconciliation=reconciliation,
            images=result.report.images,
        )
        if graph is not None and evaluator is not None:
            ledger._analyze_mispredictions(
                graph, evaluator, batch_size, latency_slack, sparsity)
        return ledger

    def _analyze_mispredictions(self, graph, evaluator, batch_size,
                                latency_slack,
                                sparsity: float = 0.0) -> None:
        table = evaluator.profile_table(graph, batch_size, sparsity)
        rows = [row for row in self.blocks
                if row.op_start < min(row.op_stop, table.n_ops)]
        spans = [(row.op_start, min(row.op_stop, table.n_ops))
                 for row in rows]
        for row, span, best in zip(rows, spans,
                                   table.levels(spans, latency_slack)):
            profile = table.span_profile(*span)
            row.best_level = best
            row.best_energy_j = float(profile.energies[best])
            if row.planned_level is not None:
                planned = min(max(row.planned_level, 0),
                              table.n_levels - 1)
                row.planned_energy_j = float(profile.energies[planned])
                row.mispredicted = (
                    best != planned
                    and row.predicted_savings_frac > MISPREDICTION_MARGIN)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def total_energy_j(self) -> float:
        return self.reconciliation.attributed_energy_j

    @property
    def total_time_s(self) -> float:
        return self.reconciliation.attributed_time_s

    def mispredicted_blocks(self) -> List[BlockLedgerRow]:
        return [b for b in self.blocks if b.mispredicted]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (``--json``)."""
        return {
            "images": self.images,
            "reconciliation": {
                "attributed_energy_j":
                    self.reconciliation.attributed_energy_j,
                "trace_energy_j": self.reconciliation.trace_energy_j,
                "energy_rel_err": self.reconciliation.energy_rel_err,
                "time_rel_err": self.reconciliation.time_rel_err,
                "ok": self.reconciliation.ok,
            },
            "blocks": [
                {
                    "index": b.index,
                    "ops": [b.op_start, b.op_stop],
                    "planned_level": b.planned_level,
                    "best_level": b.best_level,
                    "time_s": b.time_s,
                    "energy_j": b.energy_j,
                    "mean_power_w": b.mean_power_w,
                    "mispredicted": b.mispredicted,
                    "predicted_savings_frac": b.predicted_savings_frac,
                    "level_time": {str(k): v
                                   for k, v in sorted(b.level_time.items())},
                }
                for b in self.blocks
            ],
            "overheads": {k: {"time_s": t, "energy_j": e}
                          for k, (t, e) in sorted(self.overheads.items())},
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def format_table(self) -> str:
        """Human-readable per-block EE table (``powerlens ledger``)."""
        lines: List[str] = []
        total_e = self.total_energy_j
        header = (f"{'block':>5s} {'ops':>9s} {'plan':>5s} {'best':>5s} "
                  f"{'time':>10s} {'energy':>10s} {'share':>6s} "
                  f"{'power':>8s}  verdict")
        lines.append(header)
        lines.append("-" * len(header))
        for b in self.blocks:
            plan_s = "-" if b.planned_level is None else str(b.planned_level)
            best_s = "-" if b.best_level is None else str(b.best_level)
            share = b.energy_j / total_e if total_e > 0 else 0.0
            if b.best_level is None:
                verdict = "-"
            elif b.mispredicted:
                verdict = (f"MISPREDICTED "
                           f"(-{b.predicted_savings_frac * 100:.1f}% "
                           f"at L{b.best_level})")
            else:
                verdict = "ok"
            lines.append(
                f"{b.index:>5d} {b.op_start:>4d}-{b.op_stop - 1:<4d} "
                f"{plan_s:>5s} {best_s:>5s} "
                f"{b.time_s * 1000:>7.2f} ms {b.energy_j:>8.4f} J "
                f"{share * 100:>5.1f}% {b.mean_power_w:>6.2f} W  "
                f"{verdict}")
        for kind, (t, e) in sorted(self.overheads.items()):
            share = e / total_e if total_e > 0 else 0.0
            lines.append(
                f"{kind:>5s} {'':>9s} {'':>5s} {'':>5s} "
                f"{t * 1000:>7.2f} ms {e:>8.4f} J {share * 100:>5.1f}% "
                f"{(e / t if t > 0 else 0.0):>6.2f} W  overhead")
        rec = self.reconciliation
        lines.append("")
        if self.images > 0 and total_e > 0:
            lines.append(f"total: {self.total_time_s * 1000:.2f} ms, "
                         f"{total_e:.4f} J, "
                         f"EE {self.images / total_e:.2f} images/J "
                         f"({self.images} images)")
        else:
            lines.append(f"total: {self.total_time_s * 1000:.2f} ms, "
                         f"{total_e:.4f} J")
        lines.append(
            f"reconciliation: energy rel err {rec.energy_rel_err:.2e}, "
            f"time rel err {rec.time_rel_err:.2e} "
            f"({'ok' if rec.ok else 'FAILED'})")
        n_miss = len(self.mispredicted_blocks())
        if any(b.best_level is not None for b in self.blocks):
            lines.append(f"mispredicted blocks: {n_miss} / "
                         f"{len(self.blocks)}")
        return "\n".join(lines)
