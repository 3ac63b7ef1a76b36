"""Export experiment results as JSON records.

Every driver returns a structured result object; these helpers flatten
them into machine-readable records so downstream analysis (plotting,
regression tracking across simulator versions) doesn't scrape the
pretty-printed tables.
"""

from __future__ import annotations

import json
from typing import List

from repro.experiments.accuracy import AccuracyResult
from repro.experiments.figure5 import Figure5Result
from repro.experiments.table1 import Table1Result
from repro.experiments.table2 import Table2Result
from repro.experiments.table3 import Table3Result
from repro.serving.slo_report import SLOReport


def table1_records(result: Table1Result) -> List[dict]:
    """One record per (model, baseline) pair, plus per-model metadata."""
    records = []
    for row in result.rows:
        base = {
            "platform": result.platform,
            "model": row.model,
            "blocks": row.blocks,
            "ee_powerlens": row.ee_powerlens,
        }
        for method in result.methods:
            records.append({
                **base,
                "baseline": method,
                "ee_baseline": row.ee_by_method[method],
                "gain": row.gain_over(method),
            })
    return records


def table2_records(result: Table2Result) -> List[dict]:
    return [
        {
            "platform": result.platform,
            "model": row.model,
            "loss_pr": row.loss_pr,
            "loss_pn": row.loss_pn,
        }
        for row in result.rows
    ]


def table3_records(result: Table3Result) -> List[dict]:
    records = [
        {"platform": result.platform, "section": "training",
         "phase": phase, "seconds": seconds}
        for phase, seconds in result.report.training
    ]
    records += [
        {"platform": result.platform, "section": "workflow",
         "phase": phase, "seconds": seconds}
        for phase, seconds in result.report.workflow
    ]
    records.append({
        "platform": result.platform, "section": "runtime",
        "phase": "dvfs switch overhead",
        "seconds": result.report.dvfs_switch_overhead_s,
    })
    return records


def figure5_records(result: Figure5Result) -> List[dict]:
    return [
        {
            "platform": result.platform,
            "method": outcome.method,
            "energy_j": outcome.energy_j,
            "time_s": outcome.time_s,
            "energy_efficiency": outcome.energy_efficiency,
            "n_tasks": result.n_tasks,
            "images": result.images,
        }
        for outcome in result.outcomes.values()
    ]


def accuracy_records(result: AccuracyResult) -> List[dict]:
    summary = result.summary
    h, d = summary.hyperparam_report, summary.decision_report
    return [{
        "platform": result.platform,
        "n_networks": summary.generation.n_networks,
        "n_blocks": summary.generation.n_blocks,
        "hyperparam_accuracy": h.test_accuracy,
        "hyperparam_equivalent": h.equivalent_accuracy,
        "decision_accuracy": d.test_accuracy,
        "decision_within_1": d.within_1_accuracy,
        "decision_within_2": d.within_2_accuracy,
    }]


def serving_records(report: SLOReport) -> List[dict]:
    """One fleet-summary record plus one record per device."""
    records = [{
        "scope": "fleet",
        "policy": report.policy,
        "governor": report.governor,
        "arrival_kind": report.arrival_kind,
        "seed": report.seed,
        "arrived": report.arrived,
        "admitted": report.admitted,
        "completed": report.completed,
        "dropped_queue_full": report.dropped_queue_full,
        "dropped_expired": report.dropped_expired,
        "dropped_unserviceable": report.dropped_unserviceable,
        "slo_violations": report.slo_violations,
        "conserved": report.conserved,
        "latency_p50_s": report.latency_p50_s,
        "latency_p90_s": report.latency_p90_s,
        "latency_p99_s": report.latency_p99_s,
        "latency_mean_s": report.latency_mean_s,
        "fleet_energy_j": report.fleet_energy_j,
        "joules_per_request": report.joules_per_request,
        "makespan_s": report.makespan_s,
        "drained_device_seconds": report.drained_device_seconds,
    }]
    records += [
        {
            "scope": "device",
            "device": d.name,
            "platform": d.platform,
            "jobs": d.jobs,
            "requests": d.requests,
            "busy_time_s": d.busy_time_s,
            "energy_j": d.energy_j,
            "anomalies": d.anomalies,
            "drained": d.drained,
            "drained_seconds": d.drained_seconds,
            "readmissions": d.readmissions,
            "plan_cache_hits": d.plan_cache_hits,
            "plan_cache_misses": d.plan_cache_misses,
        }
        for d in report.devices
    ]
    return records


_EXPORTERS = {
    Table1Result: table1_records,
    Table2Result: table2_records,
    Table3Result: table3_records,
    Figure5Result: figure5_records,
    AccuracyResult: accuracy_records,
    SLOReport: serving_records,
}


def to_records(result) -> List[dict]:
    """Dispatch any known result object to its record exporter."""
    for cls, exporter in _EXPORTERS.items():
        if isinstance(result, cls):
            return exporter(result)
    raise TypeError(f"no exporter for {type(result).__name__}")


def _canonical_value(value):
    """Round-trip floats through a 10-significant-digit rendering so the
    JSON text of one record is byte-stable across platforms and numpy
    versions while ignoring sub-noise last-bit drift."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    return value


def canonical_records(result) -> List[dict]:
    """:func:`to_records` with every float canonically rounded — the
    form golden-regression fixtures are stored and compared in."""
    return [{k: _canonical_value(v) for k, v in record.items()}
            for record in to_records(result)]


def canonical_json(result) -> str:
    """Byte-stable JSON for golden-regression fixtures."""
    return json.dumps(canonical_records(result), indent=1, sort_keys=True)

