"""Trace-file replay: read a JSONL trace, rebuild the span tree, and
render a human summary (the ``powerlens trace <file>`` command).

A trace file (written by :meth:`repro.obs.tracing.Tracer.export_jsonl`)
is JSON Lines: an optional ``meta`` header, one ``span`` record per
finished span, and an optional trailing ``metrics`` snapshot.  Replay is
tolerant of truncation — it reads what parses and reports what it saw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["TraceFile", "SpanNode", "read_trace", "span_tree",
           "summarize_trace"]

_REQUIRED_SPAN_KEYS = ("span_id", "name", "t_start", "t_end")

#: Children shown per span in the summary tree (the rest are elided).
MAX_CHILDREN = 8


@dataclass
class SpanNode:
    """One span record plus its children (rebuilt from parent links)."""

    record: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def duration(self) -> float:
        return self.record["t_end"] - self.record["t_start"]


@dataclass
class TraceFile:
    """Parsed trace: span records in file order, plus side channels."""

    spans: List[Dict[str, Any]] = field(default_factory=list)
    meta: Optional[Dict[str, Any]] = None
    metrics: Optional[MetricsRegistry] = None
    malformed_lines: int = 0


def read_trace(path: Union[str, Path]) -> TraceFile:
    """Parse a JSONL trace file (see module docstring).

    Hardened against the ways real trace files break: undecodable
    bytes (read with replacement characters), a torn final line from a
    killed writer, two records interleaved onto one line by concurrent
    appenders, spans with non-numeric timestamps, and metrics
    snapshots that no longer load.  Every unusable fragment counts one
    ``malformed_lines``; everything salvageable is kept.
    """
    trace = TraceFile()
    text = Path(path).read_text(errors="replace")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        for record in _decode_line(line, trace):
            _ingest(record, trace)
    return trace


def _decode_line(line: str, trace: TraceFile) -> List[Dict[str, Any]]:
    """All complete JSON objects on one line (torn writes produce
    partial trailing objects; interleaved appends produce several)."""
    try:
        record = json.loads(line)
        return [record] if isinstance(record, dict) else _bad(trace)
    except json.JSONDecodeError:
        pass
    # Recovery scan: peel leading objects off the line one at a time.
    decoder = json.JSONDecoder()
    records: List[Dict[str, Any]] = []
    pos, end = 0, len(line)
    while pos < end:
        try:
            record, pos = decoder.raw_decode(line, pos)
        except json.JSONDecodeError:
            break
        if isinstance(record, dict):
            records.append(record)
        else:
            trace.malformed_lines += 1
        while pos < end and line[pos] in " \t,":
            pos += 1
    if pos < end or not records:
        # A torn trailing fragment (or nothing decodable at all).
        trace.malformed_lines += 1
    return records


def _bad(trace: TraceFile) -> List[Dict[str, Any]]:
    trace.malformed_lines += 1
    return []


def _ingest(record: Dict[str, Any], trace: TraceFile) -> None:
    kind = record.get("type")
    if kind == "meta":
        trace.meta = record
    elif kind == "metrics":
        try:
            trace.metrics = MetricsRegistry.from_dict(record["metrics"])
        except (AttributeError, KeyError, TypeError, ValueError):
            trace.malformed_lines += 1
    elif kind == "span":
        if any(k not in record for k in _REQUIRED_SPAN_KEYS):
            trace.malformed_lines += 1
            return
        if not all(isinstance(record[k], (int, float))
                   and not isinstance(record[k], bool)
                   for k in ("t_start", "t_end")):
            trace.malformed_lines += 1
            return
        trace.spans.append(record)
    else:
        trace.malformed_lines += 1


def span_tree(spans: List[Dict[str, Any]]) -> List[SpanNode]:
    """Rebuild the forest from parent links.  Spans whose parent is
    missing from the file (dropped by the bounded buffer) become
    roots, so a truncated trace still renders."""
    nodes = {rec["span_id"]: SpanNode(rec) for rec in spans}
    roots: List[SpanNode] = []
    for rec in spans:
        parent = rec.get("parent_id")
        node = nodes[rec["span_id"]]
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    return roots


def _aggregate(spans: List[Dict[str, Any]]) -> List[tuple]:
    stats: Dict[str, List[float]] = {}
    for rec in spans:
        entry = stats.setdefault(rec["name"], [0.0, 0])
        entry[0] += rec["t_end"] - rec["t_start"]
        entry[1] += 1
    return sorted(((name, total, int(count))
                   for name, (total, count) in stats.items()),
                  key=lambda row: -row[1])


def _render_node(node: SpanNode, lines: List[str], depth: int,
                 max_depth: int) -> None:
    attrs = node.record.get("attrs") or {}
    attr_text = ""
    if attrs:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        attr_text = f"  [{parts}]"
    lines.append(f"{'  ' * depth}{node.name:<28s} "
                 f"{node.duration * 1000:10.3f} ms{attr_text}")
    if depth + 1 >= max_depth:
        if node.children:
            lines.append(f"{'  ' * (depth + 1)}... "
                         f"({len(node.children)} child span(s) elided)")
        return
    for child in node.children[:MAX_CHILDREN]:
        _render_node(child, lines, depth + 1, max_depth)
    if len(node.children) > MAX_CHILDREN:
        lines.append(f"{'  ' * (depth + 1)}... "
                     f"({len(node.children) - MAX_CHILDREN} more)")


def summarize_trace(trace: TraceFile, max_depth: int = 4) -> str:
    """Human summary: per-name aggregates, the (depth/width-limited)
    span tree, and the metrics snapshot when present."""
    lines: List[str] = []
    n = len(trace.spans)
    dropped = (trace.meta or {}).get("dropped", 0)
    header = f"trace: {n} span(s)"
    if dropped:
        header += f" ({dropped} dropped at capture)"
    if trace.malformed_lines:
        header += f", {trace.malformed_lines} malformed line(s) skipped"
    lines.append(header)
    if not trace.spans:
        return "\n".join(lines)

    lines.append("")
    lines.append(f"{'span name':<32s} {'count':>6s} {'total':>12s} "
                 f"{'mean':>12s}")
    for name, total, count in _aggregate(trace.spans):
        lines.append(f"{name:<32s} {count:>6d} {total * 1000:>9.3f} ms "
                     f"{total / count * 1000:>9.3f} ms")

    lines.append("")
    lines.append("span tree:")
    for root in span_tree(trace.spans):
        _render_node(root, lines, 1, max_depth + 1)

    if trace.metrics is not None and len(trace.metrics):
        lines.append("")
        lines.append("metrics:")
        for name in trace.metrics.names():
            metric = trace.metrics.get(name)
            if isinstance(metric, Counter):
                lines.append(f"  {name:<44s} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"  {name:<44s} {metric.value:g}")
            elif isinstance(metric, Histogram):
                quantiles = ""
                if metric.count:
                    quantiles = (
                        f" p50={metric.quantile(0.50):.6g} "
                        f"p90={metric.quantile(0.90):.6g} "
                        f"p99={metric.quantile(0.99):.6g}")
                lines.append(f"  {name:<44s} count={metric.count} "
                             f"sum={metric.sum:.6f}{quantiles}")
    return "\n".join(lines)
