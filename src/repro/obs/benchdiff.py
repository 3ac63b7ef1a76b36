"""Benchmark regression diff: ``powerlens bench-diff OLD NEW``.

The perf benches (``benchmarks/``) append machine-readable sections to
``BENCH_*.json`` files.  This module compares two such files with
*per-key tolerances*, so CI can smoke-check that a fresh bench run has
not silently changed shape or regressed an order of magnitude, without
flaking on the noise inherent to shared runners:

* **exact keys** (corpus shape: ``n_networks``, ``n_blocks``,
  ``n_jobs``, ``n_schemes``) must match bit-for-bit;
* **ignored keys** (environment stamps: ``recorded_at``, ``host``,
  ``host_cpus``, ``*_note``) never participate;
* everything numeric else compares within a relative tolerance
  (default ±50 %, overridable per key pattern);
* structural drift — a key present on one side only — is reported as a
  warning (``strict=True`` upgrades it to a failure): benches
  legitimately gain fields (and drop meaningless ones, e.g.
  ``pool_speedup`` on single-CPU hosts).

The comparison is direction-blind on purpose: it is a *smoke* check
for "same benchmark, same ballpark", not a perf gate — the benches
themselves carry the hard speedup assertions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["BenchDiff", "DiffRow", "diff_benchmarks", "load_bench",
           "format_diff", "DEFAULT_REL_TOL"]

#: Default relative tolerance for numeric comparisons.
DEFAULT_REL_TOL = 0.5

#: Leaf keys that must match exactly (dataset/bench shape).
EXACT_KEYS = frozenset({"n_networks", "n_blocks", "n_jobs", "n_schemes"})

#: Leaf keys that never participate (environment stamps).
IGNORED_KEYS = frozenset({"recorded_at", "host", "host_cpus"})

STATUS_OK = "ok"
STATUS_WARN = "warn"
STATUS_FAIL = "fail"


@dataclass(frozen=True)
class DiffRow:
    """One compared leaf."""

    path: str
    status: str
    old: Any = None
    new: Any = None
    note: str = ""


@dataclass
class BenchDiff:
    """Full comparison outcome."""

    rows: List[DiffRow]
    strict: bool = False

    @property
    def failures(self) -> List[DiffRow]:
        bad = {STATUS_FAIL}
        if self.strict:
            bad.add(STATUS_WARN)
        return [r for r in self.rows if r.status in bad]

    @property
    def warnings(self) -> List[DiffRow]:
        return [r for r in self.rows if r.status == STATUS_WARN]

    @property
    def ok(self) -> bool:
        return not self.failures


def load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    """Load one ``BENCH_*.json`` file (must be a JSON object)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: benchmark file must hold a JSON "
                         f"object, got {type(data).__name__}")
    return data


def diff_benchmarks(old: Dict[str, Any], new: Dict[str, Any],
                    rel_tol: float = DEFAULT_REL_TOL,
                    tolerances: Optional[Dict[str, float]] = None,
                    strict: bool = False) -> BenchDiff:
    """Compare two benchmark payloads.

    ``tolerances`` maps a leaf-key name (e.g. ``"speedup"``), a full
    dotted path (e.g. ``"datagen_scaling.pooled.wall_time_s"``), or any
    dotted sub-path (e.g. ``"stage_seconds"`` covers every leaf under
    every ``stage_seconds`` dict) to a relative tolerance overriding
    ``rel_tol`` for the matching keys.  Precedence: full path, then
    leaf name, then the longest matching sub-path.
    """
    if rel_tol < 0:
        raise ValueError("rel_tol must be >= 0")
    rows: List[DiffRow] = []
    _walk("", old, new, rel_tol, tolerances or {}, rows)
    return BenchDiff(rows=rows, strict=strict)


def _tol_for(path: str, leaf: str, rel_tol: float,
             overrides: Dict[str, float]) -> float:
    if path in overrides:
        return overrides[path]
    if leaf in overrides:
        return overrides[leaf]
    # Interior-key match: "stage_seconds" should cover
    # "datagen_scaling.pooled.stage_seconds.distance".  Longest (most
    # specific) matching sub-path wins.
    haystack = f".{path}."
    best_key = None
    for key in overrides:
        if f".{key}." in haystack:
            if best_key is None or len(key) > len(best_key):
                best_key = key
    if best_key is not None:
        return overrides[best_key]
    return rel_tol


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(prefix: str, old: Any, new: Any, rel_tol: float,
          overrides: Dict[str, float], rows: List[DiffRow]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key in IGNORED_KEYS or key.endswith("_note"):
                continue
            path = f"{prefix}.{key}" if prefix else key
            if key not in old:
                rows.append(DiffRow(path, STATUS_WARN, new=new[key],
                                    note="only in NEW"))
            elif key not in new:
                rows.append(DiffRow(path, STATUS_WARN, old=old[key],
                                    note="only in OLD"))
            else:
                _walk(path, old[key], new[key], rel_tol, overrides, rows)
        return
    leaf = prefix.rsplit(".", 1)[-1]
    rows.append(_compare_leaf(prefix, leaf, old, new,
                              _tol_for(prefix, leaf, rel_tol, overrides)))


def _compare_leaf(path: str, leaf: str, old: Any, new: Any,
                  tol: float) -> DiffRow:
    if type(old) is not type(new) and not (
            _is_number(old) and _is_number(new)):
        return DiffRow(path, STATUS_FAIL, old, new,
                       note=f"type changed ({type(old).__name__} -> "
                            f"{type(new).__name__})")
    if leaf in EXACT_KEYS or not _is_number(old):
        if old == new:
            return DiffRow(path, STATUS_OK, old, new)
        note = "exact key differs" if leaf in EXACT_KEYS else \
            "value differs"
        return DiffRow(path, STATUS_FAIL, old, new, note=note)
    # Numeric leaf under relative tolerance.
    scale = max(abs(float(old)), abs(float(new)))
    if scale == 0:
        return DiffRow(path, STATUS_OK, old, new)
    rel = abs(float(new) - float(old)) / scale
    if rel <= tol:
        return DiffRow(path, STATUS_OK, old, new,
                       note=f"{rel * 100:.1f}%")
    return DiffRow(path, STATUS_FAIL, old, new,
                   note=f"{rel * 100:.1f}% > {tol * 100:.0f}% tolerance")


def format_diff(diff: BenchDiff, verbose: bool = False) -> str:
    """Render the comparison (failures + warnings; ``verbose`` adds the
    full leaf-by-leaf table)."""
    lines: List[str] = []
    shown = diff.rows if verbose else \
        [r for r in diff.rows if r.status != STATUS_OK]
    for row in shown:
        value = ""
        if row.old is not None or row.new is not None:
            value = f" {row.old!r} -> {row.new!r}"
        note = f"  ({row.note})" if row.note else ""
        lines.append(f"{row.status.upper():>4s} {row.path}{value}{note}")
    n_ok = sum(1 for r in diff.rows if r.status == STATUS_OK)
    lines.append(
        f"bench-diff: {n_ok} ok, {len(diff.warnings)} warning(s), "
        f"{len([r for r in diff.rows if r.status == STATUS_FAIL])} "
        f"failure(s) -> {'OK' if diff.ok else 'FAIL'}")
    return "\n".join(lines)


def parse_tolerance_specs(specs: List[str]) -> Dict[str, float]:
    """Parse ``--tolerance key=0.25`` CLI specs."""
    out: Dict[str, float] = {}
    for spec in specs:
        key, sep, value = spec.partition("=")
        if not sep or not key:
            raise ValueError(
                f"bad tolerance spec {spec!r} (want key=REL_TOL)")
        out[key.strip()] = float(value)
    return out
