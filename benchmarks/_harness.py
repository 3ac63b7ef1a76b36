"""Shared recording helper for the perf benches.

Each bench appends one section to a ``BENCH_*.json`` file at the repo
root; ``powerlens bench-diff`` compares two such files.  :func:`record`
is the one read-modify-write path, and it stamps every section with
when and where it was measured (the ``host`` stamp is ignored by
bench-diff, like ``recorded_at``).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

__all__ = ["record"]


def record(path: Path, section: str, payload: dict) -> None:
    """Write ``payload`` as ``section`` of the JSON file at ``path``,
    keeping its other sections (an unreadable file starts empty)."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            data = {}
    payload = dict(payload)
    payload["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    payload["host"] = {"python": platform.python_version(),
                       "numpy": np.__version__,
                       "cpus": os.cpu_count()}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
