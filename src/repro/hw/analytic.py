"""Closed-form energy/latency evaluation (no event loop).

Dataset labeling (section 2.2 of the paper: "each block in the power view
is deployed at all frequencies to select the data that achieves the
optimal energy efficiency") requires evaluating every block of thousands
of random networks at every DVFS level.  Doing that through the event
simulator would be needlessly slow; this module computes the same
quantities in closed form under the assumption of uninterrupted execution
at a fixed level, vectorized over levels with numpy.

The platform energy charged to a block includes the board and idle-CPU
power for its duration, so very low frequencies are correctly penalized
(stretching a block's runtime stretches the fixed-power energy too).

Every query goes through one :class:`ProfileTable` per ``(graph,
batch_size, sparsity)``: per-op time/energy arrays at every level,
computed once and fully vectorized over ``(ops x levels)``.  A block is
always a contiguous ``(start, stop)`` span of op indices, as in the
paper's power view, and a partition is a list of spans:

* :meth:`ProfileTable.span_profile` prices one span (a prefix row from
  op 0, else one ``np.add.reduce`` over its op rows), memoized per
  span;
* :meth:`LevelProfile.best_level` is the one level rule — the latency
  slack budget plus the :data:`EE_TOLERANCE` tie band;
* :meth:`ProfileTable.levels` gives a partition's levels, memoized per
  ``(start, stop, latency_slack)``; every planner, labeler and ledger
  takes its levels from it;
* :meth:`ProfileTable.plan_energy_time` prices a partition at given
  levels, switch stalls included.

The labeling sweep asks for many spans of the same graph (every
scheme's view, every block, every level), and each one reduces op rows
once instead of re-walking the operator list.  Every table query is
**byte-identical** to the per-op reference loop, which lives with the
tests (``tests/oracles.py::profile_reference``); the hypothesis suites
in ``tests/test_labeling_fastpath.py`` and
``tests/test_analytic_sparsity.py`` enforce it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import Graph
from repro.hw.perf import LatencyModel, OpWork, sparse_works
from repro.hw.platform import PlatformSpec
from repro.hw.power import PowerModel

#: Bounded size of the per-(fingerprint, batch, sparsity) profile-table
#: LRU (a serving device cycles through models x sparsities).
PROFILE_TABLE_CACHE_SIZE = 16

#: Relative EE gap within which levels count as tied; the highest of
#: the tied levels wins.
EE_TOLERANCE = 0.005


@dataclass(frozen=True, slots=True)
class LevelProfile:
    """Energy/time of a workload at every DVFS level.  Slotted: a
    profile table keeps one per distinct span it has priced."""

    times: np.ndarray            # (n_levels,) seconds
    energies: np.ndarray         # (n_levels,) joules, platform-inclusive

    @property
    def ee(self) -> np.ndarray:
        """Relative energy efficiency (1/J); images cancel in argmax."""
        with np.errstate(divide="ignore"):
            return np.where(self.energies > 0, 1.0 / self.energies, 0.0)

    def best_level(self, latency_slack: float) -> int:
        """EE-optimal level under a latency constraint.

        Chooses the level maximizing energy efficiency among levels whose
        time does not exceed ``(1 + latency_slack)`` times the time at
        the top level.  This mirrors the paper's "maintain performance
        while optimizing energy" framing (section 2.1.1) and produces
        the modest task-flow time increases of Figure 5 rather than a
        throughput collapse.

        The EE curve is typically flat near its peak, so among levels
        within :data:`EE_TOLERANCE` (relative) of the best we
        deterministically pick the *highest* — on real hardware those
        levels are within measurement noise of each other, the faster
        choice minimizes the latency cost of an equal-energy decision,
        and a stable rule keeps the Dataset-B labels learnable instead
        of coin flips.
        """
        ref = len(self.times) - 1
        budget = (1.0 + latency_slack) * self.times[ref]
        feasible = self.times <= budget + 1e-15
        ee = self.ee
        ee[~feasible] = -np.inf
        best = float(np.max(ee))
        if not np.isfinite(best):
            return ref
        near = np.flatnonzero(ee >= best * (1.0 - EE_TOLERANCE))
        return int(near[-1])


class ProfileTable:
    """Per-op fixed-level profiles of one ``(graph, batch_size)``.

    ``op_times``/``op_energies`` are ``(n_ops, n_levels)`` arrays holding
    each operator's duration and GPU+DRAM energy (platform overhead is
    charged per span, like the reference).  ``prefix_times``/
    ``prefix_energies`` are ``(n_ops + 1, n_levels)`` sequential prefix
    sums along the op axis, so any span anchored at op 0 — and the whole
    graph — is a single O(n_levels) row lookup.

    Every block the table prices is a contiguous ``(start, stop)`` span
    of op indices, and :meth:`levels` is the one place a partition's
    levels come from.

    Exactness note: a general prefix *difference* ``prefix[j] -
    prefix[i]`` is not bit-identical to summing the rows in order
    (floating-point addition does not reassociate), so interior spans
    instead use ``np.add.reduce`` over their op rows — a sequential
    accumulation over the outer axis, bit-identical to the reference
    loop and still two orders of magnitude cheaper than re-walking ops
    in Python.
    """

    def __init__(self, evaluator: "AnalyticEvaluator",
                 op_times: np.ndarray, op_energies: np.ndarray) -> None:
        self._evaluator = evaluator
        self.op_times = op_times
        self.op_energies = op_energies
        n_ops, n_levels = op_times.shape
        self.prefix_times = np.zeros((n_ops + 1, n_levels))
        self.prefix_energies = np.zeros((n_ops + 1, n_levels))
        np.cumsum(op_times, axis=0, out=self.prefix_times[1:])
        np.cumsum(op_energies, axis=0, out=self.prefix_energies[1:])
        self._spans: Dict[Tuple[int, int], LevelProfile] = {}
        self._levels: Dict[Tuple[int, int, float], int] = {}

    @property
    def n_ops(self) -> int:
        return self.op_times.shape[0]

    @property
    def n_levels(self) -> int:
        return self.op_times.shape[1]

    # ------------------------------------------------------------------
    def span_profile(self, start: int, stop: int) -> LevelProfile:
        """Profile of ops ``start .. stop - 1`` (the empty span prices
        to zeros), memoized on (and evicted with) this table, so each
        distinct span is reduced once.  Callers must not mutate the
        returned profile."""
        key = (start, stop)
        profile = self._spans.get(key)
        if profile is None:
            if start == 0:
                times = self.prefix_times[stop].copy()
                energies = self.prefix_energies[stop]
            else:
                times = np.add.reduce(self.op_times[start:stop], axis=0)
                energies = np.add.reduce(self.op_energies[start:stop],
                                         axis=0)
            profile = self._spans[key] = LevelProfile(
                times=times,
                energies=energies + self._evaluator.overhead_power * times)
        return profile

    def levels(self, spans: Sequence[Tuple[int, int]],
               latency_slack: float) -> List[int]:
        """Exhaustive-sweep optimal level of every span of a partition
        (:meth:`LevelProfile.best_level`), memoized per ``(start, stop,
        latency_slack)`` on this table."""
        out = []
        for start, stop in spans:
            key = (start, stop, latency_slack)
            level = self._levels.get(key)
            if level is None:
                level = self._levels[key] = self.span_profile(
                    start, stop).best_level(latency_slack)
            out.append(level)
        return out

    def plan_energy_time(self, spans: Sequence[Tuple[int, int]],
                         levels: Sequence[int]) -> Tuple[float, float]:
        """Analytic energy/time of running each ``(start, stop)`` span
        at its own level, including per-boundary switch stalls."""
        if len(spans) != len(levels):
            raise ValueError("one level per span required")
        ev = self._evaluator
        total_e = 0.0
        total_t = 0.0
        prev_level: Optional[int] = None
        for (start, stop), level in zip(spans, levels):
            profile = self.span_profile(start, stop)
            total_e += float(profile.energies[level])
            total_t += float(profile.times[level])
            if prev_level is not None and level != prev_level:
                stall = ev.platform.dvfs_stall_s
                total_t += stall
                idle_p = ev.power.gpu_idle(
                    ev.platform.freq_of_level(level))
                total_e += (idle_p + ev.overhead_power) * stall
            prev_level = level
        return total_e, total_t


class AnalyticEvaluator:
    """Closed-form fixed-level cost model of one platform:
    :meth:`profile_table` prices every op of a graph at every level."""

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform
        self.latency = LatencyModel(platform)
        self.power = PowerModel(platform)
        self._freqs = np.asarray(platform.gpu_freq_levels)
        self._volts = np.asarray(
            [platform.voltage(f) for f in platform.gpu_freq_levels]
        )
        self._bw = np.asarray(
            [platform.bandwidth_at(f) for f in platform.gpu_freq_levels]
        )
        # Fixed platform overhead power while the GPU crunches: board +
        # idle host cluster at its lowest level.
        cpu_fmin = platform.cpu.freq_levels[0]
        self.overhead_power = (
            platform.board_power + self.power.cpu_idle(cpu_fmin)
        )
        self._table_cache: \
            "OrderedDict[Tuple[str, int, float], ProfileTable]" \
            = OrderedDict()

    # ------------------------------------------------------------------
    def _build_profile_table(self, works: Sequence[OpWork],
                             batch_size: int) -> ProfileTable:
        """Vectorized ``(ops x levels)`` evaluation of the per-op
        reference loop (``tests/oracles.py::profile_reference``).

        Every expression keeps the reference loop's operand association
        (e.g. ``(flops_per_cycle * f) * eff``, ``(amp * mem) * batch``),
        so each table cell carries the identical rounding history and the
        per-op rows are bit-equal to the loop's per-op contributions.
        """
        p = self.platform
        f = self._freqs
        v2f = self._volts ** 2 * f
        static = p.leak_w_per_v * self._volts
        n = len(works)
        # Integer products stay exact before the single float rounding,
        # matching `work.flops * batch_size` in the loop.
        fb = np.array([w.flops * batch_size for w in works], dtype=float)
        mem = np.array([w.mem_bytes for w in works], dtype=float)
        eff = np.array([p.op_efficiency.get(w.category, 0.2)
                        for w in works], dtype=float)
        cap = np.array([p.intensity_caps.get(w.category, 1.0)
                        for w in works], dtype=float)
        amp = np.array([p.traffic_amplification.get(w.category, 1.0)
                        for w in works], dtype=float)
        t_c = fb[:, None] / ((p.flops_per_cycle * f)[None, :]
                             * eff[:, None])
        streaming = np.zeros(n)
        np.divide(fb, cap, out=streaming, where=cap > 0)
        bytes_moved = amp * mem * batch_size + streaming
        t_m = bytes_moved[:, None] / self._bw[None, :]
        dur = np.maximum(t_c, t_m) + p.kernel_launch_s
        u_c = np.minimum(1.0, t_c / dur)
        activity = u_c + p.stall_power_fraction * (1.0 - u_c)
        gpu_power = static[None, :] + (v2f * p.c_eff)[None, :] * activity
        op_energies = gpu_power * dur + \
            (p.dram_energy_per_byte * bytes_moved)[:, None]
        return ProfileTable(self, dur, op_energies)

    def profile_table(self, graph: Graph,
                      batch_size: int = 1,
                      sparsity: float = 0.0) -> ProfileTable:
        """Per-op level-profile table of ``graph``, built once per
        ``(graph fingerprint, batch_size, sparsity)`` and kept in a
        bounded LRU."""
        key = (graph.fingerprint(), int(batch_size), float(sparsity))
        table = self._table_cache.get(key)
        if table is not None:
            self._table_cache.move_to_end(key)
            return table
        table = self._build_profile_table(
            sparse_works(self.latency.graph_work(graph), sparsity),
            batch_size)
        self._table_cache[key] = table
        while len(self._table_cache) > PROFILE_TABLE_CACHE_SIZE:
            self._table_cache.popitem(last=False)
        return table
