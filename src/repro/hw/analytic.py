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
computed once and fully vectorized over ``(ops x levels)``.  The
labeling sweep asks for many block profiles of the same graph (every
scheme's view, every block, every level), and each one reduces op rows
instead of re-walking the operator list.  Every table query is
**byte-identical** to the per-op reference loop, which lives with the
tests (``tests/oracles.py::profile_reference``); the hypothesis suites
in ``tests/test_labeling_fastpath.py`` and
``tests/test_analytic_sparsity.py`` enforce it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

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
    profile table keeps one per distinct block it has priced."""

    times: np.ndarray            # (n_levels,) seconds
    energies: np.ndarray         # (n_levels,) joules, platform-inclusive

    @property
    def ee(self) -> np.ndarray:
        """Relative energy efficiency (1/J); images cancel in argmax."""
        with np.errstate(divide="ignore"):
            return np.where(self.energies > 0, 1.0 / self.energies, 0.0)


def _span_of(block: Sequence[int]) -> Tuple[int, int]:
    """``(start, stop)`` of a contiguous ascending block of op indices;
    an empty block is the empty span ``(0, 0)``."""
    if not len(block):
        return 0, 0
    start = int(block[0])
    stop = start + len(block)
    if list(block) != list(range(start, stop)):
        raise ValueError("plan blocks must be contiguous op ranges")
    return start, stop


class ProfileTable:
    """Per-op fixed-level profiles of one ``(graph, batch_size)``.

    ``op_times``/``op_energies`` are ``(n_ops, n_levels)`` arrays holding
    each operator's duration and GPU+DRAM energy (platform overhead is
    charged per query, like the reference).  ``prefix_times``/
    ``prefix_energies`` are ``(n_ops + 1, n_levels)`` sequential prefix
    sums along the op axis, so any block anchored at op 0 — and the whole
    graph — is a single O(n_levels) row lookup.

    Exactness note: a general prefix *difference* ``prefix[j] -
    prefix[i]`` is not bit-identical to summing the rows in order
    (floating-point addition does not reassociate), so interior blocks
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

    @property
    def overhead_power(self) -> float:
        return self._evaluator.overhead_power

    # ------------------------------------------------------------------
    def block_profile(self, op_indices: Sequence[int]) -> LevelProfile:
        """Fixed-level profile of a subset of ops (by canonical index)."""
        idx = np.asarray(op_indices, dtype=np.intp)
        if idx.size == 0:
            times = np.zeros(self.n_levels)
            energies = np.zeros(self.n_levels)
        else:
            start = int(idx[0])
            stop = int(idx[-1]) + 1
            contiguous = (stop - start == idx.size) and (
                idx.size == 1 or bool(np.all(np.diff(idx) == 1)))
            if contiguous and start == 0:
                times = self.prefix_times[stop].copy()
                energies = self.prefix_energies[stop].copy()
            else:
                rows = slice(start, stop) if contiguous else idx
                times = np.add.reduce(self.op_times[rows], axis=0)
                energies = np.add.reduce(self.op_energies[rows], axis=0)
        energies = energies + self.overhead_power * times
        return LevelProfile(times=times, energies=energies)

    def graph_profile(self) -> LevelProfile:
        """Whole-graph fixed-level profile (last prefix row)."""
        times = self.prefix_times[-1].copy()
        energies = self.prefix_energies[-1] + self.overhead_power * times
        return LevelProfile(times=times, energies=energies)

    def best_level_for_block(self, op_indices: Sequence[int],
                             latency_slack: float = 0.25) -> int:
        """Exhaustive-sweep optimal level for one block."""
        return self._evaluator.best_level(self.block_profile(op_indices),
                                          latency_slack)

    def span_profile(self, op_start: int, op_stop: int) -> LevelProfile:
        """Profile of ops ``op_start .. op_stop - 1``, memoized on (and
        evicted with) this table, so each distinct span is reduced once.
        Callers must not mutate the returned profile."""
        key = (op_start, op_stop)
        profile = self._spans.get(key)
        if profile is None:
            profile = self._spans[key] = self.block_profile(
                range(op_start, op_stop))
        return profile

    def block_sweep(self, op_start: int, op_stop: int,
                    latency_slack: float) -> Tuple[LevelProfile, int]:
        """:meth:`span_profile` of ops ``op_start .. op_stop - 1`` and its
        exhaustive-sweep optimal level, both memoized on this table."""
        profile = self.span_profile(op_start, op_stop)
        key = (op_start, op_stop, latency_slack)
        best = self._levels.get(key)
        if best is None:
            best = self._levels[key] = self._evaluator.best_level(
                profile, latency_slack)
        return profile, best

    def plan_energy_time(self, blocks: Sequence[Sequence[int]],
                         levels: Sequence[int]) -> Tuple[float, float]:
        """Analytic energy/time of running each block at its own level,
        including per-boundary switch stalls.  Each block must be a
        contiguous ascending run of op indices (possibly empty), and is
        priced through :meth:`span_profile`."""
        if len(blocks) != len(levels):
            raise ValueError("one level per block required")
        ev = self._evaluator
        total_e = 0.0
        total_t = 0.0
        prev_level: Optional[int] = None
        for block, level in zip(blocks, levels):
            profile = self.span_profile(*_span_of(block))
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
    """Closed-form fixed-level cost model of one platform.

    :meth:`profile_table` prices every op of a graph at every level;
    :meth:`best_level` picks the level a profile should run at."""

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

    # ------------------------------------------------------------------
    def best_level(self, profile: LevelProfile,
                   latency_slack: float = 0.25) -> int:
        """EE-optimal level under a latency constraint.

        Chooses the level maximizing energy efficiency among levels whose
        time does not exceed ``(1 + latency_slack)`` times the time at
        the maximum level.  This mirrors the paper's "maintain
        performance while optimizing energy" framing (section 2.1.1) and
        produces the modest task-flow time increases of Figure 5 rather
        than a throughput collapse.

        The EE curve is typically flat near its peak, so among levels
        within :data:`EE_TOLERANCE` (relative) of the best we
        deterministically pick the *highest* — on real hardware those
        levels are within measurement noise of each other, the faster
        choice minimizes the latency cost of an equal-energy decision,
        and a stable rule keeps the Dataset-B labels learnable instead
        of coin flips.
        """
        ref = self.platform.max_level
        budget = (1.0 + latency_slack) * profile.times[ref]
        feasible = profile.times <= budget + 1e-15
        ee = profile.ee.copy()
        ee[~feasible] = -np.inf
        best = float(np.max(ee))
        if not np.isfinite(best):
            return ref
        near = np.flatnonzero(ee >= best * (1.0 - EE_TOLERANCE))
        return int(near[-1])
