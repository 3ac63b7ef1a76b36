"""Request arrival traces for the fleet serving simulator.

The serving layer is request-driven: a :class:`Request` asks for one
inference of ``model`` over ``images`` inputs and carries a relative
latency SLO.  Traces are *fully materialized up front* — a
:class:`ArrivalTrace` is an immutable, seed-deterministic sequence of
requests, so the same ``(generator, seed)`` pair always produces the
same workload and the scheduler's event log can be compared
byte-for-byte across runs (``tests/test_serving_determinism.py``).

Two generators model the ROADMAP's "millions of users" load shapes:

:func:`poisson_trace`
    Memoryless arrivals at a constant rate — the steady-state serving
    baseline.
:func:`bursty_trace`
    A two-state Markov-modulated Poisson process: the trace alternates
    between exponentially-distributed *calm* and *burst* intervals
    (means :data:`MEAN_CALM_S` and :data:`MEAN_BURST_S`), with the
    burst state arriving :data:`BURST_FACTOR` times faster — the
    tail-latency stressor.

Both draw from dedicated :class:`random.Random` streams (seeded by
name, like :mod:`repro.hw.faults`) so arrival times and model choices
never re-roll each other's dice.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Request", "ArrivalTrace", "poisson_trace", "bursty_trace",
           "make_trace", "TRACE_KINDS"]

TRACE_KINDS = ("poisson", "bursty")

#: Arrival-rate multiplier of the bursty trace's burst state.
BURST_FACTOR = 8.0
#: Mean holding times (s) of the bursty trace's calm and burst states.
MEAN_CALM_S = 1.0
MEAN_BURST_S = 0.25
#: Most arrivals a trace may expect (peak rate × duration).  A trace is
#: materialized up front, so a larger one would exhaust memory, and a
#: rate too large to advance the float clock would never end.
MAX_EXPECTED_ARRIVALS = 1e6


@dataclass(frozen=True)
class Request:
    """One inference request presented to the fleet.

    ``images`` is the number of inputs in the request (one simulator
    batch); requests for the same ``(model, images, sparsity)`` triple
    may be coalesced into a single multi-batch
    :class:`~repro.hw.simulator.InferenceJob` by the queueing policy.
    ``sparsity`` is the request's observed activation sparsity in
    ``[0, 1)`` (0.0 — the default — is dense and reproduces the
    pre-sparsity traces byte-for-byte).  ``slo_latency_s`` is the
    *relative* latency objective; ``math.inf`` means best-effort.
    """

    request_id: int
    t_arrival: float
    model: str
    images: int = 8
    slo_latency_s: float = math.inf
    sparsity: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_arrival) and self.t_arrival >= 0):
            raise ValueError("arrival time must be finite and "
                             "non-negative")
        if self.images < 1:
            raise ValueError("a request needs at least one image")
        # NaN would make the deadline NaN, and a NaN-deadline request
        # leaves the queue without being served or booked as expired;
        # inf is the best-effort default.
        if math.isnan(self.slo_latency_s) or self.slo_latency_s <= 0:
            raise ValueError("slo_latency_s must be positive")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")

    @property
    def deadline(self) -> float:
        """Absolute completion deadline (inf for best-effort)."""
        return self.t_arrival + self.slo_latency_s

    @property
    def batch_key(self) -> Tuple[str, int, float]:
        """Requests sharing this key can ride one inference job."""
        return (self.model, self.images, self.sparsity)


@dataclass(frozen=True)
class ArrivalTrace:
    """Immutable, pre-materialized request sequence.

    ``requests`` must be sorted by ``(t_arrival, request_id)`` with
    unique ids — the scheduler relies on both for deterministic event
    ordering.
    """

    kind: str
    seed: int
    requests: Tuple[Request, ...] = ()
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        order = [(r.t_arrival, r.request_id) for r in self.requests]
        if order != sorted(order):
            raise ValueError(
                "trace requests must be sorted by (t_arrival, id)")
        ids = [r.request_id for r in self.requests]
        if len(set(ids)) != len(ids):
            raise ValueError("trace request ids must be unique")

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def models(self) -> List[str]:
        """Distinct model names in first-appearance order."""
        seen: Dict[str, None] = {}
        for r in self.requests:
            seen.setdefault(r.model, None)
        return list(seen)

    def rate_rps(self) -> float:
        """Mean arrival rate over the trace duration."""
        horizon = self.duration_s or (
            self.requests[-1].t_arrival if self.requests else 0.0)
        if horizon <= 0:
            return 0.0
        return len(self.requests) / horizon


def _draw_models(rng: random.Random, models: Sequence[str],
                 n: int) -> List[str]:
    return [rng.choice(list(models)) for _ in range(n)]


def _draw_sparsities(kind: str, seed: int,
                     choices: Optional[Sequence[float]],
                     n: int) -> List[float]:
    """Per-request sparsity draws from a dedicated named stream.

    The stream is only *created* when ``choices`` is given, so traces
    generated without sparsity stay byte-identical to the pre-sparsity
    generators (no other stream's dice are re-rolled either way)."""
    if choices is None:
        return [0.0] * n
    values = [float(s) for s in choices]
    if not values:
        raise ValueError("sparsity_choices cannot be empty")
    if not all(0.0 <= s < 1.0 for s in values):
        raise ValueError("sparsity choices must be in [0, 1)")
    rng = random.Random(f"{seed}/{kind}/sparsity")
    return [rng.choice(values) for _ in range(n)]


def _check_horizon(rate_rps: float, duration_s: float,
                   peak_rate_rps: float, models: Sequence[str]) -> None:
    if not (rate_rps > 0 and duration_s > 0):  # NaN fails too
        raise ValueError("rate and duration must be positive")
    # A finite product of positive factors bounds both of them.
    if not peak_rate_rps * duration_s <= MAX_EXPECTED_ARRIVALS:
        raise ValueError(
            f"rate and duration must be finite, with at most "
            f"{MAX_EXPECTED_ARRIVALS:g} expected arrivals (got rate "
            f"{rate_rps:g}/s over {duration_s:g} s)")
    if not models:
        raise ValueError("at least one model name required")


def poisson_trace(rate_rps: float, duration_s: float,
                  models: Sequence[str], seed: int = 0,
                  images_per_request: int = 8,
                  slo_latency_s: float = math.inf,
                  sparsity_choices: Optional[Sequence[float]] = None
                  ) -> ArrivalTrace:
    """Homogeneous Poisson arrivals at ``rate_rps`` over ``duration_s``."""
    _check_horizon(rate_rps, duration_s, rate_rps, models)
    rng_t = random.Random(f"{seed}/poisson/arrivals")
    rng_m = random.Random(f"{seed}/poisson/models")
    times: List[float] = []
    t = rng_t.expovariate(rate_rps)
    while t < duration_s:
        times.append(t)
        t += rng_t.expovariate(rate_rps)
    names = _draw_models(rng_m, models, len(times))
    sparsities = _draw_sparsities("poisson", seed, sparsity_choices,
                                  len(times))
    requests = tuple(
        Request(request_id=i, t_arrival=times[i], model=names[i],
                images=images_per_request, slo_latency_s=slo_latency_s,
                sparsity=sparsities[i])
        for i in range(len(times)))
    return ArrivalTrace(kind="poisson", seed=seed, requests=requests,
                        duration_s=duration_s)


def bursty_trace(rate_rps: float, duration_s: float,
                 models: Sequence[str], seed: int = 0,
                 images_per_request: int = 8,
                 slo_latency_s: float = math.inf,
                 sparsity_choices: Optional[Sequence[float]] = None
                 ) -> ArrivalTrace:
    """Two-state MMPP: calm at ``rate_rps``, bursts at
    :data:`BURST_FACTOR` times that, with exponentially-distributed
    state holding times."""
    _check_horizon(rate_rps, duration_s, rate_rps * BURST_FACTOR, models)
    rng_t = random.Random(f"{seed}/bursty/arrivals")
    rng_s = random.Random(f"{seed}/bursty/states")
    rng_m = random.Random(f"{seed}/bursty/models")
    times: List[float] = []
    t = 0.0
    bursting = False
    state_end = rng_s.expovariate(1.0 / MEAN_CALM_S)
    while t < duration_s:
        rate = rate_rps * (BURST_FACTOR if bursting else 1.0)
        t_next = t + rng_t.expovariate(rate)
        if t_next >= state_end:
            # State flip before the next arrival: restart the draw from
            # the boundary under the new state's rate.
            t = state_end
            bursting = not bursting
            mean = MEAN_BURST_S if bursting else MEAN_CALM_S
            state_end = t + rng_s.expovariate(1.0 / mean)
            continue
        t = t_next
        if t < duration_s:
            times.append(t)
    names = _draw_models(rng_m, models, len(times))
    sparsities = _draw_sparsities("bursty", seed, sparsity_choices,
                                  len(times))
    requests = tuple(
        Request(request_id=i, t_arrival=times[i], model=names[i],
                images=images_per_request, slo_latency_s=slo_latency_s,
                sparsity=sparsities[i])
        for i in range(len(times)))
    return ArrivalTrace(kind="bursty", seed=seed, requests=requests,
                        duration_s=duration_s)


def make_trace(kind: str, rate_rps: float, duration_s: float,
               models: Sequence[str], seed: int = 0,
               **kwargs) -> ArrivalTrace:
    """Build a trace by generator name (``poisson`` / ``bursty``)."""
    key = kind.strip().lower()
    if key == "poisson":
        return poisson_trace(rate_rps, duration_s, models, seed, **kwargs)
    if key == "bursty":
        return bursty_trace(rate_rps, duration_s, models, seed, **kwargs)
    raise ValueError(
        f"unknown arrival kind {kind!r}; choose from "
        f"{', '.join(TRACE_KINDS)}")
