"""Batch-scaling interpolation: hypothesis coverage of the edge cases.

``repro.extensions.batching.interpolate_choice`` estimates per-image
cost for batch sizes the calibration sweep never ran.  Properties
pinned here:

* **totality + determinism** — any ``batch >= 1`` yields exactly one
  estimate, the same on every call, for any non-empty calibration set;
* **clamping** — batch 1 below the calibrated range and batches above
  the calibration max clamp to the nearest endpoint instead of
  extrapolating;
* **exact hits** — a calibrated batch size returns the calibrated
  choice object unchanged;
* **bracketing** — between two calibrated points the per-image energy
  and latency estimates lie within the bracketing values, even when
  the calibrated tables are non-monotone in batch size;
* **validation** — empty choice lists, duplicate calibrated batches
  and batches < 1 are rejected.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.extensions.batching import (
    BatchChoice,
    batch_sweep,
    best_batch_size,
    interpolate_choice,
)
from repro.hw.platform import get_platform
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.family

PLATFORM = get_platform("tx2")


def _choice(batch, energy, latency, level=3):
    return BatchChoice(batch_size=batch, level=level,
                       energy_per_image=energy,
                       latency_per_image=latency,
                       batch_latency=latency * batch)


#: Strategy: calibration tables with unique batch sizes and finite,
#: possibly non-monotone per-image costs.
_tables = st.lists(
    st.tuples(st.integers(1, 512),
              st.floats(1e-6, 1e3, allow_nan=False,
                        allow_infinity=False),
              st.floats(1e-6, 1e3, allow_nan=False,
                        allow_infinity=False),
              st.integers(0, 7)),
    min_size=1, max_size=8,
    unique_by=lambda t: t[0],
).map(lambda rows: [_choice(b, e, lt, lv) for b, e, lt, lv in rows])


class TestInterpolateProperties:
    @settings(max_examples=200, deadline=None)
    @given(choices=_tables, batch=st.integers(1, 1024))
    def test_total_deterministic_and_bounded(self, choices, batch):
        a = interpolate_choice(choices, batch)
        b = interpolate_choice(choices, batch)
        assert (a.batch_size, a.level, a.energy_per_image,
                a.latency_per_image) \
            == (b.batch_size, b.level, b.energy_per_image,
                b.latency_per_image)
        assert a.batch_size == batch
        energies = [c.energy_per_image for c in choices]
        latencies = [c.latency_per_image for c in choices]
        # Linear interpolation between calibrated points (and clamping
        # outside them) can never leave the calibrated envelope — even
        # on non-monotone tables.
        assert min(energies) <= a.energy_per_image <= max(energies)
        assert min(latencies) <= a.latency_per_image <= max(latencies)
        assert a.level in {c.level for c in choices}
        assert a.batch_latency == a.latency_per_image * batch

    @settings(max_examples=100, deadline=None)
    @given(choices=_tables)
    def test_exact_hits_return_calibrated_choice(self, choices):
        for c in choices:
            assert interpolate_choice(choices, c.batch_size) is c

    @settings(max_examples=100, deadline=None)
    @given(choices=_tables, batch=st.integers(1, 2048))
    def test_clamps_outside_calibrated_range(self, choices, batch):
        lo = min(choices, key=lambda c: c.batch_size)
        hi = max(choices, key=lambda c: c.batch_size)
        est = interpolate_choice(choices, batch)
        if batch <= lo.batch_size:
            assert est.energy_per_image == lo.energy_per_image
            assert est.latency_per_image == lo.latency_per_image
            assert est.level == lo.level
        elif batch >= hi.batch_size:
            assert est.energy_per_image == hi.energy_per_image
            assert est.latency_per_image == hi.latency_per_image
            assert est.level == hi.level

    def test_bracketing_linear_midpoint(self):
        choices = [_choice(2, 10.0, 1.0, level=1),
                   _choice(6, 2.0, 3.0, level=5)]
        est = interpolate_choice(choices, 4)
        assert est.energy_per_image == pytest.approx(6.0)
        assert est.latency_per_image == pytest.approx(2.0)
        # Midpoint tie on the level goes to the smaller batch.
        assert est.level == 1
        assert interpolate_choice(choices, 5).level == 5

    def test_non_monotone_tables_stay_finite(self):
        # Energy dips then spikes: interpolation must track segments,
        # not assume global monotonicity.
        choices = [_choice(1, 8.0, 2.0), _choice(4, 1.0, 1.0),
                   _choice(16, 9.0, 4.0)]
        low = interpolate_choice(choices, 2)
        high = interpolate_choice(choices, 10)
        assert 1.0 <= low.energy_per_image <= 8.0
        assert 1.0 <= high.energy_per_image <= 9.0

    def test_validation(self):
        with pytest.raises(ValueError, match="calibrated"):
            interpolate_choice([], 4)
        with pytest.raises(ValueError, match="positive"):
            interpolate_choice([_choice(2, 1.0, 1.0)], 0)
        dup = [_choice(2, 1.0, 1.0), _choice(2, 2.0, 2.0)]
        with pytest.raises(ValueError, match="duplicate"):
            interpolate_choice(dup, 3)


class TestSweepSparsity:
    def test_sweep_accepts_sparsity(self):
        graph = build_small_cnn()
        dense = batch_sweep(PLATFORM, graph, candidates=(1, 8))
        sparse = batch_sweep(PLATFORM, graph, candidates=(1, 8),
                             sparsity=0.5)
        assert len(dense) == len(sparse) == 2
        for d, s in zip(dense, sparse):
            assert s.energy_per_image < d.energy_per_image

    def test_best_batch_size_sparsity_passthrough(self):
        graph = build_small_cnn()
        dense = best_batch_size(PLATFORM, graph, candidates=(1, 4, 8))
        sparse = best_batch_size(PLATFORM, graph, candidates=(1, 4, 8),
                                 sparsity=0.5)
        assert sparse.energy_per_image < dense.energy_per_image

