"""Plan families: the plan store's bucketing, member selection and
per-member corrections.

The contract under test (see ``repro.governors.family``):

* **bucket determinism + totality** — :meth:`PlanCache.select` is pure
  arithmetic: every ``(batch >= 1, sparsity in [0, 1))`` maps to exactly
  one configured bucket, the floor of the sparsity, and the same member
  on every call (hypothesis-pinned);
* **size-1 degeneration** — a ``powerlens-family`` device with only the
  dense bucket dispatches byte-identically to a ``powerlens`` device;
* **member selection** — members built at a grid point equal
  :func:`analytic_plan` for it, and each job runs the member of its
  ``(batch, sparsity bucket)``;
* **adaptive composition** — a correction adopted on a
  ``powerlens-family-adaptive`` device is written back to the member
  that produced the evidence, leaving sibling members untouched;
* **zero-op graphs** — selecting or predicting for a graph without
  operators raises and caches nothing.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.adaptive import build_drift_net
from repro.governors import PlanCache, PresetGovernor, analytic_plan
from repro.graph import Graph
from repro.hw import analytic
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.platform import get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator
from repro.serving import DeviceConfig, SimulatedDevice
from tests.conftest import build_small_cnn

PLATFORM = get_platform("tx2")
EVALUATOR = AnalyticEvaluator(PLATFORM)
BLOCK_SIZE = 4

pytestmark = pytest.mark.family


def _graph():
    return build_drift_net()


def _store(sparsities=(0.0,)):
    return PlanCache(EVALUATOR, block_size=BLOCK_SIZE,
                     sparsity_edges=sparsities)


def _device(governor, sparsities=(0.0,)):
    device = SimulatedDevice(DeviceConfig("d", "tx2"), governor=governor,
                             sparsity_edges=sparsities)
    # Same edges (validated, and dense-only off the family governors),
    # planned at block size 4.
    device.plan_cache = PlanCache(
        device.evaluator, block_size=BLOCK_SIZE,
        sparsity_edges=device.plan_cache.sparsity_edges)
    return device


def _job(graph, batch, sparsity=0.0):
    return InferenceJob(graph=graph, batch_size=batch, n_batches=1,
                        name=f"{graph.name}_j", sparsity=sparsity)


def _run_job(gov, graph, batch, seed=0):
    sim = InferenceSimulator(PLATFORM, seed=seed, keep_trace=True,
                             keep_samples=False)
    result = sim.run([_job(graph, batch)], gov)
    return (result.trace.total_energy, result.report.total_time,
            result.switch_count)


# ----------------------------------------------------------------------
# bucket determinism + totality
# ----------------------------------------------------------------------
class TestFeatureBuckets:
    @settings(max_examples=100, deadline=None)
    @given(batch=st.integers(1, 64),
           sparsity=st.floats(0.0, 1.0, exclude_max=True,
                              allow_nan=False),
           extra_edges=st.lists(st.floats(0.0, 1.0, exclude_max=True,
                                          allow_nan=False),
                                max_size=4))
    def test_total_and_deterministic(self, batch, sparsity,
                                     extra_edges):
        graph = build_small_cnn()
        store = PlanCache(EVALUATOR,
                          sparsity_edges=(0.25, 0.5, *extra_edges))
        edges = store.sparsity_edges
        plan, bucket = store.select(graph, batch, sparsity)
        assert store.select(graph, batch, sparsity) == (plan, bucket)
        assert plan is store.get_or_build(graph, batch, bucket)
        # The selected bucket is the floor of the sparsity.
        i = edges.index(bucket)
        assert bucket <= sparsity
        if i + 1 < len(edges):
            assert sparsity < edges[i + 1]

    @settings(max_examples=50, deadline=None)
    @given(edges=st.lists(st.floats(0.0, 1.0, exclude_max=True,
                                    allow_nan=False),
                          min_size=1, max_size=6, unique=True))
    def test_exact_edges_select_their_own_bucket(self, edges):
        store = _store(edges)
        for edge in store.sparsity_edges:
            assert store.bucket(edge) == edge

    def test_below_first_edge_clamps_to_bucket_zero(self):
        graph = build_small_cnn()
        store = _store((0.6, 0.3, 0.3))
        # Sorted, de-duplicated, 0.0 prepended for totality.
        assert store.sparsity_edges == (0.0, 0.3, 0.6)
        assert store.select(graph, 4, 0.1)[1] == 0.0
        assert store.select(graph, 4, 0.99)[1] == 0.6

    @pytest.mark.parametrize("sparsity_edges", [
        (),                         # no edges
        (1.0,),                     # out of range
        (-0.1,),
        (0.2, 1.5),
    ])
    def test_invalid_edges_rejected(self, sparsity_edges):
        with pytest.raises(ValueError, match="sparsity edge"):
            _store(sparsity_edges)
        with pytest.raises(ValueError, match="sparsity edge"):
            _device("powerlens", sparsity_edges)


class TestPlanFamily:
    def test_family_must_be_total(self):
        # Every (batch, bucket) of the grid has a member after prewarm,
        # and dispatch only selects among them.
        graph = _graph()
        device = _device("powerlens-family", (0.0, 0.3, 0.6))
        device.prewarm([graph], [1, 16])
        store = device.plan_cache
        assert len(store) == 2 * 3
        misses = store.misses
        for batch in (1, 16):
            for sparsity in (0.0, 0.2, 0.3, 0.59, 0.6, 0.99):
                plan, bucket = store.select(graph, batch, sparsity)
                assert bucket in store.sparsity_edges
        assert store.misses == misses

    def test_member_graph_name_checked(self):
        # Members carry their graph's name because the preset runtime
        # looks plans up by name: two models with the same structure
        # under different names each get their own member.
        a, b = build_small_cnn("net_a"), build_small_cnn("net_b")
        assert a.fingerprint() == b.fingerprint()
        device = _device("powerlens-family")
        assert device.plan_cache.select(a, 4)[0].graph_name == "net_a"
        assert device.plan_cache.select(b, 4)[0].graph_name == "net_b"
        device.execute(_job(a, 4), 0)
        fresh = _device("powerlens-family")
        assert device.execute(_job(b, 4), 1) \
            == fresh.execute(_job(b, 4), 1)

    def test_grid_point_members_match_analytic_plan(self):
        graph = _graph()
        store = _store((0.0, 0.5))
        for batch in (1, 16):
            for edge in store.sparsity_edges:
                member, bucket = store.select(graph, batch, edge)
                assert bucket == edge
                expected = analytic_plan(EVALUATOR, graph, batch,
                                         block_size=BLOCK_SIZE,
                                         sparsity=edge)
                assert member.steps == expected.steps

    def test_cache_miss_reduces_each_span_once(self, monkeypatch):
        """Building a member and predicting its cost price each 8-op
        span once: the planner's levels and the prediction's energy
        share the profile table's span memo."""
        priced = []
        level_profile = analytic.LevelProfile

        def counting(**kwargs):
            priced.append(1)
            return level_profile(**kwargs)

        monkeypatch.setattr(analytic, "LevelProfile", counting)
        device = SimulatedDevice(DeviceConfig("d", "tx2"), "powerlens")
        graph = _graph()
        plan = device.plan_cache.get_or_build(graph, 16)
        device.predict(graph, 16)
        table = device.evaluator.profile_table(graph, 16)
        starts = [step.op_index for step in plan.steps]
        spans = list(zip(starts, starts[1:] + [table.n_ops]))
        assert spans == [(0, 8), (8, 16), (16, 17)]
        assert set(table._spans) == set(spans)
        assert len(priced) == len(spans)

    def test_member_for_uses_buckets(self):
        graph = _graph()
        store = _store((0.0, 0.5))
        dense = store.select(graph, 16, 0.0)[0]
        assert store.select(graph, 16, 0.49)[0] is dense
        sparse = store.select(graph, 16, 0.5)[0]
        assert store.select(graph, 16, 0.99)[0] is sparse
        assert sparse is not dense
        # The batch axis is exact: every batch size has its own member.
        assert store.select(graph, 8, 0.0)[0] is not dense
        assert (store.hits, store.misses) == (2, 3)


# ----------------------------------------------------------------------
# size-1 degeneration: family of one ≡ static preset, byte-identical
# ----------------------------------------------------------------------
class TestSizeOneIdentity:
    @settings(max_examples=6, deadline=None)
    @given(seq=st.integers(0, 2**31), batch=st.sampled_from([1, 4, 16]),
           sparsity=st.sampled_from([0.0, 0.3, 0.7]))
    def test_family_of_one_matches_preset(self, seq, batch, sparsity):
        graph = _graph()
        family = _device("powerlens-family")
        static = _device("powerlens")
        for j in range(3):
            job = _job(graph, batch, sparsity)
            assert family.execute(job, seq + j) \
                == static.execute(job, seq + j)
        assert len(family.plan_cache) == 1


# ----------------------------------------------------------------------
# member selection at dispatch
# ----------------------------------------------------------------------
class TestMemberSelection:
    def test_selected_member_is_installed_plan(self):
        graph = _graph()
        device = _device("powerlens-family")
        for batch in (16, 1):
            device.execute(_job(graph, batch), 0)
            assert device._governor.plan_for(graph.name) \
                is device.plan_cache.select(graph, batch)[0]

    def test_family_beats_single_stale_plan_on_drift(self):
        graph = _graph()
        store = _store()
        stale = PresetGovernor([store.select(graph, 16)[0]],
                               resilient=True)
        member = PresetGovernor([store.select(graph, 1)[0]],
                                resilient=True)
        e_stale = sum(_run_job(stale, graph, 1, seed=s)[0]
                      for s in range(3))
        e_member = sum(_run_job(member, graph, 1, seed=s)[0]
                       for s in range(3))
        assert e_member < e_stale

    def test_sparsity_axis_selects_sparse_member(self):
        graph = _graph()
        device = _device("powerlens-family", (0.0, 0.5))
        store = device.plan_cache
        record = device.execute(_job(graph, 16, sparsity=0.7), 0)
        assert record.sparsity_bucket == 0.5
        assert record.plan_fingerprint \
            == store.select(graph, 16, 0.5)[0].fingerprint()
        record = device.execute(_job(graph, 16, sparsity=0.2), 1)
        assert record.sparsity_bucket == 0.0
        assert record.plan_fingerprint \
            == store.select(graph, 16, 0.0)[0].fingerprint()


    def test_non_family_device_plans_every_job_dense(self):
        graph = _graph()
        device = _device("powerlens", (0.0, 0.5))
        assert device.plan_cache.sparsity_edges == (0.0,)
        record = device.execute(_job(graph, 16, sparsity=0.7), 0)
        assert record.sparsity_bucket == 0.0
        assert record.plan_fingerprint \
            == device.plan_cache.select(graph, 16)[0].fingerprint()

    def test_registry_governor_selects_no_plan(self):
        device = _device("ondemand", (0.0, 0.5))
        record = device.execute(_job(_graph(), 4, sparsity=0.7), 0)
        assert record.plan_fingerprint == ""
        assert record.sparsity_bucket == 0.0
        assert len(device.plan_cache) == 0


# ----------------------------------------------------------------------
# adaptive composition: corrections stick per member
# ----------------------------------------------------------------------
class TestAdaptiveComposition:
    def test_nudge_written_back_to_member(self):
        graph = _graph()
        device = _device("powerlens-family-adaptive", (0.0, 0.5))
        store = device.plan_cache
        # Sabotage the dense batch-1 member with the stale batch-16
        # plan so the drift is visible to the ledger.
        stale = store.select(graph, 16)[0]
        store.adopt(graph, 1, 0.0, stale)
        sparse_sibling = store.select(graph, 1, 0.5)[0]
        actions = [device.execute(_job(graph, 1), seq).replan_action
                   for seq in range(4)]
        assert "adopt" in actions
        assert device._governor.replan_health.adopted >= 1
        # The correction landed in the dense batch-1 bucket...
        corrected = store.select(graph, 1, 0.0)[0]
        assert corrected is not stale
        assert corrected is device._governor.plan_for(graph.name)
        # ...and neither the sparse nor the batch-16 sibling moved.
        assert store.select(graph, 1, 0.5)[0] is sparse_sibling
        assert store.select(graph, 16, 0.0)[0] is stale

    def test_correction_wins_without_counting_a_cache_lookup(self):
        graph = _graph()
        store = _store((0.0, 0.5))
        member = store.select(graph, 4, 0.5)[0]
        correction = store.select(graph, 16, 0.5)[0]
        store.adopt(graph, 4, 0.5, correction)
        counts = (store.hits, store.misses)
        assert store.select(graph, 4, 0.7) == (correction, 0.5)
        assert (store.hits, store.misses) == counts
        # The analytic member stays cached behind the correction.
        assert store.get_or_build(graph, 4, 0.5) is member

    def test_zero_drift_family_adaptive_idle(self):
        graph = _graph()
        device = _device("powerlens-family-adaptive")
        for seq, batch in enumerate((16, 1, 16, 1)):
            record = device.execute(_job(graph, batch), seq)
            assert record.replan_action in ("none", "frozen")
        health = device._governor.replan_health
        assert (health.adopted, health.rejected, health.rollbacks) \
            == (0, 0, 0)


# ----------------------------------------------------------------------
# zero-op graphs at the store boundary
# ----------------------------------------------------------------------
class TestZeroOpGraph:
    def test_select_rejects_empty_graph(self):
        store = _store((0.0, 0.5))
        with pytest.raises(ValueError, match="at least one step"):
            store.select(Graph("empty"), 4, 0.7)
        assert len(store) == 0

    def test_predict_rejects_empty_graph(self):
        device = _device("powerlens")
        with pytest.raises(ValueError, match="at least one step"):
            device.predict(Graph("empty"), 4)
        assert len(device.plan_cache) == 0
        assert device._predictions == {}


def test_serving_reexports_the_store():
    import repro.serving as serving
    from repro.governors import family

    assert serving.PlanCache is family.PlanCache
