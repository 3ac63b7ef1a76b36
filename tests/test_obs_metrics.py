"""Metrics registry tests.

The hypothesis suite pins the merge algebra the worker-shard design
depends on: merge is associative and commutative (counters and histogram
bucket counts exactly, sums to float tolerance, gauges by maximum), and
folding N worker shards together equals the serial run — the metrics
analogue of the dataset generator's ``n_jobs`` byte-identity property.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
)
from tests.oracles import parse_prometheus_text

pytestmark = pytest.mark.obs

#: Small shared name pool so randomly built registries overlap.
_NAMES = ("powerlens_a_total", "powerlens_b_total", "powerlens_c")

_obs_values = st.floats(min_value=0.0, max_value=100.0,
                        allow_nan=False, allow_infinity=False)


@st.composite
def registries(draw):
    """A registry holding random counters/gauges/histograms drawn from a
    fixed name pool (same name -> same kind, so merges are legal)."""
    reg = MetricsRegistry()
    for n in draw(st.lists(st.integers(0, 50), min_size=0, max_size=3)):
        reg.counter(_NAMES[0]).inc(n)
    for v in draw(st.lists(_obs_values, min_size=0, max_size=3)):
        reg.gauge(_NAMES[2] + "_gauge").set(v)
    for v in draw(st.lists(_obs_values, min_size=0, max_size=5)):
        reg.histogram(_NAMES[2] + "_seconds",
                      buckets=(0.5, 5.0, 50.0)).observe(v)
    return reg


def _copy(reg: MetricsRegistry) -> MetricsRegistry:
    return MetricsRegistry.from_dict(reg.to_dict())


def _assert_equivalent(x: MetricsRegistry, y: MetricsRegistry) -> None:
    """Equality up to float tolerance on histogram sums; everything
    integer (counter values, bucket counts) must match exactly."""
    assert x.names() == y.names()
    for name in x.names():
        a, b = x.get(name), y.get(name)
        assert type(a) is type(b)
        if isinstance(a, Counter):
            assert a.value == b.value
        elif isinstance(a, Gauge):
            assert a.value == pytest.approx(b.value)
        elif isinstance(a, Histogram):
            assert a.bounds == b.bounds
            assert a.counts == b.counts
            assert a.sum == pytest.approx(b.sum)


class TestMergeLaws:
    @settings(max_examples=40, deadline=None)
    @given(a=registries(), b=registries())
    def test_merge_commutative(self, a, b):
        ab = _copy(a).merge(b)
        ba = _copy(b).merge(a)
        _assert_equivalent(ab, ba)

    @settings(max_examples=40, deadline=None)
    @given(a=registries(), b=registries(), c=registries())
    def test_merge_associative(self, a, b, c):
        left = _copy(a).merge(b).merge(c)
        right = _copy(a).merge(_copy(b).merge(c))
        _assert_equivalent(left, right)

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(_obs_values, min_size=0, max_size=40),
           n_shards=st.integers(min_value=1, max_value=6))
    def test_n_shards_equal_serial(self, values, n_shards):
        """Histogram bucket counts from N worker shards merged together
        equal the serial run exactly; sums to float tolerance."""
        buckets = (0.1, 1.0, 10.0)
        serial = MetricsRegistry()
        for v in values:
            serial.histogram("h", buckets=buckets).observe(v)
            serial.counter("n_total").inc()
        shards = [MetricsRegistry() for _ in range(n_shards)]
        for i, v in enumerate(values):
            shard = shards[i % n_shards]
            shard.histogram("h", buckets=buckets).observe(v)
            shard.counter("n_total").inc()
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge(shard)
        if values:
            assert merged.get("h").counts == serial.get("h").counts
            assert merged.get("h").sum == pytest.approx(
                serial.get("h").sum)
            assert merged.get("n_total").value == len(values)
        _assert_equivalent(merged, serial)

    def test_merge_rejects_kind_mismatch_and_bound_mismatch(self):
        a = MetricsRegistry()
        a.counter("m")
        b = MetricsRegistry()
        b.gauge("m")
        with pytest.raises(ValueError, match="kind mismatch"):
            a.merge(b)
        c = MetricsRegistry()
        c.histogram("h", buckets=(1.0, 2.0))
        d = MetricsRegistry()
        d.histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket bounds"):
            c.merge(d)

    def test_gauge_merges_by_high_water_mark(self):
        a = MetricsRegistry()
        a.gauge("g").set(2.0)
        b = MetricsRegistry()
        b.gauge("g").set(5.0)
        assert _copy(a).merge(b).get("g").value == 5.0
        assert _copy(b).merge(a).get("g").value == 5.0
        # An unset gauge never wins over a set one.
        c = MetricsRegistry()
        c.gauge("g")
        merged = _copy(c).merge(a)
        assert merged.get("g").value == 2.0


class TestRoundTrips:
    @settings(max_examples=30, deadline=None)
    @given(reg=registries())
    def test_json_round_trip_exact(self, reg):
        text = json.dumps(reg.to_dict(), sort_keys=True)
        assert MetricsRegistry.from_dict(json.loads(text)).to_dict() == \
            reg.to_dict()

    @settings(max_examples=30, deadline=None)
    @given(reg=registries())
    def test_prometheus_round_trip_exact(self, reg):
        """repr-format floats make the text exposition lossless for our
        own subset (help lines excepted for never-created metrics)."""
        parsed = parse_prometheus_text(reg.to_prometheus_text())
        a, b = parsed.to_dict(), reg.to_dict()
        # A gauge that was never set() round-trips as set: align that
        # one flag, everything else must match exactly.
        for spec in b.values():
            if spec["kind"] == "gauge":
                spec["set"] = True
        assert a == b

    def test_prometheus_text_shape(self):
        reg = MetricsRegistry()
        reg.counter("powerlens_hits_total", help="cache hits").inc(4)
        reg.histogram("powerlens_lat_seconds",
                      buckets=(0.1, 1.0)).observe(0.05)
        text = reg.to_prometheus_text()
        assert "# HELP powerlens_hits_total cache hits" in text
        assert "# TYPE powerlens_hits_total counter" in text
        assert "powerlens_hits_total 4" in text
        assert 'powerlens_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'powerlens_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "powerlens_lat_seconds_count 1" in text

    def test_parse_rejects_unparseable_line(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus_text("what is this 3\n")


class TestRegistryBasics:
    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_histogram_bucket_edges(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 2.0, 99.0):
            h.observe(v)
        # le semantics: 1.0 lands in the first bucket, 2.0 in the
        # second, 99 in +Inf.
        assert h.counts == [2, 2, 1]
        assert h.cumulative() == [2, 4, 5]
        assert h.count == 5

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_kind_mismatch_on_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m")

    def test_disabled_registry_hands_out_null_metric(self):
        c = NULL_METRICS.counter("x")
        c.inc(5)
        NULL_METRICS.gauge("g").set(1.0)
        NULL_METRICS.histogram("h").observe(2.0)
        assert c.value == 0
        assert len(NULL_METRICS) == 0
        with pytest.raises(ValueError):
            NULL_METRICS.merge(MetricsRegistry())


class TestNearestRankSharing:
    """One nearest-rank definition serves both the exact SLO-report
    percentiles and the bucketed histogram estimate (satellite:
    percentile-logic dedupe)."""

    def test_index_matches_textbook_nearest_rank(self):
        from repro.obs.metrics import nearest_rank_index
        # rank = ceil(q * n), 1-based; the helper is the 0-based index.
        assert nearest_rank_index(100, 0.5) == 49
        assert nearest_rank_index(100, 0.9) == 89
        assert nearest_rank_index(100, 0.99) == 98
        assert nearest_rank_index(100, 1.0) == 99
        assert nearest_rank_index(1, 0.0) == 0
        assert nearest_rank_index(5, 0.0001) == 0

    def test_index_validation(self):
        from repro.obs.metrics import nearest_rank_index
        with pytest.raises(ValueError):
            nearest_rank_index(10, 1.5)
        with pytest.raises(ValueError):
            nearest_rank_index(10, -0.1)
        with pytest.raises(ValueError):
            nearest_rank_index(0, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200),
        q=st.floats(min_value=0.01, max_value=1.0))
    def test_slo_report_rank_is_a_real_observation(self, values, q):
        from repro.serving.slo_report import nearest_rank
        result = nearest_rank(values, q)
        assert result in values
        # At least ceil(q*n) observations are <= the reported rank.
        import math as _math
        ordered = sorted(values)
        rank = max(1, _math.ceil(q * len(values)))
        assert sum(v <= result for v in values) >= rank
        assert result == ordered[rank - 1]

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0]),
                           min_size=1, max_size=100),
           q=st.floats(min_value=0.01, max_value=1.0))
    def test_histogram_picks_the_exact_ranks_bucket(self, values, q):
        """Both sides share one rank convention, so when every
        observation sits exactly on a bucket upper bound the bucketed
        estimate lands inside the bucket whose upper bound *is* the
        exact nearest-rank percentile."""
        from repro.serving.slo_report import nearest_rank
        bounds = (1.0, 2.0, 3.0, 4.0)
        hist = Histogram("h", buckets=bounds)
        for v in values:
            hist.observe(v)
        exact = nearest_rank(values, q)
        estimate = hist.quantile(q)
        lower = {1.0: 0.0, 2.0: 1.0, 3.0: 2.0, 4.0: 3.0}[exact]
        assert lower < estimate <= exact

    @pytest.mark.parametrize("q", [0.01, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_histogram_exact_when_one_observation_per_bucket(self, q):
        """With exactly one observation per bucket the in-bucket
        interpolation is trivial and the two implementations agree to
        the digit."""
        from repro.serving.slo_report import nearest_rank
        values = [1.0, 2.0, 3.0, 4.0]
        hist = Histogram("h", buckets=(1.0, 2.0, 3.0, 4.0))
        for v in values:
            hist.observe(v)
        assert hist.quantile(q) == pytest.approx(
            nearest_rank(values, q))
