"""Random DNN generator tests."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import node_table, validate_graph
from repro.graph.ops import OpType
from repro.models import RandomDNNConfig, RandomDNNGenerator


class TestDeterminism:
    def test_same_seed_same_graphs(self):
        gen_a = RandomDNNGenerator(seed=123)
        gen_b = RandomDNNGenerator(seed=123)
        a = [gen_a.generate() for _ in range(3)]
        b = [gen_b.generate() for _ in range(3)]
        for ga, gb in zip(a, b):
            assert [n.op for n in ga.nodes()] == [n.op for n in gb.nodes()]
            assert [n.output_shape for n in ga.nodes()] == \
                [n.output_shape for n in gb.nodes()]

    def test_different_seeds_differ(self):
        a = RandomDNNGenerator(seed=1).generate()
        b = RandomDNNGenerator(seed=2).generate()
        assert [n.op for n in a.nodes()] != [n.op for n in b.nodes()] or \
            [n.output_shape for n in a.nodes()] != \
            [n.output_shape for n in b.nodes()]

    def test_names_unique_across_generations(self):
        gen = RandomDNNGenerator(seed=0)
        names = {gen.generate().name for _ in range(5)}
        assert len(names) == 5


class TestValidity:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    def test_generated_graphs_always_valid(self, seed):
        """Property: every generated network validates and ends in a
        classifier head of the configured width."""
        g = RandomDNNGenerator(seed=seed).generate()
        errors = [i for i in validate_graph(g) if i.severity == "error"]
        assert errors == []
        head = g.compute_nodes()[-1]
        assert head.op is OpType.LINEAR
        assert head.output_shape == (1000,)

    def test_config_respected(self):
        cfg = RandomDNNConfig(min_stages=1, max_stages=1,
                              min_blocks_per_stage=1,
                              max_blocks_per_stage=1,
                              allow_transformer=False,
                              num_classes=7)
        g = RandomDNNGenerator(cfg, seed=0).generate()
        assert g.compute_nodes()[-1].output_shape == (7,)
        assert not any(n.op is OpType.ATTENTION for n in g.nodes())


class TestDiversity:
    def test_population_varies_in_size(self):
        gen = RandomDNNGenerator(seed=42)
        flops = [node_table(g).flops.sum()
                 for g in (gen.generate() for _ in range(20))]
        assert max(flops) / min(flops) > 3

    def test_transformer_stage_appears(self):
        gen = RandomDNNGenerator(seed=0)
        found = False
        for _ in range(40):
            g = gen.generate()
            if any(n.op is OpType.ATTENTION for n in g.nodes()):
                found = True
                break
        assert found, "no transformer stage in 40 generations"

    def test_multiple_stage_kinds_appear(self):
        gen = RandomDNNGenerator(seed=3)
        ops = set()
        for _ in range(20):
            ops.update(n.op for n in gen.generate().nodes())
        assert OpType.ADD in ops        # residual stages
        assert OpType.CONV2D in ops
        # depthwise separable stages produce grouped convs
        from repro.graph.ops import OpCategory
        gen2 = RandomDNNGenerator(seed=3)
        cats = set()
        for _ in range(20):
            cats.update(n.category for n in gen2.generate().nodes())
        assert OpCategory.DWCONV in cats
