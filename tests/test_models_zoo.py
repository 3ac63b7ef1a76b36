"""Model zoo tests: construction, validity, registry, paper fidelity."""

import pytest

from repro.graph import node_table, validate_graph
from repro.graph.ops import OpCategory, OpType
from repro.models import PAPER_MODELS, build_model, list_models
from repro.models.zoo import _ALIASES, register_model

_PAPER_CANONICAL = {_ALIASES.get(m, m) for m in PAPER_MODELS}


class TestRegistry:
    def test_paper_models_complete(self):
        assert len(PAPER_MODELS) == 12

    #: The paper's names (aliases included), then every other
    #: registered model: all of ``list_models()`` builds.
    @pytest.mark.parametrize("name", PAPER_MODELS + [
        m for m in list_models() if m not in _PAPER_CANONICAL])
    def test_paper_model_builds_and_validates(self, name):
        g = build_model(name)
        errors = [i for i in validate_graph(g) if i.severity == "error"]
        assert errors == []

    def test_aliases_resolve(self):
        assert build_model("mobilenet_v3").name == "mobilenet_v3_large"
        assert build_model("resnext101").name == "resnext101_32x8d"
        assert build_model("vit_base_16").name == "vit_b_16"

    def test_unknown_model_raises_with_listing(self):
        with pytest.raises(KeyError, match="available"):
            build_model("resnet9000")

    def test_list_models_sorted(self):
        models = list_models()
        assert models == sorted(models)
        assert "resnet152" in models

    def test_register_custom(self):
        from repro.models.alexnet import alexnet
        register_model("my_alexnet", alexnet)
        assert "my_alexnet" in list_models()

    def test_num_classes_respected(self):
        g = build_model("resnet18", num_classes=13)
        head = g.compute_nodes()[-1]
        assert head.op is OpType.LINEAR
        assert head.output_shape == (13,)


class TestArchitectureFidelity:
    def test_resnet152_block_structure(self):
        g = build_model("resnet152")
        # 50 bottlenecks -> 50 residual adds.
        assert int(node_table(g).residual.sum()) == 3 + 8 + 36 + 3

    def test_resnet34_residuals(self):
        assert int(node_table(build_model("resnet34")).residual.sum()) == 16

    def test_vit_b16_attention_count(self):
        g = build_model("vit_b_16")
        attn = [n for n in g.compute_nodes()
                if n.op is OpType.ATTENTION]
        assert len(attn) == 12
        assert all(n.attrs.num_heads == 12 for n in attn)

    def test_vit_b32_fewer_tokens_than_b16(self):
        g16 = build_model("vit_b_16")
        g32 = build_model("vit_b_32")
        tokens16 = next(n for n in g16.compute_nodes()
                        if n.op is OpType.CLS_POS_EMBED).output_shape[0]
        tokens32 = next(n for n in g32.compute_nodes()
                        if n.op is OpType.CLS_POS_EMBED).output_shape[0]
        assert tokens16 == 197
        assert tokens32 == 50

    def test_googlenet_concat_modules(self):
        g = build_model("googlenet")
        concats = [n for n in g.compute_nodes() if n.op is OpType.CONCAT]
        assert len(concats) == 9  # nine inception modules

    def test_mobilenet_has_depthwise(self):
        g = build_model("mobilenet_v3")
        dw = [n for n in g.compute_nodes()
              if n.category is OpCategory.DWCONV]
        assert len(dw) >= 15

    def test_densenet201_growth(self):
        g = build_model("densenet201")
        # Final feature channels: 64 + 32*6 -> /2 ... standard value 1920.
        bn_final = [n for n in g.compute_nodes()
                    if n.op is OpType.BATCHNORM2D][-1]
        assert bn_final.output_shape[0] == 1920

    @pytest.mark.parametrize("model,params_m", [
        ("efficientnet_b0", 5.33),
        ("squeezenet1_1", 1.24),
        ("inception_v3", 23.9),
        ("wide_resnet50_2", 68.9),
    ])
    def test_extended_zoo_param_counts(self, model, params_m):
        total = node_table(build_model(model)).params.sum() / 1e6
        assert total == pytest.approx(params_m, rel=0.03)

    def test_inception_asymmetric_kernels(self):
        g = build_model("inception_v3")
        kernels = {n.attrs.kernel for n in g.compute_nodes()
                   if n.op is OpType.CONV2D}
        assert (1, 7) in kernels and (7, 1) in kernels

    def test_vgg19_conv_count(self):
        g = build_model("vgg19")
        convs = [n for n in g.compute_nodes() if n.op is OpType.CONV2D]
        assert len(convs) == 16

    def test_regnet_y_has_se(self):
        g = build_model("regnet_y_128gf")
        muls = [n for n in g.compute_nodes() if n.op is OpType.MUL]
        assert len(muls) == 2 + 7 + 17 + 1  # one SE gate per block

    def test_regnet_x_has_no_se(self):
        g = build_model("regnet_x_32gf")
        muls = [n for n in g.compute_nodes() if n.op is OpType.MUL]
        assert muls == []

    def test_size_ordering(self):
        sizes = {
            name: node_table(build_model(name)).flops.sum()
            for name in ("alexnet", "resnet34", "resnet152",
                         "regnet_y_128gf")
        }
        assert sizes["alexnet"] < sizes["resnet34"] < \
            sizes["resnet152"] < sizes["regnet_y_128gf"]
