"""Feature extraction tests (section 2.1.2)."""

import numpy as np
import pytest

from repro.core.features import (
    DEPTHWISE_FEATURE_NAMES,
    STATISTICS_FEATURE_NAMES,
    STRUCTURAL_FEATURE_NAMES,
    DepthwiseFeatureExtractor,
    GlobalFeatureExtractor,
)
from repro.models import build_model


@pytest.fixture(scope="module")
def resnet34():
    return build_model("resnet34")


class TestDepthwise:
    def test_matrix_shape(self, small_cnn):
        ext = DepthwiseFeatureExtractor()
        x = ext.extract(small_cnn)
        assert x.shape == (len(small_cnn.compute_nodes()),
                           len(DEPTHWISE_FEATURE_NAMES))

    def test_feature_names_match_width(self):
        ext = DepthwiseFeatureExtractor()
        assert ext.n_features == len(DEPTHWISE_FEATURE_NAMES)

    def test_onehot_exactly_one_category(self, small_cnn):
        ext = DepthwiseFeatureExtractor()
        x = ext.extract(small_cnn)
        cat_start = DEPTHWISE_FEATURE_NAMES.index("cat_conv")
        cat_cols = x[:, cat_start:cat_start + 10]
        assert np.all(cat_cols.sum(axis=1) == 1.0)

    def test_conv_has_kernel_features(self, small_cnn):
        ext = DepthwiseFeatureExtractor()
        compute = small_cnn.compute_nodes()
        conv = next(n for n in compute if n.op.value == "conv2d")
        v = ext.extract_node(small_cnn, conv)
        k_idx = DEPTHWISE_FEATURE_NAMES.index("kernel_area")
        assert v[k_idx] == 9.0  # 3x3

    def test_attention_heads_feature(self):
        ext = DepthwiseFeatureExtractor()
        g = build_model("vit_b_32")
        attn = next(n for n in g.compute_nodes()
                    if n.op.value == "attention")
        v = ext.extract_node(g, attn)
        h_idx = DEPTHWISE_FEATURE_NAMES.index("attention_heads")
        assert v[h_idx] == 12.0

    def test_residual_merge_flag(self, small_cnn):
        ext = DepthwiseFeatureExtractor()
        add = next(n for n in small_cnn.compute_nodes()
                   if n.op.value == "add")
        v = ext.extract_node(small_cnn, add)
        idx = DEPTHWISE_FEATURE_NAMES.index("is_residual_merge")
        assert v[idx] == 1.0

    def test_scaled_features_standardized(self, resnet34):
        ext = DepthwiseFeatureExtractor()
        x = ext.extract_scaled(resnet34)
        means = x.mean(axis=0)
        stds = x.std(axis=0)
        assert np.all(np.abs(means) < 1e-9)
        # Non-constant columns have unit std; constant columns zero.
        assert np.all((np.abs(stds - 1) < 1e-9) | (stds < 1e-9))

    def test_empty_graph(self):
        from repro.graph import GraphBuilder
        b = GraphBuilder("empty")
        b.input((3, 8, 8))
        x = DepthwiseFeatureExtractor().extract(b.build())
        assert x.shape[0] == 0

    def test_all_features_finite(self, resnet34):
        x = DepthwiseFeatureExtractor().extract(resnet34)
        assert np.all(np.isfinite(x))


class TestGlobal:
    def test_dims_match_names(self, small_cnn):
        ext = GlobalFeatureExtractor()
        gf = ext.extract(small_cnn)
        assert gf.structural.shape == (ext.structural_dim,)
        assert gf.statistics.shape == (ext.statistics_dim,)
        assert ext.structural_dim == len(STRUCTURAL_FEATURE_NAMES)
        assert ext.statistics_dim == len(STATISTICS_FEATURE_NAMES)

    def test_vector_concatenates(self, small_cnn):
        gf = GlobalFeatureExtractor().extract(small_cnn)
        assert np.allclose(gf.vector,
                           np.concatenate([gf.structural, gf.statistics]))

    def test_whole_graph_position_features(self, small_cnn):
        gf = GlobalFeatureExtractor().extract(small_cnn)
        assert gf.statistics[-2] == 0.0   # position_frac
        assert gf.statistics[-1] == 1.0   # length_frac

    def test_block_position_features(self, small_cnn):
        n = len(small_cnn.compute_nodes())
        gf = GlobalFeatureExtractor().extract(small_cnn,
                                              range(n // 2, n))
        assert gf.statistics[-2] == pytest.approx((n // 2) / n)
        assert gf.statistics[-1] == pytest.approx((n - n // 2) / n)

    def test_flops_fractions_sum_to_one(self, resnet34):
        gf = GlobalFeatureExtractor().extract(resnet34)
        names = STATISTICS_FEATURE_NAMES
        start = names.index("flops_frac_conv")
        fracs = gf.statistics[start:start + 10]
        assert fracs.sum() == pytest.approx(1.0)

    def test_has_attention_flag(self):
        ext = GlobalFeatureExtractor()
        vit = ext.extract(build_model("vit_b_32"))
        cnn = ext.extract(build_model("resnet18"))
        idx = STRUCTURAL_FEATURE_NAMES.index("has_attention")
        assert vit.structural[idx] == 1.0
        assert cnn.structural[idx] == 0.0

    def test_empty_block_rejected(self, small_cnn):
        with pytest.raises(ValueError):
            GlobalFeatureExtractor().extract(small_cnn, [])

    def test_out_of_range_block_rejected(self, small_cnn):
        with pytest.raises(IndexError):
            GlobalFeatureExtractor().extract(small_cnn, [999])

    def test_block_matrix(self, small_cnn):
        ext = GlobalFeatureExtractor()
        n = len(small_cnn.compute_nodes())
        blocks = [range(n // 2), range(n // 2, n)]
        m = np.vstack([ext.extract(small_cnn, b).vector for b in blocks])
        assert m.shape == (2, ext.structural_dim + ext.statistics_dim)
        # position_frac, length_frac: the two blocks tile the network.
        assert m[:, -2].tolist() == [0.0, (n // 2) / n]
        assert m[:, -1].sum() == pytest.approx(1.0)
