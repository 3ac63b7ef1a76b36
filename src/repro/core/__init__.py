"""PowerLens core: the paper's primary contribution.

Modules
-------
``features``
    Power-sensitive feature extraction (section 2.1.2): the depthwise
    (per-layer) extractor and the global (structural + statistics)
    extractor.
``clustering``
    Power behavior similarity clustering (Algorithm 1): the factorized
    Mahalanobis + operator-spacing distance stage, DBSCAN over its
    exact adjacency, and post-processing into contiguous power blocks.
``power_view``
    The power view / power block intermediate representation.
``schemes``
    The discrete grid of clustering hyper-parameter schemes the
    prediction model classifies over.
``labeling``
    Dataset labeling rules: exhaustive per-block frequency sweeps and
    scheme-quality evaluation (section 2.2).
``datasets``
    The dataset generator: random networks -> Dataset A (global features
    -> best scheme) and Dataset B (block features -> optimal level).
``predictors``
    The clustering hyper-parameter prediction model (Figure 3) and the
    target-frequency decision model (Figure 4).
``pipeline``
    The end-to-end offline workflow: train once per platform, then
    ``analyze()`` any DNN into an instrumented frequency plan.
``persistence``
    Deployment save/load and the on-disk dataset cache keyed by a
    content hash of the generation configuration.
``ablation``
    The P-R (random partitioning) and P-N (no clustering) variants of
    Table 2.
``overhead``
    Stage timers backing the offline-overhead breakdown of Table 3.
"""

from repro.core.features import (
    DepthwiseFeatureExtractor,
    GlobalFeatureExtractor,
    GlobalFeatures,
    DEPTHWISE_FEATURE_NAMES,
)
from repro.core.clustering import (
    process_clusters,
    cluster_power_blocks,
)
from repro.core.power_view import PowerBlock, PowerView
from repro.core.schemes import ClusteringScheme, default_scheme_grid
from repro.core.labeling import (
    best_scheme_for_graph,
    label_network,
    NetworkLabels,
)
from repro.core.datasets import (
    DatasetA,
    DatasetB,
    DatasetGenerator,
    GenerationStats,
)
from repro.core.predictors import (
    HyperparamPredictor,
    DecisionModel,
)
from repro.core.pipeline import PowerLens, PowerLensConfig, PowerLensPlan
from repro.core.ablation import random_partition_plan, no_clustering_plan
from repro.core.overhead import StageTimer, OverheadReport
from repro.core.persistence import (
    DatasetCache,
    dataset_cache_key,
    default_cache_dir,
    resolve_cache_dir,
    save_powerlens,
    load_powerlens,
)

__all__ = [
    "DepthwiseFeatureExtractor",
    "GlobalFeatureExtractor",
    "GlobalFeatures",
    "DEPTHWISE_FEATURE_NAMES",
    "process_clusters",
    "cluster_power_blocks",
    "PowerBlock",
    "PowerView",
    "ClusteringScheme",
    "default_scheme_grid",
    "best_scheme_for_graph",
    "label_network",
    "NetworkLabels",
    "DatasetA",
    "DatasetB",
    "DatasetGenerator",
    "GenerationStats",
    "HyperparamPredictor",
    "DecisionModel",
    "PowerLens",
    "PowerLensConfig",
    "PowerLensPlan",
    "random_partition_plan",
    "no_clustering_plan",
    "StageTimer",
    "OverheadReport",
    "DatasetCache",
    "dataset_cache_key",
    "default_cache_dir",
    "resolve_cache_dir",
    "save_powerlens",
    "load_powerlens",
]
