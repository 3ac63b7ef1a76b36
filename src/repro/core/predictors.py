"""The two prediction models of the PowerLens framework.

* :class:`HyperparamPredictor` — Figure 3: a two-stage MLP classifying
  the best clustering scheme for a DNN.  Macro structural features enter
  at the input; aggregate statistics features are injected mid-network.
  The paper reports 92.6 % test accuracy.
* :class:`DecisionModel` — Figure 4: an MLP classifying the target
  frequency level for one power block from its global features.  The
  paper reports 94.2 % test accuracy, with wrong predictions typically
  one or two levels off (measured here by ``within_k_accuracy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.datasets import DatasetA, DatasetB
from repro.core.features import GlobalFeatures
from repro.core.schemes import ClusteringScheme
from repro.nn import (
    Sequential,
    StandardScaler,
    Trainer,
    TwoBranchMLP,
    accuracy,
    split_indices,
    within_k_accuracy,
)


@dataclass
class FitReport:
    """Held-out evaluation of a trained predictor (paper section 2.2).

    ``equivalent_accuracy`` (hyper-parameter model only) counts a
    prediction as correct when the predicted scheme's measured view
    quality is within 1 % of the labeled scheme's on that network —
    several schemes routinely tie, and picking any of them yields the
    same power view downstream.
    """

    test_accuracy: float
    val_accuracy: float
    within_1_accuracy: float
    within_2_accuracy: float
    epochs: int
    wall_time_s: float
    n_train: int
    n_test: int
    equivalent_accuracy: float = 0.0


class HyperparamPredictor:
    """Clustering hyper-parameter prediction model (Figure 3)."""

    def __init__(self, schemes: Sequence[ClusteringScheme],
                 structural_dim: int, statistics_dim: int,
                 seed: int = 0) -> None:
        self.schemes = list(schemes)
        self.model = TwoBranchMLP(
            structural_dim=structural_dim,
            statistics_dim=statistics_dim,
            n_classes=len(self.schemes),
            stage1_dims=(64, 64),
            stage2_dims=(128, 64),
            dropout=0.1,
            seed=seed,
        )
        self._scaler_struct = StandardScaler()
        self._scaler_stats = StandardScaler()
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, dataset: DatasetA, seed: int = 0,
            max_epochs: int = 200, verbose: bool = False) -> FitReport:
        """80/10/10 train/val/test fit with early stopping."""
        xs = self._scaler_struct.fit_transform(dataset.x_struct)
        xt = self._scaler_stats.fit_transform(dataset.x_stats)
        y = dataset.y
        tr, va, te = split_indices(len(y), seed=seed)
        trainer = Trainer(self.model, lr=2e-3, batch_size=64,
                          max_epochs=max_epochs, patience=20, seed=seed)
        history = trainer.fit((xs[tr], xt[tr]), y[tr],
                              (xs[va], xt[va]), y[va], verbose=verbose)
        self._fitted = True
        pred_te = trainer.predict((xs[te], xt[te]))
        val_acc = accuracy(trainer.predict((xs[va], xt[va])), y[va])
        equivalent = 0.0
        if dataset.qualities is not None and len(te) > 0:
            q = dataset.qualities[te]
            label_q = q[np.arange(len(te)), y[te]]
            pred_q = q[np.arange(len(te)), pred_te]
            equivalent = float((pred_q >= 0.99 * label_q).mean())
        return FitReport(
            test_accuracy=accuracy(pred_te, y[te]),
            val_accuracy=val_acc,
            within_1_accuracy=within_k_accuracy(pred_te, y[te], 1),
            within_2_accuracy=within_k_accuracy(pred_te, y[te], 2),
            epochs=history.epochs,
            wall_time_s=history.wall_time_s,
            n_train=len(tr),
            n_test=len(te),
            equivalent_accuracy=equivalent,
        )

    def predict(self, features: GlobalFeatures) -> ClusteringScheme:
        """Predicted best scheme for one network."""
        return self.schemes[self.predict_index(features)]

    def predict_index(self, features: GlobalFeatures) -> int:
        if not self._fitted:
            raise RuntimeError("HyperparamPredictor not fitted")
        xs = self._scaler_struct.transform(
            features.structural[None, :])
        xt = self._scaler_stats.transform(
            features.statistics[None, :])
        logits = self.model.predict(xs, xt)
        return int(logits.argmax(axis=1)[0])


class DecisionModel:
    """Target-frequency decision model (Figure 4)."""

    def __init__(self, input_dim: int, n_levels: int,
                 hidden: Sequence[int] = (128, 64), seed: int = 0) -> None:
        self.n_levels = n_levels
        self.model = Sequential.mlp([input_dim, *hidden, n_levels],
                                    dropout=0.1, seed=seed)
        self._scaler = StandardScaler()
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, dataset: DatasetB, seed: int = 0,
            max_epochs: int = 200, verbose: bool = False) -> FitReport:
        """80/10/10 train/val/test fit with early stopping."""
        x = self._scaler.fit_transform(dataset.x)
        y = dataset.y
        tr, va, te = split_indices(len(y), seed=seed)
        trainer = Trainer(self.model, lr=2e-3, batch_size=128,
                          max_epochs=max_epochs, patience=20, seed=seed)
        history = trainer.fit((x[tr],), y[tr], (x[va],), y[va],
                              verbose=verbose)
        self._fitted = True
        pred_te = trainer.predict((x[te],))
        val_acc = accuracy(trainer.predict((x[va],)), y[va])
        return FitReport(
            test_accuracy=accuracy(pred_te, y[te]),
            val_accuracy=val_acc,
            within_1_accuracy=within_k_accuracy(pred_te, y[te], 1),
            within_2_accuracy=within_k_accuracy(pred_te, y[te], 2),
            epochs=history.epochs,
            wall_time_s=history.wall_time_s,
            n_train=len(tr),
            n_test=len(te),
        )

    def predict_levels(self, block_features: np.ndarray) -> List[int]:
        """Predicted target level for each row of ``block_features``."""
        if not self._fitted:
            raise RuntimeError("DecisionModel not fitted")
        x = self._scaler.transform(np.atleast_2d(block_features))
        logits = self.model.predict(x)
        return [int(i) for i in logits.argmax(axis=1)]
