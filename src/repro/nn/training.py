"""Training loop with minibatching, validation and early stopping.

Works with both :class:`~repro.nn.model.Sequential` (single input) and
:class:`~repro.nn.model.TwoBranchMLP` (structural + statistics inputs):
inputs are passed as a tuple of arrays and splatted into ``forward``.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.data import iterate_minibatches
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.optim import Adam


@dataclass
class TrainingHistory:
    """Per-epoch curves plus the wall-clock cost (Table 3 reports model
    training time as offline overhead)."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    best_epoch: int = -1

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Adam + softmax-CE classifier trainer with early stopping."""

    def __init__(self, model, lr: float = 1e-3, batch_size: int = 64,
                 max_epochs: int = 200, patience: int = 15,
                 weight_decay: float = 1e-5, seed: int = 0) -> None:
        self.model = model
        self.lr = lr
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.weight_decay = weight_decay
        self.seed = seed
        self.loss_fn = SoftmaxCrossEntropy()
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def _forward(self, inputs: Tuple[np.ndarray, ...]) -> np.ndarray:
        return self.model.forward(*inputs)

    def _take(self, inputs: Tuple[np.ndarray, ...],
              idx: np.ndarray) -> Tuple[np.ndarray, ...]:
        return tuple(x[idx] for x in inputs)

    def evaluate(self, inputs: Tuple[np.ndarray, ...],
                 targets: np.ndarray) -> Tuple[float, float]:
        """(loss, accuracy) in eval mode."""
        self.model.eval()
        logits = self._forward(inputs)
        loss, _ = self.loss_fn.forward(logits, targets)
        acc = accuracy(logits.argmax(axis=1), targets)
        return loss, acc

    def predict(self, inputs: Tuple[np.ndarray, ...]) -> np.ndarray:
        self.model.eval()
        return self._forward(inputs).argmax(axis=1)

    # ------------------------------------------------------------------
    def fit(self, train_inputs: Tuple[np.ndarray, ...],
            train_targets: np.ndarray,
            val_inputs: Optional[Tuple[np.ndarray, ...]] = None,
            val_targets: Optional[np.ndarray] = None,
            verbose: bool = False) -> TrainingHistory:
        """Train until convergence or ``max_epochs``.

        Early stopping restores the best-validation-loss parameters.  An
        empty validation split counts as no validation: training runs
        the full ``max_epochs`` budget.
        """
        t0 = time.perf_counter()
        optimizer = Adam(self.model.params(), self.model.grads(),
                         lr=self.lr, weight_decay=self.weight_decay)
        n = len(train_targets)
        best_val = np.inf
        best_params: Optional[List[np.ndarray]] = None
        stale = 0
        validate = val_inputs is not None and val_targets is not None \
            and len(val_targets) > 0
        for epoch in range(self.max_epochs):
            self.model.train()
            epoch_loss = 0.0
            n_batches = 0
            for idx in iterate_minibatches(n, self.batch_size,
                                           seed=self.seed + epoch):
                optimizer.zero_grad()
                logits = self._forward(self._take(train_inputs, idx))
                loss, dlogits = self.loss_fn.forward(logits,
                                                     train_targets[idx])
                self.model.backward(dlogits)
                optimizer.step()
                epoch_loss += loss
                n_batches += 1
            self.history.train_loss.append(epoch_loss / max(n_batches, 1))

            if validate:
                val_loss, val_acc = self.evaluate(val_inputs, val_targets)
                self.history.val_loss.append(val_loss)
                self.history.val_accuracy.append(val_acc)
                if verbose:  # pragma: no cover - console aid
                    print(f"epoch {epoch:3d} train {epoch_loss/n_batches:.4f}"
                          f" val {val_loss:.4f} acc {val_acc:.3f}")
                if val_loss < best_val - 1e-6:
                    best_val = val_loss
                    best_params = [p.copy() for p in self.model.params()]
                    self.history.best_epoch = epoch
                    stale = 0
                else:
                    stale += 1
                    if stale >= self.patience:
                        break
        if best_params is not None:
            for p, best in zip(self.model.params(), best_params):
                p[...] = best
        self.history.wall_time_s = time.perf_counter() - t0
        return self.history
