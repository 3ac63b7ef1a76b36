"""Minimal numpy neural-network framework.

The paper trains two small MLP classifiers (Figures 3 and 4): the
clustering hyper-parameter prediction model — a two-stage network where
macro *structural* features enter at the input and aggregate *statistics*
features are injected mid-network — and the per-block target-frequency
decision model.  This package provides exactly the machinery those models
need: dense/ReLU/dropout layers with hand-written backprop, softmax
cross-entropy, Adam, a two-branch module mirroring Figure 3, a
training loop with early stopping, and feature scaling.
"""

from repro.nn.layers import Layer, Dense, ReLU, Dropout
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.optim import Adam, Optimizer
from repro.nn.model import Sequential, TwoBranchMLP
from repro.nn.data import StandardScaler, split_indices, iterate_minibatches
from repro.nn.training import Trainer, TrainingHistory
from repro.nn.metrics import accuracy, within_k_accuracy

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Dropout",
    "SoftmaxCrossEntropy",
    "softmax",
    "Adam",
    "Optimizer",
    "Sequential",
    "TwoBranchMLP",
    "StandardScaler",
    "split_indices",
    "iterate_minibatches",
    "Trainer",
    "TrainingHistory",
    "accuracy",
    "within_k_accuracy",
]
