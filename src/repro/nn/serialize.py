"""Weight persistence for the numpy NN framework.

Models serialize to ``.npz`` archives: one array per parameter plus a
JSON-encoded architecture header, so a fitted PowerLens deployment can
ship its two prediction models without retraining (the paper's offline
training costs hours; the deployed artefact must be loadable in
milliseconds).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.nn.data import StandardScaler


def _collect_params(model) -> List[np.ndarray]:
    return model.params()


def save_params(model, path: Union[str, Path],
                meta: dict = None) -> None:
    """Save a model's parameters (and optional JSON metadata)."""
    payload = {
        f"param_{i}": p for i, p in enumerate(_collect_params(model))
    }
    payload["meta"] = np.frombuffer(
        json.dumps(meta or {}).encode(), dtype=np.uint8)
    np.savez_compressed(path, **payload)


def load_params(model, path: Union[str, Path]) -> dict:
    """Load parameters saved by :func:`save_params` into ``model``
    (shapes must match); returns the metadata dict."""
    with np.load(path) as data:
        params = _collect_params(model)
        for i, p in enumerate(params):
            key = f"param_{i}"
            if key not in data:
                raise ValueError(
                    f"archive has {len(data) - 1} params, model needs "
                    f"{len(params)}")
            saved = data[key]
            if saved.shape != p.shape:
                raise ValueError(
                    f"param {i} shape mismatch: archive {saved.shape} vs "
                    f"model {p.shape}")
            p[...] = saved
        meta_raw = data["meta"].tobytes().decode() if "meta" in data \
            else "{}"
    return json.loads(meta_raw)


def scaler_to_dict(scaler: StandardScaler) -> dict:
    """JSON-compatible dump of a fitted scaler."""
    if scaler.mean_ is None or scaler.scale_ is None:
        raise ValueError("scaler not fitted")
    return {
        "mean": scaler.mean_.tolist(),
        "scale": scaler.scale_.tolist(),
    }


def scaler_from_dict(payload: dict) -> StandardScaler:
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(payload["mean"], dtype=float)
    scaler.scale_ = np.asarray(payload["scale"], dtype=float)
    return scaler
