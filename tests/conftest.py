"""Shared fixtures.

``tiny_platform`` is a cut-down ladder for fast governor/simulator tests;
``fitted_lens`` is a session-scoped PowerLens trained on a small corpus so
pipeline/ablation/experiment tests don't each pay for dataset generation.

Every test also runs under a soft wall-clock timeout (default 180 s,
``POWERLENS_TEST_TIMEOUT`` to change, ``0`` to disable) so a hung retry
loop fails that one test fast instead of wedging the whole suite.  When
the real ``pytest-timeout`` plugin is installed it takes precedence; the
fallback here uses ``SIGALRM`` and is a no-op on platforms without it.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings as hyp_settings

from repro.core import PowerLens, PowerLensConfig
from repro.graph import Graph, GraphBuilder
from repro.hw import PlatformSpec, CpuSpec, jetson_tx2

TEST_TIMEOUT_S = float(os.environ.get("POWERLENS_TEST_TIMEOUT", "180"))

# Deterministic hypothesis profile for CI: derandomized (the same
# example sequence on every run, so a red build is reproducible) and
# with the wall-clock deadline off (shared runners are noisy).  Loaded
# whenever a CI environment announces itself; local runs keep the
# default randomized exploration.
hyp_settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow])
if os.environ.get("CI") or os.environ.get("GITHUB_ACTIONS"):
    hyp_settings.load_profile("ci")


GOLDEN_DIR = Path(__file__).parent / "goldens"


def _canonical(value):
    """Floats at 10 significant digits, containers rebuilt as dict/list."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def check_golden(name: str, data: dict, update: bool) -> None:
    """Compare ``data`` against ``tests/goldens/<name>.json``: its
    canonical form plus the sha256 of its exact JSON text, so a drift
    below the canonical rounding still shows.  ``update`` (the
    ``--update-goldens`` flag) rewrites the fixture instead."""
    path = GOLDEN_DIR / f"{name}.json"
    golden = {
        "sha256": hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()).hexdigest(),
        "result": _canonical(data),
    }
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    if update:
        path.write_text(text)
        return
    assert path.exists(), (
        f"golden fixture {path} missing — generate it with "
        f"pytest --update-goldens")
    assert text == path.read_text(), (
        f"{name} drifted from its golden fixture; if the change is "
        f"intended, rerun with --update-goldens and commit the diff")


@pytest.fixture(autouse=True)
def _soft_timeout(request):
    """Per-test wall-clock limit via SIGALRM (see module docstring)."""
    marker = request.node.get_closest_marker("timeout")
    limit = float(marker.args[0]) if marker and marker.args \
        else TEST_TIMEOUT_S
    if (limit <= 0 or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()
            or request.config.pluginmanager.hasplugin("timeout")):
        # SIGALRM timers only work from the main thread (and not at all
        # on platforms without the signal); degrade to no timeout.
        yield
        return

    def _expired(signum, frame):
        pytest.fail(f"test exceeded the {limit:.0f}s soft timeout "
                    f"(POWERLENS_TEST_TIMEOUT)", pytrace=False)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def tx2() -> PlatformSpec:
    return jetson_tx2()


@pytest.fixture(scope="session")
def tiny_platform() -> PlatformSpec:
    """Five-level platform, cheap to sweep exhaustively."""
    return PlatformSpec(
        name="tiny",
        gpu_freq_levels=(200e6, 400e6, 600e6, 800e6, 1000e6),
        cpu=CpuSpec(freq_levels=(500e6, 1000e6, 2000e6)),
    )


def build_small_cnn(name: str = "small_cnn") -> Graph:
    """A small but structurally interesting CNN: conv stage, residual
    stage, classifier head."""
    b = GraphBuilder(name)
    x = b.input((3, 32, 32))
    x = b.conv_bn_act(x, 16, kernel=3, stride=1, padding=1)
    x = b.conv_bn_act(x, 32, kernel=3, stride=2, padding=1)
    y = b.conv_bn_act(x, 32, kernel=3, stride=1, padding=1)
    x = b.add([x, y])
    x = b.relu(x)
    x = b.adaptive_avgpool(x, 1)
    x = b.flatten(x)
    x = b.linear(x, 64)
    x = b.relu(x)
    b.linear(x, 10)
    return b.build()


@pytest.fixture()
def small_cnn() -> Graph:
    return build_small_cnn()


@pytest.fixture(scope="session")
def fitted_lens(tx2) -> PowerLens:
    """PowerLens fitted on a small synthetic corpus (session-scoped)."""
    lens = PowerLens(tx2, PowerLensConfig(n_networks=25, seed=7))
    lens.fit()
    return lens
