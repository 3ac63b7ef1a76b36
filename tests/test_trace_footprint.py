"""Memory footprint of a kept trace: a segment costs its columns, not a
tuple.

The pin is tracemalloc-based and deterministic: it counts every traced
byte a finished simulation result still holds, after the simulator (and
with it the run's cost tables) is gone.
"""

import gc
import tracemalloc

from repro.governors import OndemandGovernor
from repro.hw import InferenceJob, InferenceSimulator, jetson_tx2
from repro.models import build_model

#: 7 doubles + 4 C ints = 72 B a segment, plus the arrays' growth slack
#: (at most 1/16) and the string table.  A list of ``TraceSegment``
#: tuples costs ~170 B a segment.
_BYTES_PER_SEGMENT = 80

_MIN_SEGMENTS = 20_000


def _noisy_ondemand_run(n_batches: int):
    sim = InferenceSimulator(jetson_tx2(), noise_std=0.02, seed=3,
                             keep_trace=True, keep_samples=False)
    job = InferenceJob(graph=build_model("resnet18"), batch_size=16,
                       n_batches=n_batches)
    return sim.run([job], OndemandGovernor())


def test_kept_trace_bytes_per_segment():
    _noisy_ondemand_run(1)  # fill module-level caches before measuring
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = _noisy_ondemand_run(210)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    n_segments = len(result.trace.segments)
    assert n_segments >= _MIN_SEGMENTS
    assert retained / n_segments <= _BYTES_PER_SEGMENT, (
        f"{retained / n_segments:.1f} B per segment")
