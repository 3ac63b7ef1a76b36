"""Fit platform power coefficients to measured samples.

The bridge from this simulator back to physical silicon: given
(frequency, compute-occupancy, byte-rate, measured power) samples — the
kind a tegrastats/NVML logger produces — recover the CMOS model's
coefficients

    P = leak_w_per_v * V(f)
      + c_eff * V(f)^2 * f * (u_c + stall * (1 - u_c))
      + dram_energy_per_byte * byte_rate

by linear least squares (the model is linear in ``leak_w_per_v``,
``c_eff * 1``, ``c_eff * stall`` and ``dram_energy_per_byte``).  A
calibrated spec turns measured-board behaviour into simulator behaviour,
which is how a real deployment would validate PowerLens plans before
flashing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class CalibrationSample:
    """One measured operating point."""

    freq: float            # Hz
    compute_util: float    # [0, 1] compute-pipe occupancy
    byte_rate: float       # B/s achieved DRAM traffic
    power_w: float         # measured rail power


@dataclass(frozen=True)
class CalibrationResult:
    """Recovered coefficients plus the fit residual."""

    leak_w_per_v: float
    c_eff: float
    stall_power_fraction: float
    dram_energy_per_byte: float
    rms_error_w: float


def fit_power_model(platform: PlatformSpec,
                    samples: Sequence[CalibrationSample]
                    ) -> CalibrationResult:
    """Least-squares fit of the four power coefficients.

    Needs samples spanning several frequencies and both compute-heavy
    and memory-heavy phases, otherwise the design matrix is rank
    deficient and a ``ValueError`` is raised.
    """
    if len(samples) < 4:
        raise ValueError("need at least 4 samples to fit 4 coefficients")
    rows = []
    targets = []
    for s in samples:
        if not 0.0 <= s.compute_util <= 1.0:
            raise ValueError("compute_util must be in [0, 1]")
        v = platform.voltage(s.freq)
        v2f = v * v * s.freq
        rows.append([
            v,                              # leak_w_per_v
            v2f * s.compute_util,           # c_eff
            v2f * (1.0 - s.compute_util),   # c_eff * stall
            s.byte_rate,                    # dram energy/byte
        ])
        targets.append(s.power_w)
    a = np.asarray(rows)
    b = np.asarray(targets)
    if np.linalg.matrix_rank(a) < 4:
        raise ValueError(
            "samples do not span the model (vary frequency and the "
            "compute/memory mix)")
    coeffs, _res, _rank, _sv = np.linalg.lstsq(a, b, rcond=None)
    leak, ceff, ceff_stall, dram = (float(c) for c in coeffs)
    stall = ceff_stall / ceff if ceff > 1e-15 else 0.0
    pred = a @ coeffs
    rms = float(np.sqrt(np.mean((pred - b) ** 2)))
    return CalibrationResult(
        leak_w_per_v=leak,
        c_eff=ceff,
        stall_power_fraction=stall,
        dram_energy_per_byte=dram,
        rms_error_w=rms,
    )


def synthesize_samples(platform: PlatformSpec, n: int = 60,
                       noise_w: float = 0.0,
                       seed: int = 0) -> List[CalibrationSample]:
    """Generate ground-truth samples from a platform's own model —
    used by tests and by the calibration example to demonstrate
    round-trip recovery."""
    rng = np.random.default_rng(seed)
    samples: List[CalibrationSample] = []
    for _ in range(n):
        freq = float(rng.choice(platform.gpu_freq_levels))
        u_c = float(rng.uniform(0.0, 1.0))
        byte_rate = float(rng.uniform(0.0, platform.mem_bandwidth))
        v = platform.voltage(freq)
        power = (platform.leak_w_per_v * v
                 + platform.c_eff * v * v * freq
                 * (u_c + platform.stall_power_fraction * (1 - u_c))
                 + platform.dram_energy_per_byte * byte_rate)
        power += float(rng.normal(0.0, noise_w))
        samples.append(CalibrationSample(freq=freq, compute_util=u_c,
                                         byte_rate=byte_rate,
                                         power_w=power))
    return samples
