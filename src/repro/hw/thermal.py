"""Lumped thermal model with temperature-dependent leakage and
throttling.

An RC thermal network drives die temperature from dissipated power:

    dT/dt = (P - (T - T_ambient) / R_th) / C_th

Leakage grows with temperature (``leak_temp_coeff`` per kelvin above the
reference), and a thermal governor throttles the GPU to
``throttle_level`` when the die exceeds ``t_throttle`` — the mechanism
zTT (reference [6] of the paper) is built around.  The paper's MAXN
experiments run below the throttle point, so the simulator leaves the
thermal model off by default; enabling it shows a further PowerLens
benefit: lower steady-state temperature keeps leakage down and the
throttle disengaged under sustained load.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ThermalConfig:
    """Thermal parameters of the lumped die model.

    Defaults approximate a passively cooled Jetson-class module:
    ~40 K/(100 W·s) heat capacity and a few K/W to ambient.
    """

    t_ambient: float = 25.0
    r_th: float = 1.2          # K / W to ambient
    c_th: float = 25.0         # J / K lumped die+spreader capacity
    t_ref: float = 25.0        # leakage reference temperature
    leak_temp_coeff: float = 0.012   # +1.2 % leakage per kelvin
    t_throttle: float = 85.0
    t_release: float = 75.0
    throttle_level: int = 4

    def __post_init__(self) -> None:
        if self.r_th <= 0 or self.c_th <= 0:
            raise ValueError("thermal resistance/capacity must be positive")
        if self.t_release > self.t_throttle:
            raise ValueError("release temperature above throttle point")


@dataclass
class ThermalState:
    """Mutable die state advanced by the simulator."""

    config: ThermalConfig
    temperature: float = 25.0
    throttled: bool = False
    peak_temperature: float = 25.0
    throttle_time: float = 0.0

    @classmethod
    def initial(cls, config: ThermalConfig) -> "ThermalState":
        return cls(config=config, temperature=config.t_ambient,
                   peak_temperature=config.t_ambient)

    # ------------------------------------------------------------------
    def leakage_multiplier(self) -> float:
        """Factor applied to static power at the current temperature."""
        cfg = self.config
        return 1.0 + cfg.leak_temp_coeff * max(
            0.0, self.temperature - cfg.t_ref)

    def leak(self, gpu_w: float, static_w: float, cpu_w: float,
             board_w: float, dt: float) -> float:
        """GPU power plus leakage on ``static_w``; advances ``dt``."""
        gpu_w += static_w * (self.leakage_multiplier() - 1.0)
        self.advance(gpu_w + cpu_w + board_w, dt)
        return gpu_w

    def advance(self, power_w: float, dt: float) -> None:
        """Integrate the RC network forward by ``dt`` seconds under
        ``power_w`` dissipation (exact exponential step, so large dt
        remain stable)."""
        if dt <= 0:
            return
        cfg = self.config
        # Steady-state temperature for this power level.
        t_inf = cfg.t_ambient + power_w * cfg.r_th
        tau = cfg.r_th * cfg.c_th
        import math
        decay = math.exp(-dt / tau)
        self.temperature = t_inf + (self.temperature - t_inf) * decay
        self.peak_temperature = max(self.peak_temperature,
                                    self.temperature)
        if self.throttled:
            self.throttle_time += dt

    def update_throttle(self) -> bool:
        """Hysteretic throttle state; returns True while engaged."""
        cfg = self.config
        if self.throttled:
            if self.temperature < cfg.t_release:
                self.throttled = False
        else:
            if self.temperature >= cfg.t_throttle:
                self.throttled = True
        return self.throttled
