"""Pinned-frequency governor, the substrate of exhaustive sweeps."""

from __future__ import annotations

from typing import Optional

from repro.governors.base import Governor, register_governor
from repro.hw.platform import PlatformSpec


class StaticGovernor(Governor):
    """Holds a single GPU level for the whole run.

    ``level=None`` pins the maximum level (the 'performance' governor);
    negative levels index from the top like Python sequences.
    """

    name = "static"

    def __init__(self, level: Optional[int] = None,
                 cpu_policy: str = "ondemand") -> None:
        super().__init__()
        self._requested = level
        self.cpu_policy = cpu_policy

    def reset(self, platform: PlatformSpec) -> None:
        super().reset(platform)
        if self._requested is None:
            self._level = platform.max_level
        elif self._requested < 0:
            self._level = platform.clamp_level(
                platform.n_levels + self._requested)
        else:
            self._level = platform.clamp_level(self._requested)
        self.name = f"static[L{self._level}]"

    def initial_gpu_level(self) -> int:
        return self._level


register_governor("performance", StaticGovernor)
register_governor("static", StaticGovernor)
