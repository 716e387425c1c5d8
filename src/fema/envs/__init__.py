"""Hazard-terminating toy environments and the worker-pool runner."""

from .cliff_corridor import CliffCorridor
from .grid_hazard import GridHazard
from .runner import VecRunner
from .tilt_pole import TiltPole
from ..errors import ConfigError

REGISTRY = {
    "cliff_corridor": CliffCorridor,
    "tilt_pole": TiltPole,
    "grid_hazard": GridHazard,
}

__all__ = ["REGISTRY", "VecRunner", "make"]


def make(name: str, rng):
    if name not in REGISTRY:
        raise ConfigError(f"unknown environment {name!r}; choices: {sorted(REGISTRY)}")
    return REGISTRY[name](rng)
