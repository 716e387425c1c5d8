"""Shared environment plumbing: specs, step results, the end-of-episode rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from ..memory import END_HAZARD, END_NONE, END_TIME_LIMIT


@dataclass(frozen=True)
class EnvSpec:
    name: str
    d_s: int
    d_a: int
    action_low: tuple
    action_high: tuple
    max_steps: int
    hazard: str  # human-readable predicate, echoed into run configs

    def __post_init__(self):
        if self.d_s < 1 or self.d_a < 1:
            raise ConfigError("environment widths must be >= 1")
        if len(self.action_low) != self.d_a or len(self.action_high) != self.d_a:
            raise ConfigError("action bounds must match action width")
        if not (np.isfinite(self.action_low).all() and np.isfinite(self.action_high).all()):
            raise ConfigError("action bounds must be finite")

    def to_dict(self) -> dict:
        return {
            "name": self.name, "d_s": self.d_s, "d_a": self.d_a,
            "action_low": list(self.action_low), "action_high": list(self.action_high),
            "max_steps": self.max_steps, "hazard": self.hazard,
        }


@dataclass
class StepResult:
    state: np.ndarray
    reward: float
    end: str = END_NONE


def end_tag(hazard: bool, t: int, spec: EnvSpec) -> str:
    """The end tag of step t: a hazard first, then the spec's step limit."""
    if hazard:
        return END_HAZARD
    return END_TIME_LIMIT if t >= spec.max_steps else END_NONE


def clip_action(action, spec: EnvSpec) -> list:
    """The action clipped to the spec's bounds, as Python floats (NaN stays
    NaN, as under np.clip)."""
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (spec.d_a,):
        raise ShapeError(f"action shape {action.shape} does not match ({spec.d_a},)")
    return [lo if a < lo else hi if a > hi else a
            for a, lo, hi in zip(action.tolist(), spec.action_low, spec.action_high)]
