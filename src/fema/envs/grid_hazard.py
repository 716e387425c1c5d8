"""Deterministic 5x5 grid with hazard cells, small enough to brute-force.

The state is the cell coordinate as a float pair. A continuous 2-d action
snaps to one of the four neighbor moves: the axis with the larger magnitude
wins (ties go to x), the sign gives the direction, and an all-zero command
stays put. Walking into a wall also stays put. Entering a hazard cell ends
the episode with a -1 penalty; entering the goal pays +1 and ends it as a
normal (non-failure) stop; every other step costs STEP_COST.
"""

from __future__ import annotations

import numpy as np

from ..memory import END_HAZARD, END_NONE, END_TIME_LIMIT
from .base import EnvSpec, StepResult, clip_action

SIZE = 5
START = (0, 0)
GOAL = (4, 4)
HAZARDS = frozenset({(1, 1), (2, 3), (3, 1)})
STEP_COST = 0.05
HAZARD_PENALTY = 1.0
GOAL_BONUS = 1.0
MAX_STEPS = 25

SPEC = EnvSpec(
    name="grid_hazard", d_s=2, d_a=2,
    action_low=(-1.0, -1.0), action_high=(1.0, 1.0),
    max_steps=MAX_STEPS,
    hazard=f"cell in {sorted(HAZARDS)}",
)


def snap(action) -> tuple:
    """Continuous command to a 4-neighbor move (or (0, 0) for no move)."""
    ax, ay = float(action[0]), float(action[1])
    if abs(ax) >= abs(ay):
        step = int(np.sign(ax))
        return (step, 0)
    return (0, int(np.sign(ay)))


def move(cell: tuple, action) -> tuple:
    dx, dy = snap(action)
    nx = min(max(cell[0] + dx, 0), SIZE - 1)
    ny = min(max(cell[1] + dy, 0), SIZE - 1)
    return (nx, ny)


def cell_outcome(cell: tuple):
    """(reward, end tag) for having just entered this cell."""
    if cell in HAZARDS:
        return -HAZARD_PENALTY, END_HAZARD
    if cell == GOAL:
        return GOAL_BONUS, END_TIME_LIMIT  # terminal but not a failure
    return -STEP_COST, END_NONE


class GridHazard:
    spec = SPEC

    def __init__(self, rng: np.random.Generator = None):
        self.rng = rng  # unused: the grid is fully deterministic
        self.cell = START
        self.t = 0

    def reset(self) -> np.ndarray:
        self.cell = START
        self.t = 0
        return np.array(self.cell, dtype=np.float64)

    def step(self, action) -> StepResult:
        action = clip_action(action, self.spec)
        self.cell = move(self.cell, action)
        self.t += 1
        reward, end = cell_outcome(self.cell)
        if end == END_NONE and self.t >= self.spec.max_steps:
            end = END_TIME_LIMIT
        state = np.array(self.cell, dtype=np.float64)
        return StepResult(state=state, reward=float(reward), end=end)
