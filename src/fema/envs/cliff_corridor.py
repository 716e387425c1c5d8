"""Point mass running along a narrow corridor with deadly edges.

State is [x, y, vx, vy]. The action is a 2-d acceleration command in
[-1, 1]^2, scaled by ACCEL. Dynamics are explicit Euler with velocity drag;
a per-step disturbance kicks the lateral velocity so that a careless policy
drifts off the edge. The episode ends in a hazard when |y| reaches the edge
or the mass backs out of the corridor mouth; otherwise it runs to the step
limit. Reward is forward velocity minus a small control cost, so fast and
centered is optimal.
"""

from __future__ import annotations

import numpy as np

from .base import EnvSpec, StepResult, clip_action, end_tag

DT = 0.05
ACCEL = 8.0          # acceleration at |action| = 1
DRAG = 1.0           # velocity damping per unit time
CTRL_COST = 0.01     # quadratic action penalty
EDGE_Y = 1.0         # |y| >= EDGE_Y falls off
BACK_X = -0.5        # x < BACK_X falls off the corridor mouth
MAX_STEPS = 400
NOISE_STD = 0.2      # lateral velocity kick per step

SPEC = EnvSpec(
    name="cliff_corridor", d_s=4, d_a=2,
    action_low=(-1.0, -1.0), action_high=(1.0, 1.0),
    max_steps=MAX_STEPS,
    hazard=f"|y| >= {EDGE_Y} or x < {BACK_X}",
)


def dynamics(state, action, noise: float) -> list:
    """One explicit-Euler step; noise is the lateral velocity disturbance."""
    x, y, vx, vy = state
    ax, ay = ACCEL * action[0], ACCEL * action[1]
    return [x + DT * vx, y + DT * vy,
            vx + DT * (ax - DRAG * vx), vy + DT * (ay - DRAG * vy) + noise]


def reward_of(next_state, action: np.ndarray) -> float:
    """Forward velocity minus the control cost; the cost stays numpy's dot,
    whose last bit a0*a0 + a1*a1 does not always reproduce."""
    return next_state[2] - CTRL_COST * float(action.dot(action))


def is_hazard(state) -> bool:
    return bool(abs(state[1]) >= EDGE_Y or state[0] < BACK_X)


class CliffCorridor:
    spec = SPEC

    def __init__(self, rng: np.random.Generator, noise_std: float = NOISE_STD):
        self.rng = rng
        self.noise_std = noise_std
        self.state = np.zeros(4)
        self.t = 0

    def reset(self) -> np.ndarray:
        self.state = np.zeros(4)
        self.t = 0
        return self.state.copy()

    def step(self, action) -> StepResult:
        action = clip_action(action, self.spec)
        nxt = dynamics(self.state.tolist(), action, self.noise_std * self.rng.standard_normal())
        self.state = np.array(nxt)
        self.t += 1
        return StepResult(state=self.state.copy(), reward=reward_of(nxt, np.array(action)),
                          end=end_tag(is_hazard(nxt), self.t, self.spec))
