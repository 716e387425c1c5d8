"""Inverted pendulum that must not tip past a failure angle.

State is [theta, omega]; the action is a single torque in [-4, 4]. Explicit
Euler at DT = 0.02 with gravity pulling the pole over and light joint
friction. Reward is 1 at upright, falling linearly to 0 at the failure
angle, where the episode terminates as a hazard. Resets start near upright
with a small random tilt from the env rng.
"""

from __future__ import annotations

import numpy as np

from .base import EnvSpec, StepResult, clip_action, end_tag

DT = 0.02
GRAVITY = 9.8
LENGTH = 1.0
MASS = 1.0
FRICTION = 0.1
THETA_FAIL = 0.8
MAX_STEPS = 500
MAX_TORQUE = 4.0
RESET_TILT = 0.05    # reset draws theta, omega ~ U(-RESET_TILT, RESET_TILT)

SPEC = EnvSpec(
    name="tilt_pole", d_s=2, d_a=1,
    action_low=(-MAX_TORQUE,), action_high=(MAX_TORQUE,),
    max_steps=MAX_STEPS,
    hazard=f"|theta| >= {THETA_FAIL}",
)


def dynamics(state, torque: float) -> list:
    theta, omega = state
    alpha = (GRAVITY / LENGTH) * float(np.sin(theta)) \
        + torque / (MASS * LENGTH * LENGTH) - FRICTION * omega
    return [theta + DT * omega, omega + DT * alpha]


def reward_of(next_state) -> float:
    return float(1.0 - abs(next_state[0]) / THETA_FAIL)


class TiltPole:
    spec = SPEC

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.state = np.zeros(2)
        self.t = 0

    def reset(self) -> np.ndarray:
        self.state = self.rng.uniform(-RESET_TILT, RESET_TILT, size=2)
        self.t = 0
        return self.state.copy()

    def step(self, action) -> StepResult:
        nxt = dynamics(self.state.tolist(), clip_action(action, self.spec)[0])
        self.state = np.array(nxt)
        self.t += 1
        return StepResult(state=self.state.copy(), reward=reward_of(nxt),
                          end=end_tag(abs(nxt[0]) >= THETA_FAIL, self.t, self.spec))
