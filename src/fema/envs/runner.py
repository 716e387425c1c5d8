"""The training step of a pool of environment workers, and the evaluation
episode.

`VecRunner.step()` is the one training step: it acts, steps and observes
the next worker, round-robin, so global step i belongs to worker i % W.
The runner owns per-worker episode state, so an episode runs on across
calls and a phase-based learner keeps collecting where the previous phase
stopped. Agents plug in through two duck-typed hooks:
act_train(state, rng, worker) and observe(transition, worker, step).
`eval_episode` plays one episode under a policy's deterministic action,
with no learning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..memory import END_NONE, Transition


@dataclass
class EpisodeRecord:
    return_: float
    length: int
    end: str
    end_step: int   # global step index at which the episode finished
    worker: int


class VecRunner:
    def __init__(self, envs: list, agent, action_rngs: list):
        if not envs:
            raise ConfigError("need at least one environment worker")
        spec = envs[0].spec
        for env in envs[1:]:
            if env.spec != spec:
                raise ConfigError("vec workers must share one environment spec")
        if len(action_rngs) != len(envs):
            raise ConfigError("need exactly one action rng per worker")
        self.envs = envs
        self.agent = agent
        self.rngs = action_rngs
        self.states = [env.reset() for env in envs]
        self.ep_return = [0.0] * len(envs)
        self.ep_length = [0] * len(envs)
        self.step_count = 0

    def step(self) -> EpisodeRecord | None:
        """One env step of the next worker; the record of the episode that
        this step ended, or None."""
        w = self.step_count % len(self.envs)
        s = self.states[w]
        a = self.agent.act_train(s, self.rngs[w], w)
        res = self.envs[w].step(a)
        self.states[w] = (self.envs[w].reset() if res.end != END_NONE
                          else res.state)
        tr = Transition(s=np.asarray(s, dtype=np.float64).copy(),
                        a=np.asarray(a, dtype=np.float64).copy(),
                        r=res.reward, s_next=res.state.copy(), end=res.end)
        self.step_count += 1
        self.agent.observe(tr, w, self.step_count)
        self.ep_return[w] += tr.r
        self.ep_length[w] += 1
        if tr.end == END_NONE:
            return None
        rec = EpisodeRecord(return_=self.ep_return[w], length=self.ep_length[w],
                            end=tr.end, end_step=self.step_count, worker=w)
        self.ep_return[w] = 0.0
        self.ep_length[w] = 0
        return rec

    def run(self, steps: int) -> list:
        """The records of the episodes that the next `steps` steps end."""
        return [rec for rec in (self.step() for _ in range(steps)) if rec]


def eval_episode(policy, env) -> EpisodeRecord:
    """One episode under the policy's deterministic action, no learning."""
    s = env.reset()
    total = 0.0
    length = 0
    while True:
        a = policy.det_action(s)
        res = env.step(a)
        length += 1
        total += float(res.reward)
        if res.end != END_NONE:
            return EpisodeRecord(return_=total, length=length,
                                 end=res.end, end_step=length, worker=0)
        s = res.state
