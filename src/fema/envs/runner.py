"""Round-robin driver for one or more environment workers.

The runner owns per-worker episode state so trailing partial episodes
survive across run() calls; a phase-based learner can keep collecting where
the previous phase stopped. Agents plug in through two duck-typed hooks:
act_train(state, rng, worker) and observe(transition, worker, step).
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

    def run(self, steps: int) -> list:
        """Advance the worker pool by exactly `steps` env steps."""
        records = []
        for _ in range(steps):
            w = self.step_count % len(self.envs)
            s = self.states[w]
            a = self.agent.act_train(s, self.rngs[w], w)
            res = self.envs[w].step(a)
            tr = Transition(s=np.asarray(s, dtype=np.float64).copy(),
                            a=np.asarray(a, dtype=np.float64).copy(),
                            r=res.reward, s_next=res.state.copy(), end=res.end)
            self.step_count += 1
            self.agent.observe(tr, w, self.step_count)
            self.ep_return[w] += res.reward
            self.ep_length[w] += 1
            if res.end != END_NONE:
                records.append(EpisodeRecord(
                    return_=self.ep_return[w], length=self.ep_length[w],
                    end=res.end, end_step=self.step_count, worker=w,
                ))
                self.states[w] = self.envs[w].reset()
                self.ep_return[w] = 0.0
                self.ep_length[w] = 0
            else:
                self.states[w] = res.state
        return records

