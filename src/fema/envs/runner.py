"""Round-robin driver for one or more environment workers.

The runner owns per-worker episode state so trailing partial episodes
survive across run() calls; a phase-based learner can keep collecting where
the previous phase stopped. Agents plug in through two duck-typed hooks:
act_train(state, rng, worker) and observe(transition, worker, step).
Global step i belongs to worker i % W.

Most agents are stepped one worker at a time, act_train then observe. A
phase learner (`phase_steps` set) keeps the promise stated in
`agents.common.HookedAgent`, so within one run() call each worker's steps
depend only on its own env, action rng and state. When no two workers share
an env or rng, run() then acts the block in P = `forking.processes(W)`
lanes through one `forking.beside` call: lane 0 in this process, lanes
1..P-1 in children forked at block start, which see the frozen agent
copy-on-write. The parent adopts each worker's env, action rng and next
state, then replays observe() and the episode bookkeeping in global
round-robin order, so the agent and the log see exactly what one worker at
a time would give them. With P = 1 the block is stepped one worker at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .. import forking
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
        # Only a phase learner's workers act in lanes, and lanes copy each
        # worker's env and rng into a child process, which is only sound
        # when no two workers share one.
        self._lanes = (getattr(agent, "phase_steps", None) is not None
                       and len({id(e) for e in envs}) == len(envs)
                       and len({id(r) for r in action_rngs}) == len(envs))

    def run(self, steps: int) -> list:
        """Advance the worker pool by exactly `steps` env steps."""
        n_lanes = forking.processes(len(self.envs)) if self._lanes else 1
        take = self._act_in_lanes(steps, n_lanes) if n_lanes > 1 else self._advance
        records = []
        for _ in range(steps):
            w = self.step_count % len(self.envs)
            tr = take(w)
            self.step_count += 1
            self.agent.observe(tr, w, self.step_count)
            self.ep_return[w] += tr.r
            self.ep_length[w] += 1
            if tr.end != END_NONE:
                records.append(EpisodeRecord(
                    return_=self.ep_return[w], length=self.ep_length[w],
                    end=tr.end, end_step=self.step_count, worker=w,
                ))
                self.ep_return[w] = 0.0
                self.ep_length[w] = 0
        return records

    def _advance(self, w: int) -> Transition:
        """Act and step worker w once; its next state is ready afterwards."""
        s = self.states[w]
        a = self.agent.act_train(s, self.rngs[w], w)
        res = self.envs[w].step(a)
        self.states[w] = (self.envs[w].reset() if res.end != END_NONE
                          else res.state)
        return Transition(s=np.asarray(s, dtype=np.float64).copy(),
                          a=np.asarray(a, dtype=np.float64).copy(),
                          r=res.reward, s_next=res.state.copy(), end=res.end)

    # -- lanes ------------------------------------------------------------

    def _act_in_lanes(self, steps: int, n_lanes: int):
        """Act the next `steps` steps in lanes; returns the function that
        hands worker w its next transition and restores its per-step record
        in `agent.pending[w]`, for run() to replay in round-robin order."""
        n = len(self.envs)
        counts = [len(range((w - self.step_count) % n, steps, n))
                  for w in range(n)]
        lanes = [range(k, n, n_lanes) for k in range(n_lanes)]
        away = {f"rollout lane of workers {list(workers)}":
                partial(self._act_lane, workers, counts)
                for workers in lanes[1:] if any(counts[w] for w in workers)}
        here, there = forking.beside(partial(self._act_lane, lanes[0], counts),
                                     away)
        queues = {}
        for lane in (here, *there):
            for w, (packed, env, rng, state) in lane.items():
                vars(self.envs[w]).update(vars(env))
                self.rngs[w].bit_generator.state = rng.bit_generator.state
                self.states[w] = state
                queues[w] = _unpack(packed)

        def take(w: int) -> Transition:
            tr, self.agent.pending[w] = next(queues[w])
            return tr
        return take

    def _act_lane(self, workers, counts) -> dict:
        """worker -> (its `counts[w]` steps packed as arrays for `_unpack`,
        its env, action rng and next state). Arrays pickle in one piece
        each, which keeps a child's result cheap to send."""
        lane = {}
        for w in workers:
            trs, recs = [], []
            for _ in range(counts[w]):
                trs.append(self._advance(w))
                recs.append(self.agent.pending.pop(w))
            packed = ([np.array([getattr(tr, f) for tr in trs])
                       for f in ("s", "a", "s_next")],
                      [tr.r for tr in trs], [tr.end for tr in trs], recs)
            lane[w] = (packed, self.envs[w], self.rngs[w], self.states[w])
        return lane


def _unpack(packed):
    """Yield the (transition, per-step record) pairs `_act_lane` packed."""
    (s, a, s_next), r, end, recs = packed
    for i, rec in enumerate(recs):
        yield Transition(s=s[i], a=a[i], r=r[i], s_next=s_next[i],
                         end=end[i]), rec
