"""Round-robin driver for one or more environment workers.

The runner owns per-worker episode state so trailing partial episodes
survive across run() calls; a phase-based learner can keep collecting where
the previous phase stopped. Agents plug in through two duck-typed hooks:
act_train(state, rng, worker) and observe(transition, worker, step).
Global step i belongs to worker i % W.

Most agents are stepped one worker at a time, act_train then observe. A
phase learner (`phase_steps` set) keeps the promise stated in
`agents.common.HookedAgent`, so within one run() call each worker's steps
depend only on its own env, action rng and state. run() then acts the block
in P = min(W, usable CPUs) lanes: lane 0 in this process, lanes 1..P-1 in
children forked at block start, which see the frozen agent copy-on-write.
The parent then replays observe() and the episode bookkeeping in global
round-robin order, so the agent and the log see exactly what one worker at
a time would give them. The runner stays sequential where
`forking.can_fork` refuses: os.fork or os.sched_getaffinity missing, one
usable CPU, or other Python threads running.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import ConfigError
from ..forking import can_fork, collect, reap, usable_cpus
from ..forking import fork as _fork  # tests count lane forks through this name
from ..memory import END_NONE, Transition


@dataclass
class EpisodeRecord:
    return_: float
    length: int
    end: str
    end_step: int   # global step index at which the episode finished
    worker: int


def lane_count(agent, n_workers: int, cpus: int) -> int:
    """Lanes a block of `n_workers` workers is acted in: 1 (sequential)
    unless the agent is a phase learner, else at most one per worker and
    one per CPU."""
    if getattr(agent, "phase_steps", None) is None:
        return 1
    return min(n_workers, cpus)


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
        # Lanes copy each worker's env and rng into a child process, which
        # is only sound when no two workers share one.
        self._disjoint = (len({id(e) for e in envs}) == len(envs)
                          and len({id(r) for r in action_rngs}) == len(envs))

    def run(self, steps: int) -> list:
        """Advance the worker pool by exactly `steps` env steps."""
        take = self._advance
        n_lanes = lane_count(self.agent, len(self.envs), usable_cpus())
        if n_lanes > 1 and self._disjoint and can_fork(n_lanes):
            take = self._act_in_lanes(steps, n_lanes)
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
        running = {}   # pid -> read end of the child's result pipe
        forked = []    # (pid, workers of its lane)
        try:
            for workers in lanes[1:]:
                if any(counts[w] for w in workers):
                    pid, fh = _fork(partial(self._child_lane, workers, counts))
                    running[pid] = fh
                    forked.append((pid, workers))
            taken = self._act_lane(lanes[0], counts)
            for pid, workers in forked:
                lane_taken, ends = collect(
                    pid, running.pop(pid),
                    f"rollout lane of workers {list(workers)}")
                taken.update(lane_taken)
                for w, (env, rng, state) in ends.items():
                    vars(self.envs[w]).update(vars(env))
                    self.rngs[w].bit_generator.state = rng.bit_generator.state
                    self.states[w] = state
        finally:
            reap(running)
        queues = {w: _unpack(packed) for w, packed in taken.items()}

        def take(w: int) -> Transition:
            tr, self.agent.pending[w] = next(queues[w])
            return tr
        return take

    def _act_lane(self, workers, counts) -> dict:
        """worker -> its `counts[w]` steps, packed as arrays for `_unpack`:
        (states, actions, next states), rewards, end tags and the per-step
        records. Arrays pickle in one piece each, which keeps a child's
        result cheap to send."""
        taken = {}
        for w in workers:
            trs, recs = [], []
            for _ in range(counts[w]):
                trs.append(self._advance(w))
                recs.append(self.agent.pending.pop(w))
            taken[w] = ([np.array([getattr(tr, f) for tr in trs])
                         for f in ("s", "a", "s_next")],
                        [tr.r for tr in trs], [tr.end for tr in trs], recs)
        return taken

    def _child_lane(self, workers, counts):
        """A forked lane's result: its steps, then each worker's env, action
        rng and next state, which the parent adopts."""
        taken = self._act_lane(workers, counts)
        return taken, {w: (self.envs[w], self.rngs[w], self.states[w])
                       for w in workers}


def _unpack(packed):
    """Yield the (transition, per-step record) pairs `_act_lane` packed."""
    (s, a, s_next), r, end, recs = packed
    for i, rec in enumerate(recs):
        yield Transition(s=s[i], a=a[i], r=r[i], s_next=s_next[i],
                         end=end[i]), rec
