"""Deterministic single-episode driver for evaluation."""

from __future__ import annotations

from ..envs.runner import EpisodeRecord
from ..memory import END_NONE


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
