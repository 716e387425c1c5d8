"""Baseline learners and the policy/value building blocks they share.

`AGENTS` maps each learner's `algo` name ("sac", "ppo") to its class. Every
class keeps the learner contract of `common.HookedAgent`: it is built as
`(env_spec, AgentConfig, seed, fema_cfg=None)` and carries the failure
memory exactly when `fema_cfg` is given; `algo` names it; `n_workers` and
`phase_steps` tell the harness how many env workers to step and how many
steps a collection phase lasts (`None`: no phases); `end_phase()` closes a
phase and returns the losses to log; `saved_widths` names what its
checkpoint stores and gives their shapes. Adding a learner means adding
one class here.
"""

from .buffers import ReplayBuffer
from .common import AgentConfig
from .loop import eval_episode
from .policy import GaussianPolicy, policy_init
from .ppo import PpoAgent
from .sac import SacAgent

AGENTS = {cls.algo: cls for cls in (SacAgent, PpoAgent)}

__all__ = [
    "AGENTS",
    "AgentConfig",
    "GaussianPolicy",
    "PpoAgent",
    "ReplayBuffer",
    "SacAgent",
    "eval_episode",
    "policy_init",
]
