"""Baseline learners and the policy/value building blocks they share.

`AGENTS` maps each learner's `algo` name ("sac", "ppo") to its class; every
class takes `(env_spec, AgentConfig, seed, fema_cfg=None)` and carries the
failure memory exactly when `fema_cfg` is given.
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
