"""Baseline learners and the policy/value building blocks they share.

`AGENTS` maps each learner's `algo` name ("sac", "ppo") to its class. Every
class keeps the learner contract that `common.HookedAgent` documents, so
adding a learner means adding one class here.
"""

from .buffers import ReplayBuffer
from .common import AgentConfig
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
    "policy_init",
]
