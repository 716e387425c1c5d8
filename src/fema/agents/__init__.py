"""Baseline learners and the policy/value building blocks they share."""

from .buffers import ReplayBuffer
from .common import AgentConfig
from .loop import eval_episode
from .policy import GaussianPolicy, policy_init
from .ppo import PpoAgent
from .sac import SacAgent

__all__ = [
    "AgentConfig",
    "GaussianPolicy",
    "PpoAgent",
    "ReplayBuffer",
    "SacAgent",
    "eval_episode",
    "policy_init",
]
