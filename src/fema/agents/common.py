"""Agent configuration and the failure-memory hook shared by both learners."""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .. import embedding, selection
from ..errors import ConfigError
from ..memory import END_HAZARD, END_NONE, FailureMemory, FemaConfig, capture_failure


@dataclass
class AgentConfig:
    discount: float = 0.99
    hidden: int = 64

    # off-policy learner
    policy_lr: float = 3e-4
    critic_lr: float = 3e-4
    temp_lr: float = 3e-4
    batch_size: int = 128
    buffer_capacity: int = 50_000
    warmup_steps: int = 500           # uniform-random action steps at the start
    update_interval: int = 2          # env steps per gradient round
    tau: float = 0.005                # target-net smoothing
    init_temp: float = 0.2
    learn_temp: bool = True

    # on-policy learner
    rollout_steps: int = 2048         # env steps per collection phase
    n_workers: int = 4
    clip_ratio: float = 0.2
    gae_lambda: float = 0.95
    ppo_epochs: int = 10
    minibatch: int = 64
    ent_coef: float = 0.0
    kl_stop: float = 0.05
    init_logstd: float = -0.5

    # failure-memory hook
    importance_correction: bool = False

    def validate(self) -> "AgentConfig":
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if not (0.0 < self.discount <= 1.0):
            raise ConfigError("discount must be in (0, 1]")
        for name in ("policy_lr", "critic_lr", "temp_lr", "init_temp"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 < self.clip_ratio < 1.0):
            raise ConfigError("clip_ratio must be in (0, 1)")
        if not (0.0 < self.tau <= 1.0):
            raise ConfigError("tau must be in (0, 1]")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ConfigError("gae_lambda must be in [0, 1]")
        for name in ("hidden", "batch_size", "buffer_capacity", "update_interval",
                     "rollout_steps", "n_workers", "ppo_epochs", "minibatch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.buffer_capacity < self.batch_size:
            raise ConfigError(f"buffer_capacity ({self.buffer_capacity}) must be "
                              f">= batch_size ({self.batch_size})")
        if self.warmup_steps < 0 or self.ent_coef < 0 or self.kl_stop <= 0:
            raise ConfigError("warmup_steps/ent_coef must be >= 0, kl_stop > 0")
        return self


class HookedAgent:
    """Learner base that carries the failure-memory hook.

    The memory is on exactly when a `FemaConfig` is passed. The hook is the
    same for every learner:

    - Training-time actions come from the risk-aware selector
      (`selection.select`) when the memory is on, and from one plain policy
      draw when it is off. Each selector decision is counted as a fallback
      (nothing retrieved, the plain draw passes through) or as selected.
    - When the memory is on, each worker keeps only the last `suffix_len`
      transitions of its open episode. When an episode ends in a hazard,
      `capture_failure` turns that tail into an event and the memory stages
      it. Staged events become searchable only when the learner publishes:
      SAC right after a stage, PPO in each gap that another phase follows.
    - The memory and the learner draw from separate random streams
      ([seed, 4] and [seed, 3]), so an inert hook (cold memory, zero
      radius, single candidate) leaves the action sequence bit-identical
      to the plain agent.

    The harness runs any subclass through its learner contract: the
    constructor `(env_spec, AgentConfig, seed, fema_cfg=None)`, `algo` (its
    key in `fema.agents.AGENTS`), `n_workers` env workers, `phase_steps` env
    steps per collection phase (`None`: no phases), `end_phase()`, which
    returns the losses to log, with phases also `update_phase()`, the run's
    last gap without the publish, and `saved_widths`, which names each
    attribute its checkpoint stores besides the policy: a list of layer
    widths marks an `Mlp`, an int the length of a float64 array. The
    checkpoint loader checks both. Networks come from `sub_seeds`; the
    embedding stack takes `sub_seeds[stack_slot]`. The harness runs its
    step loop through `run_beside(loop, steps)`, which returns loop()'s
    result; a learner may run helper processes beside the loop there (SAC
    hands its second critic to one), as long as the agent holds its own
    arrays again when it returns.
    """

    algo: str
    stack_slot: int
    n_workers = 1
    phase_steps = None

    @staticmethod
    def saved_widths(d_s: int, d_a: int, hidden: int) -> dict:
        """Name -> layer widths (a list) of each saved net, or length (an
        int) of each saved float64 array, in checkpoint blob order, for env
        widths d_s, d_a and policy width `hidden`."""
        return {}

    def __init__(self, env_spec, cfg: AgentConfig, seed: int,
                 fema_cfg: FemaConfig | None = None):
        cfg.validate()
        self.cfg = cfg
        self.spec = env_spec
        lo = np.asarray(env_spec.action_low)
        hi = np.asarray(env_spec.action_high)
        if not np.allclose(lo, -hi):
            raise ConfigError("symmetric action bounds required")
        self.scale = hi.astype(np.float64)

        self.sub_seeds = np.random.default_rng([seed, 0]).integers(
            0, 2**31 - 1, size=8)
        self.learn_rng = np.random.default_rng([seed, 3])
        self.fema_cfg = fema_cfg
        self.stack = None
        self.memory = None
        self._tails = None  # worker -> deque of its open episode's last transitions
        if fema_cfg is not None:
            self.stack = embedding.stack_init(
                env_spec.d_s, env_spec.d_a,
                seed=int(self.sub_seeds[self.stack_slot]), hidden=cfg.hidden)
            self.memory = FailureMemory(fema_cfg,
                                        rng=np.random.default_rng([seed, 4]))
            self._tails = defaultdict(partial(deque, maxlen=fema_cfg.suffix_len))

        self.steps_seen = 0
        self.last_losses = {}
        self.fallback_steps = 0
        self.selected_steps = 0

    def _act(self, s, rng, policy, found=None):
        """Training-time action drawn from `policy` (the policy, or its
        `Gaussian` at s): (action, overridden by the selector). `found` is
        the selector's `lookup` at s when the caller holds it.

        Changes no agent state; `_count` books the decision.
        """
        if self.memory is None:
            return policy.sample(s, rng), False
        a, trace = selection.select(s, policy, self.memory, self.stack,
                                    self.fema_cfg, rng, found)
        return a, not trace.fallback

    def _count(self, overridden: bool) -> None:
        """Book one `_act` decision as selected or as a fallback."""
        if self.memory is not None:
            self.selected_steps += overridden
            self.fallback_steps += not overridden

    def _track(self, tr, worker: int, step: int) -> bool:
        """Record one transition; True when it staged a failure event."""
        self.steps_seen = step
        if self.memory is None:
            return False
        tail = self._tails[worker]
        tail.append(tr)
        if tr.end == END_NONE:
            return False
        del self._tails[worker]
        if tr.end != END_HAZARD:
            return False
        self.memory.stage(capture_failure(tail, self.fema_cfg))
        return True

    def end_phase(self) -> dict:
        return self.last_losses

    def run_beside(self, loop, steps: int):
        """loop(), which runs the first `steps` env steps of training; this
        learner runs no helper beside it."""
        return loop()

    def fallback_rate(self) -> float:
        """Share of selector decisions that fell back to the plain draw."""
        chosen = self.fallback_steps + self.selected_steps
        return self.fallback_steps / chosen if chosen else 0.0
