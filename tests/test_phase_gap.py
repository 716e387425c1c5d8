"""A phase's collection, up to PPO's phase gap, run straight on VecRunner.

PPO's gap (update_phase, then the memory publish) runs in the calling
process; only the rollout lanes that collect the phase before it fork. A
lane that dies during that collection must be named in the caller's error
and leave no child process behind. `helpers.count_forks` sets the CPUs that
`forking` sees, so that the test takes the forked path on any machine with
os.fork.
"""

import os

import numpy as np
import pytest

from fema.agents.common import AgentConfig
from fema.agents.ppo import PpoAgent
from fema.envs import make, runner
from fema.errors import FemaError
from fema.memory import FemaConfig

from helpers import assert_no_children, count_forks

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="rollout lanes need os.fork")


def collected_agent(agent_cls=PpoAgent, seed=0):
    """A two-worker PPO agent after one 80-step phase on grid_hazard."""
    envs = [make("grid_hazard", np.random.default_rng([seed, 2, w]))
            for w in range(2)]
    cfg = AgentConfig(hidden=8, rollout_steps=80, n_workers=2, ppo_epochs=2,
                      minibatch=16)
    fema_cfg = FemaConfig(suffix_len=3, update_every=2, capacity=16,
                          train_epochs=2, train_batch=8)
    agent = agent_cls(envs[0].spec, cfg, seed=seed, fema_cfg=fema_cfg)
    rngs = [np.random.default_rng([seed, 1, w]) for w in range(2)]
    runner.VecRunner(envs, agent, rngs).run(80)
    return agent


class TestForking:
    @needs_fork
    def test_dead_lane_is_named(self, monkeypatch):
        parent = os.getpid()

        class Vanishing(PpoAgent):
            def act_train(self, s, rng, worker=0):
                if worker == 1 and os.getpid() != parent:
                    os._exit(3)
                return super().act_train(s, rng, worker)

        count_forks(monkeypatch, 2)
        with pytest.raises(FemaError, match=r"rollout lane of workers \[1\]"):
            collected_agent(Vanishing)
        assert_no_children()
