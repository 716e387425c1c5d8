"""Rollout lanes: phase learners' workers acted in forked processes.

The lane path, and PPO's phase gap beside it, must give the same bytes as
stepping one worker at a time, surface a lane's failure in the caller, and
leave no child process behind. `helpers.count_forks` sets the CPUs that
`forking` sees, so that these tests take the forked paths on any machine
with os.fork, or none of them.
"""

import os
import threading

import numpy as np
import pytest

from fema.agents.common import AgentConfig
from fema.agents.ppo import PpoAgent
from fema.agents.sac import SacAgent
from fema.envs import make, runner
from fema.errors import FemaError
from fema.harness.config import parse_text
from fema.harness.train import run_seed
from fema.memory import FemaConfig

from helpers import assert_no_children, count_forks, pin_digest

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="lanes need os.fork")

LANE_RUN = """\
[run]
agent = ppo
env = {env}
seeds = 0
total_steps = {total}
out_dir = unused
eval_every = {eval_every}
eval_episodes = 1

[agent]
hidden = 16
rollout_steps = 60
n_workers = {workers}
ppo_epochs = 2
minibatch = 16

[fema]
enabled = true
suffix_len = 3
update_every = 3
capacity = 16
train_epochs = 2
train_batch = 8
n_candidates = 3
max_matches = 2
"""

# `helpers.pin_digest` of metrics.jsonl, checkpoint.bin and memory.bin of
# seed 7, written by the one-worker-at-a-time runner before lanes existed
# (x86-64, numpy 2.4.6, scipy-openblas 0.3.31); the memory column hashes the
# snapshot's content, so it holds across snapshot formats. A budget of 200
# ends mid-phase; an eval_every of 50 splits phases and the budget of 170
# ends mid-phase too.
PINNED = {
    ("grid_hazard", 2, 200, 0):
        ("18626af3f1399961", "7a250fe78459bc67", "fefd8f28349de12c"),
    ("grid_hazard", 2, 170, 50):
        ("035a2f43148f603f", "5816b8dc4ff5bbeb", "c3909ff86d9414cf"),
    ("grid_hazard", 3, 200, 0):
        ("694fcf814a35b448", "a9fb6846596fbaef", "956dc0d7bc70ff25"),
    ("grid_hazard", 3, 170, 50):
        ("d4e0ee18d5442309", "dc6f47ab263bb28f", "2cce68012aaf773d"),
    ("cliff_corridor", 2, 200, 0):
        ("7f67d2d122877d35", "a7abdec850f0536d", "61a4b53cbb3b776b"),
    ("cliff_corridor", 2, 170, 50):
        ("d488866e5d9fb485", "9eaaf790e39a9197", "61a4b53cbb3b776b"),
    ("cliff_corridor", 3, 200, 0):
        ("517d4f28165abff8", "a77289c79a8d3004", "818af214e5481c58"),
    ("cliff_corridor", 3, 170, 50):
        ("7f270e8b35413acc", "29a8c686297ee05b", "13960acb71543600"),
}


class LaneFault(RuntimeError):
    pass


def ppo_runner(agent_cls, workers=2):
    envs = [make("grid_hazard", np.random.default_rng([0, 2, w]))
            for w in range(workers)]
    cfg = AgentConfig(hidden=8, rollout_steps=40, n_workers=workers)
    agent = agent_cls(envs[0].spec, cfg, seed=0, fema_cfg=FemaConfig())
    rngs = [np.random.default_rng([0, 1, w]) for w in range(workers)]
    return runner.VecRunner(envs, agent, rngs)


def lane_names(n_workers: int, n_lanes: int) -> list:
    """The work names of the forked lanes 1..n_lanes-1 of one block."""
    return [f"rollout lane of workers {list(range(k, n_workers, n_lanes))}"
            for k in range(1, n_lanes)]


@needs_fork
class TestLaneCount:
    @pytest.mark.parametrize("workers", [1, 2, 5, 1000])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_bounded_by_workers_and_cpus(self, monkeypatch, workers, cpus):
        forks = count_forks(monkeypatch, cpus)
        ppo = ppo_runner(PpoAgent, workers)
        ppo.run(16)   # every lane of a block holds one of the first 8 workers
        n_lanes = min(workers, cpus)
        assert forks == ([lane_names(workers, n_lanes)] if n_lanes > 1 else [])
        assert ppo.agent.collected_steps() == 16
        sac = SacAgent(ppo.envs[0].spec, AgentConfig(hidden=4), seed=0)
        runner.VecRunner(ppo.envs, sac, ppo.rngs).run(16)
        assert forks == ([lane_names(workers, n_lanes)] if n_lanes > 1 else [])
        assert_no_children()


@needs_fork
class TestLaneIdentity:
    @pytest.mark.parametrize("cpus", [1, 8], ids=["sequential", "lanes"])
    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_outputs_match_round_robin(self, tmp_path, monkeypatch, case, cpus):
        """At 8 CPUs both lanes and PPO's phase gap fork; at 1 nothing does,
        and both give the pinned bytes."""
        env, workers, total, eval_every = case
        forks = count_forks(monkeypatch, cpus)
        rc = parse_text(LANE_RUN.format(env=env, workers=workers, total=total,
                                        eval_every=eval_every))
        run_seed(rc, 7, tmp_path)
        got = tuple(pin_digest(name, (tmp_path / name).read_bytes())
                    for name in ("metrics.jsonl", "checkpoint.bin", "memory.bin"))
        assert got == PINNED[case]
        names = {name for names in forks for name in names}
        if cpus == 1:
            assert forks == []
        else:
            assert lane_names(workers, workers)[0] in names
            assert "PPO learner update" in names
        assert_no_children()

    def test_lanes_are_taken(self, monkeypatch):
        forks = count_forks(monkeypatch, 8)
        vec = ppo_runner(PpoAgent, workers=3)
        vec.run(10)
        assert forks == [lane_names(3, 3)]
        assert vec.step_count == 10
        assert vec.agent.collected_steps() == 10
        assert vec.agent.pending == {}
        assert_no_children()

    def test_other_threads_keep_it_sequential(self, monkeypatch):
        forks = count_forks(monkeypatch, 8)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            vec = ppo_runner(PpoAgent, workers=3)
            vec.run(10)
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert forks == []
        assert vec.agent.collected_steps() == 10


@needs_fork
class TestLaneFailures:
    def test_child_error_reraised_with_type_and_message(self, monkeypatch):
        class Faulty(PpoAgent):
            def act_train(self, s, rng, worker=0):
                if worker == 1:
                    raise LaneFault("worker 1 refused to act")
                return super().act_train(s, rng, worker)

        count_forks(monkeypatch, 2)
        with pytest.raises(LaneFault, match="worker 1 refused to act"):
            ppo_runner(Faulty).run(20)
        assert_no_children()

    def test_unpicklable_error_becomes_fema_error(self, monkeypatch):
        class LocalFault(Exception):
            pass

        class Faulty(PpoAgent):
            def act_train(self, s, rng, worker=0):
                if worker == 1:
                    raise LocalFault("not importable")
                return super().act_train(s, rng, worker)

        count_forks(monkeypatch, 2)
        with pytest.raises(FemaError, match="LocalFault: not importable"):
            ppo_runner(Faulty).run(20)
        assert_no_children()

    def test_lane_zero_error_reaps_children(self, monkeypatch):
        class Faulty(PpoAgent):
            def act_train(self, s, rng, worker=0):
                if worker == 0:
                    raise LaneFault("lane 0 failed")
                return super().act_train(s, rng, worker)

        count_forks(monkeypatch, 3)
        with pytest.raises(LaneFault, match="lane 0 failed"):
            ppo_runner(Faulty, workers=3).run(30)
        assert_no_children()

    def test_child_without_result_raises(self, monkeypatch):
        parent = os.getpid()

        class Vanishing(PpoAgent):
            def act_train(self, s, rng, worker=0):
                if worker == 1 and os.getpid() != parent:
                    os._exit(3)
                return super().act_train(s, rng, worker)

        count_forks(monkeypatch, 2)
        with pytest.raises(FemaError, match="without a result"):
            ppo_runner(Vanishing).run(20)
        assert_no_children()
