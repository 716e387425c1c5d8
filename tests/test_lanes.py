"""Rollout lanes: phase learners' workers acted in forked processes.

The lane path must give the same bytes as stepping one worker at a time,
surface a lane's failure in the caller, and leave no child process behind.
`runner.usable_cpus` is patched so that these tests take the lane path on
any machine with os.fork.
"""

import hashlib
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

# sha256 prefixes of metrics.jsonl, checkpoint.bin and memory.bin of seed 7,
# written by the one-worker-at-a-time runner before lanes existed (x86-64,
# numpy 2.4.6, scipy-openblas 0.3.31). A budget of 200 ends mid-phase; an
# eval_every of 50 splits phases and the budget of 170 ends mid-phase too.
PINNED = {
    ("grid_hazard", 2, 200, 0):
        ("18626af3f1399961", "7a250fe78459bc67", "11798a8670dc4496"),
    ("grid_hazard", 2, 170, 50):
        ("035a2f43148f603f", "5816b8dc4ff5bbeb", "9c9bb5d7e224c5b2"),
    ("grid_hazard", 3, 200, 0):
        ("694fcf814a35b448", "a9fb6846596fbaef", "89c4edbf66d1423b"),
    ("grid_hazard", 3, 170, 50):
        ("d4e0ee18d5442309", "dc6f47ab263bb28f", "398a21539b286d9f"),
    ("cliff_corridor", 2, 200, 0):
        ("7f67d2d122877d35", "a7abdec850f0536d", "dda02db0e4e16fea"),
    ("cliff_corridor", 2, 170, 50):
        ("d488866e5d9fb485", "9eaaf790e39a9197", "dda02db0e4e16fea"),
    ("cliff_corridor", 3, 200, 0):
        ("517d4f28165abff8", "a77289c79a8d3004", "44213fd97f5f5986"),
    ("cliff_corridor", 3, 170, 50):
        ("7f270e8b35413acc", "29a8c686297ee05b", "feac136b066720eb"),
}


class LaneFault(RuntimeError):
    pass


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def ppo_runner(agent_cls, workers=2):
    envs = [make("grid_hazard", np.random.default_rng([0, 2, w]))
            for w in range(workers)]
    cfg = AgentConfig(hidden=8, rollout_steps=40, n_workers=workers)
    agent = agent_cls(envs[0].spec, cfg, seed=0, fema_cfg=FemaConfig())
    rngs = [np.random.default_rng([0, 1, w]) for w in range(workers)]
    return runner.VecRunner(envs, agent, rngs)


class TestLaneCount:
    @pytest.mark.parametrize("workers", [1, 2, 5, 1000])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_bounded_by_workers_and_cpus(self, workers, cpus):
        spec = make("grid_hazard", np.random.default_rng(0)).spec
        ppo = PpoAgent(spec, AgentConfig(hidden=4, n_workers=workers), seed=0)
        sac = SacAgent(spec, AgentConfig(hidden=4), seed=0)
        assert runner.lane_count(ppo, workers, cpus) == min(workers, cpus)
        assert runner.lane_count(sac, workers, cpus) == 1
        assert runner.lane_count(object(), workers, cpus) == 1


@needs_fork
class TestLaneIdentity:
    @pytest.mark.parametrize("cpus", [1, 8], ids=["sequential", "lanes"])
    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_outputs_match_round_robin(self, tmp_path, monkeypatch, case, cpus):
        env, workers, total, eval_every = case
        monkeypatch.setattr(runner, "usable_cpus", lambda: cpus)
        rc = parse_text(LANE_RUN.format(env=env, workers=workers, total=total,
                                        eval_every=eval_every))
        run_seed(rc, 7, tmp_path)
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
                    for name in ("metrics.jsonl", "checkpoint.bin", "memory.bin"))
        assert got == PINNED[case]
        assert_no_children()

    def count_forks(self, monkeypatch):
        forks = []
        fork = runner._fork

        def counted(work):
            forks.append(work)
            return fork(work)

        monkeypatch.setattr(runner, "usable_cpus", lambda: 8)
        monkeypatch.setattr(runner, "_fork", counted)
        return forks

    def test_lanes_are_taken(self, monkeypatch):
        forks = self.count_forks(monkeypatch)
        vec = ppo_runner(PpoAgent, workers=3)
        vec.run(10)
        assert len(forks) == 2
        assert vec.step_count == 10
        assert vec.agent.collected_steps() == 10
        assert vec.agent.pending == {}
        assert_no_children()

    def test_other_threads_keep_it_sequential(self, monkeypatch):
        forks = self.count_forks(monkeypatch)
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

        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
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

        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        with pytest.raises(FemaError, match="LocalFault: not importable"):
            ppo_runner(Faulty).run(20)
        assert_no_children()

    def test_lane_zero_error_reaps_children(self, monkeypatch):
        class Faulty(PpoAgent):
            def act_train(self, s, rng, worker=0):
                if worker == 0:
                    raise LaneFault("lane 0 failed")
                return super().act_train(s, rng, worker)

        monkeypatch.setattr(runner, "usable_cpus", lambda: 3)
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

        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        with pytest.raises(FemaError, match="without a result"):
            ppo_runner(Vanishing).run(20)
        assert_no_children()
