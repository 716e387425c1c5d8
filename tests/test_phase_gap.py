"""PPO's phase gap: the learner update forked beside the memory publish.

The overlapped gap must give the same bytes as the sequential one, stay
sequential where no publish is due or forking cannot pay, surface a failed
update in the caller, and leave no child process behind.
`forking.usable_cpus` is patched so that these tests take the forked path
on any machine with os.fork.
"""

import os
import threading

import numpy as np
import pytest

from fema import forking
from fema.agents.common import AgentConfig
from fema.agents.ppo import PpoAgent
from fema.envs import make, runner
from fema.errors import FemaError, TrainingError
from fema.harness.config import parse_text
from fema.harness.train import run_seed
from fema.memory import FemaConfig

from helpers import pin_digest
from test_lanes import LANE_RUN, PINNED, assert_no_children

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the overlapped gap needs os.fork")

OUTPUTS = ("metrics.jsonl", "checkpoint.bin", "memory.bin")


class GapFault(RuntimeError):
    pass


def count_gap_forks(monkeypatch, cpus):
    """Let the gap see `cpus` CPUs; returns the list its forks land in."""
    forks = []
    fork = forking.fork

    def counted(work):
        forks.append(work)
        return fork(work)

    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(forking, "fork", counted)
    return forks


def collected_agent(agent_cls=PpoAgent, fema=True, update_every=2, seed=0):
    """A two-worker PPO agent after one 80-step phase on grid_hazard."""
    envs = [make("grid_hazard", np.random.default_rng([seed, 2, w]))
            for w in range(2)]
    cfg = AgentConfig(hidden=8, rollout_steps=80, n_workers=2, ppo_epochs=2,
                      minibatch=16)
    fema_cfg = (FemaConfig(suffix_len=3, update_every=update_every,
                           capacity=16, train_epochs=2, train_batch=8)
                if fema else None)
    agent = agent_cls(envs[0].spec, cfg, seed=seed, fema_cfg=fema_cfg)
    rngs = [np.random.default_rng([seed, 1, w]) for w in range(2)]
    runner.VecRunner(envs, agent, rngs).run(80)
    return agent


def learner_state(agent):
    adams = (agent.policy_adam, agent.value_adam)
    arrays = [*agent.policy.params(), agent.vnet.flat,
              *(x for adam in adams for x in adam.m + adam.v)]
    return ([a.tobytes() for a in arrays], [adam.t for adam in adams],
            agent.learn_rng.bit_generator.state, agent.collected_steps())


@needs_fork
class TestGapIdentity:
    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_outputs_match_sequential_gap(self, tmp_path, monkeypatch, case):
        env, workers, total, eval_every = case
        rc = parse_text(LANE_RUN.format(env=env, workers=workers, total=total,
                                        eval_every=eval_every))
        files = {}
        for cpus in (1, 8):
            forks = count_gap_forks(monkeypatch, cpus)
            run_dir = tmp_path / f"cpus{cpus}"
            run_seed(rc, 7, run_dir)
            assert (len(forks) > 0) == (cpus > 1)
            files[cpus] = [(run_dir / name).read_bytes() for name in OUTPUTS]
            assert_no_children()
        assert files[8] == files[1]
        got = tuple(pin_digest(name, data) for name, data in zip(OUTPUTS, files[8]))
        assert got == PINNED[case]

    def test_adopts_what_the_update_changed(self, monkeypatch):
        done = {}
        for cpus in (1, 8):
            forks = count_gap_forks(monkeypatch, cpus)
            agent = collected_agent()
            assert len(agent.memory.pending) >= agent.fema_cfg.update_every
            losses = agent.end_phase()
            assert len(forks) == (cpus > 1)
            assert agent.last_losses == losses
            done[cpus] = (losses, learner_state(agent),
                          agent.memory.to_bytes(), agent.stack.flat.tobytes())
        assert done[8] == done[1]
        assert done[8][1][3] == 0   # the collected rows were consumed
        assert_no_children()


@needs_fork
class TestGapChoice:
    def test_no_fork_with_the_memory_off(self, monkeypatch):
        forks = count_gap_forks(monkeypatch, 8)
        agent = collected_agent(fema=False)
        agent.end_phase()
        assert forks == []
        assert agent.collected_steps() == 0

    def test_no_fork_when_no_publish_is_due(self, monkeypatch):
        forks = count_gap_forks(monkeypatch, 8)
        agent = collected_agent(update_every=16)
        assert len(agent.memory.pending) < 16
        agent.end_phase()
        assert forks == []
        assert agent.memory.version == -1

    def test_no_fork_on_one_cpu(self, monkeypatch):
        forks = count_gap_forks(monkeypatch, 1)
        agent = collected_agent()
        agent.end_phase()
        assert forks == []
        assert agent.memory.version == 1

    def test_other_threads_keep_it_sequential(self, monkeypatch):
        forks = count_gap_forks(monkeypatch, 8)
        agent = collected_agent()
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            agent.end_phase()
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert forks == []
        assert agent.memory.version == 1


@needs_fork
class TestGapFailures:
    def test_non_finite_update_reraised(self, monkeypatch):
        forks = count_gap_forks(monkeypatch, 8)
        agent = collected_agent()
        agent.vnet.flat[:] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            agent.end_phase()
        assert len(forks) == 1
        assert agent.memory.version == 1   # the publish beside it finished
        assert_no_children()

    def test_update_without_result_raises(self, monkeypatch):
        parent = os.getpid()

        class Vanishing(PpoAgent):
            def update_phase(self):
                if os.getpid() != parent:
                    os._exit(3)
                return super().update_phase()

        count_gap_forks(monkeypatch, 8)
        agent = collected_agent(Vanishing)
        with pytest.raises(FemaError,
                           match="PPO learner update .* without a result"):
            agent.end_phase()
        assert_no_children()

    def test_publish_error_reaps_the_update(self, monkeypatch):
        class Faulty(PpoAgent):
            def between_phases(self):
                raise GapFault("publish failed")

        count_gap_forks(monkeypatch, 8)
        agent = collected_agent(Faulty)
        with pytest.raises(GapFault, match="publish failed"):
            agent.end_phase()
        assert_no_children()


class TestForking:
    def test_can_fork_needs_two_cpus(self):
        assert not forking.can_fork(1)
        assert forking.can_fork(2) == (hasattr(os, "fork")
                                       and threading.active_count() == 1)

    @needs_fork
    def test_dead_lane_is_named(self, monkeypatch):
        parent = os.getpid()

        class Vanishing(PpoAgent):
            def act_train(self, s, rng, worker=0):
                if worker == 1 and os.getpid() != parent:
                    os._exit(3)
                return super().act_train(s, rng, worker)

        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        with pytest.raises(FemaError, match=r"rollout lane of workers \[1\]"):
            collected_agent(Vanishing)
        assert_no_children()
