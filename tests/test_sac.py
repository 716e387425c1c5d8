"""Off-policy learner: gradient checks, targets, and training behavior."""

import math
import os
import pickle
import signal
import time

import numpy as np
import pytest

from fema import checkpoint, forking, numeric
from fema.agents import sac
from fema.agents.common import AgentConfig
from fema.agents.policy import policy_init
from fema.agents.sac import SQUASH_EPS, SacAgent
from fema.envs import make
from fema.envs.base import EnvSpec
from fema.envs.cliff_corridor import SPEC as CLIFF_SPEC
from fema.errors import ConfigError, TrainingError
from fema.memory import END_HAZARD, END_NONE, FemaConfig, Transition

from helpers import (
    assert_no_children,
    count_forks,
    held_transitions,
    mlp_zeros,
    run_episode,
)
from oracles import (
    fd_grads,
    forward_oracle,
    gaussian_logpdf,
    max_rel_error,
    sac_update_one_loop,
)

BANDIT_SPEC = EnvSpec(name="bandit", d_s=1, d_a=1, action_low=(-1.0,),
                      action_high=(1.0,), max_steps=1, hazard="target miss")


def small_cfg(**overrides):
    base = dict(hidden=32, batch_size=32, warmup_steps=50,
                update_interval=2, buffer_capacity=5000)
    base.update(overrides)
    return AgentConfig(**base)


class TestGradients:
    def test_critic_grads_match_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(3):
            q1 = numeric.mlp_init([5, 8, 8, 1], seed=100 + trial)
            q2 = numeric.mlp_init([5, 8, 8, 1], seed=200 + trial)
            s = rng.standard_normal((6, 3))
            a = rng.standard_normal((6, 2))
            y = rng.standard_normal(6)
            _, _, grads = sac.critic_loss_and_grads(q1, q2, s, a, y)
            numeric_grads = fd_grads(
                lambda: sac.critic_loss_and_grads(q1, q2, s, a, y)[0]
                + sac.critic_loss_and_grads(q1, q2, s, a, y)[1],
                [q1.flat, q2.flat],
            )
            # loss is the sum of both MSE terms for the shared step
            assert max_rel_error(grads, numeric_grads) < 1e-4

    def test_actor_grads_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            policy = policy_init(3, 2, scale=np.array([1.5, 0.7]),
                                 squash="tanh", state_dependent_std=True,
                                 seed=300 + trial, hidden=8)
            q1 = numeric.mlp_init([5, 8, 8, 1], seed=400 + trial)
            q2 = numeric.mlp_init([5, 8, 8, 1], seed=500 + trial)
            log_alpha = np.array([0.3 * rng.standard_normal()])
            s = rng.standard_normal((5, 3))
            noise = rng.standard_normal((5, 2))
            _, grads, _ = sac.actor_loss_and_grads(policy, q1, q2, log_alpha,
                                                   s, noise)
            numeric_grads = fd_grads(
                lambda: sac.actor_loss_and_grads(policy, q1, q2, log_alpha,
                                                 s, noise)[0],
                [policy.flat],
            )
            assert max_rel_error([grads], numeric_grads) < 1e-4

    def test_temperature_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logp = rng.standard_normal(16)
        log_alpha = np.array([0.4])
        _, grad = sac.temperature_loss_and_grad(log_alpha, logp, -2.0)
        numeric_grads = fd_grads(
            lambda: sac.temperature_loss_and_grad(log_alpha, logp, -2.0)[0],
            [log_alpha],
        )
        assert max_rel_error([grad], numeric_grads) < 1e-6


class TestTargets:
    def test_done_rows_reduce_to_reward(self):
        policy = policy_init(3, 2, 1.0, "tanh", True, seed=1, hidden=8)
        q1t = numeric.mlp_init([5, 8, 1], seed=2)
        q2t = numeric.mlp_init([5, 8, 1], seed=3)
        batch = {
            "s_next": np.random.default_rng(4).standard_normal((4, 3)),
            "r": np.array([1.0, -2.0, 0.5, 3.0]),
            "done": np.ones(4),
        }
        noise = np.random.default_rng(5).standard_normal((4, 2))
        y = sac.compute_targets(policy, q1t, q2t, np.array([0.0]), batch,
                                0.99, noise)
        np.testing.assert_allclose(y, batch["r"], atol=0.0)

    def test_zero_critics_leave_entropy_term(self):
        policy = policy_init(2, 1, 1.0, "tanh", True, seed=6, hidden=8)
        q1t = mlp_zeros([3, 4, 1])
        q2t = mlp_zeros([3, 4, 1])
        log_alpha = np.array([math.log(0.3)])
        s_next = np.random.default_rng(7).standard_normal((3, 2))
        noise = np.random.default_rng(8).standard_normal((3, 1))
        batch = {"s_next": s_next, "r": np.zeros(3), "done": np.zeros(3)}
        y = sac.compute_targets(policy, q1t, q2t, log_alpha, batch, 0.9, noise)

        def net(mlp, x):
            rows = [(l.w, l.b, l.act) for l in mlp.layers]
            return np.stack([forward_oracle(rows, row) for row in x])

        feats = net(policy.trunk, s_next)
        mu = net(policy.mean_head, feats)
        ls = np.clip(net(policy.logstd_head, feats), -5, 2)
        sigma = np.exp(ls)
        u = mu + sigma * noise
        want = np.zeros(3)
        for i in range(3):
            logp = gaussian_logpdf(u[i, 0], mu[i, 0], sigma[i, 0])
            logp -= math.log(1.0 * (1.0 - math.tanh(u[i, 0]) ** 2) + SQUASH_EPS)
            want[i] = 0.9 * (0.0 - 0.3 * logp)
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)

    def test_polyak_blends_parameters(self):
        src = numeric.mlp_init([2, 3, 1], seed=9)
        dst = numeric.mlp_init([2, 3, 1], seed=10)
        before = dst.flat.copy()
        sac.polyak(src, dst, 0.25)
        np.testing.assert_allclose(dst.flat, 0.75 * before + 0.25 * src.flat, atol=1e-15)
        sac.polyak(src, dst, 1.0)
        np.testing.assert_allclose(dst.flat, src.flat, atol=0.0)


class TestAgentMechanics:
    def fill_buffer(self, agent, n, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            agent.buffer.add(rng.standard_normal(agent.spec.d_s),
                             rng.uniform(-1, 1, agent.spec.d_a),
                             float(rng.standard_normal()),
                             rng.standard_normal(agent.spec.d_s),
                             bool(rng.integers(0, 2)))

    def test_zero_learning_rate_freezes_everything(self):
        agent = SacAgent(BANDIT_SPEC, small_cfg(), seed=0)
        self.fill_buffer(agent, 200)
        for adam in (agent.policy_adam, agent.critic_adam, agent.temp_adam):
            adam.lr = 0.0
        snap = [p.copy() for p in (agent.policy.flat, agent.q1.flat, agent.q2.flat,
                                   agent.log_alpha)]
        for _ in range(5):
            agent.update()
        now = (agent.policy.flat, agent.q1.flat, agent.q2.flat, agent.log_alpha)
        for old, new in zip(snap, now):
            np.testing.assert_allclose(new, old, atol=0.0)

    def test_update_moves_parameters_and_targets_lag(self):
        agent = SacAgent(BANDIT_SPEC, small_cfg(), seed=1)
        self.fill_buffer(agent, 200, seed=1)
        q1_before, q1t_before = agent.q1.flat.copy(), agent.q1t.flat.copy()
        losses = agent.update()
        assert not np.allclose(agent.q1.flat, q1_before)
        # targets moved by tau=0.005, much less than the online net
        online_delta = np.abs(agent.q1.flat - q1_before).max()
        target_delta = np.abs(agent.q1t.flat - q1t_before).max()
        assert 0 < target_delta < online_delta
        assert set(losses) == {"q1_loss", "q2_loss", "actor_loss", "temp_loss",
                               "alpha", "entropy_est"}

    def test_fixed_temperature_mode(self):
        agent = SacAgent(BANDIT_SPEC, small_cfg(learn_temp=False,
                                                 init_temp=0.11), seed=2)
        self.fill_buffer(agent, 100, seed=2)
        agent.update()
        np.testing.assert_allclose(math.exp(agent.log_alpha[0]), 0.11,
                                   atol=1e-15)

    def test_non_finite_batch_raises(self):
        agent = SacAgent(BANDIT_SPEC, small_cfg(), seed=3)
        self.fill_buffer(agent, 100, seed=3)
        agent.buffer.add(np.zeros(1), np.zeros(1), float("nan"), np.zeros(1),
                         True)
        with pytest.raises(TrainingError):
            for _ in range(50):
                agent.update()

    def test_asymmetric_bounds_rejected(self):
        spec = EnvSpec(name="skew", d_s=1, d_a=1, action_low=(-1.0,),
                       action_high=(2.0,), max_steps=10, hazard="none")
        with pytest.raises(ConfigError):
            SacAgent(spec, small_cfg(), seed=0)

    def test_warmup_actions_are_uniform_scaled(self):
        agent = SacAgent(BANDIT_SPEC, small_cfg(warmup_steps=100), seed=4)
        rng = np.random.default_rng(40)
        a = agent.act_train(np.zeros(1), rng, 0)
        want = np.random.default_rng(40).uniform(-1, 1, 1) * 1.0
        np.testing.assert_allclose(a, want, atol=0.0)


class TestTraining:
    def test_bandit_mean_approaches_optimum(self):
        for seed in (0, 1):
            cfg = AgentConfig(hidden=32, batch_size=64,
                              warmup_steps=200, update_interval=1,
                              policy_lr=1e-3, critic_lr=1e-3, temp_lr=1e-3,
                              buffer_capacity=20000)
            agent = SacAgent(BANDIT_SPEC, cfg, seed=seed)
            arng = np.random.default_rng([seed, 1, 0])
            s = np.zeros(1)
            for step in range(1, 2201):
                a = agent.act_train(s, arng, 0)
                r = -float((a[0] - 0.6) ** 2)
                agent.observe(Transition(s=s.copy(), a=np.asarray(a, float),
                                         r=r, s_next=s.copy(),
                                         end=END_HAZARD), 0, step)
            assert abs(float(agent.policy.det_action(s)[0]) - 0.6) < 0.1

    def test_hazard_tails_reach_memory(self):
        fcfg = FemaConfig(suffix_len=3, update_every=2, capacity=8,
                          n_candidates=2, match_radius=0.05)
        agent = SacAgent(make("grid_hazard", np.random.default_rng(0)).spec,
                         small_cfg(warmup_steps=10**9),
                         seed=5, fema_cfg=fcfg)
        env = make("grid_hazard", np.random.default_rng(1))
        arng = np.random.default_rng([5, 1, 0])
        step = 0
        hazard_eps = 0
        for _ in range(12):
            rec = run_episode(agent, env, arng, start_step=step)
            step = rec.end_step
            hazard_eps += rec.end == END_HAZARD
        assert hazard_eps >= 2
        assert agent.memory.version >= 0
        assert len(agent.memory.records) >= 1
        assert len(agent.memory.pending) < fcfg.update_every
        assert agent.memory.next_seq == hazard_eps  # exactly the hazard episodes

    @pytest.mark.parametrize("memory_on", [True, False])
    def test_agent_holds_only_open_tails(self, memory_on):
        fcfg = FemaConfig(suffix_len=3, update_every=2, capacity=8)
        agent = SacAgent(BANDIT_SPEC, small_cfg(warmup_steps=10**9),
                         seed=0, fema_cfg=fcfg if memory_on else None)
        held = held_transitions(agent, steps=200, workers=2)
        assert held == (2 * fcfg.suffix_len if memory_on else 0)

    def test_inert_memory_keeps_action_stream_identical(self):
        # memory never fills to its update threshold, so retrieval stays
        # cold and every step takes the single-draw fallback
        fcfg = FemaConfig(suffix_len=4, update_every=10000, capacity=10000,
                          n_candidates=5, match_radius=0.05)
        actions = {}
        for memory_on in (False, True):
            cfg = small_cfg(warmup_steps=20, batch_size=16)
            agent = SacAgent(make("tilt_pole", np.random.default_rng(0)).spec,
                             cfg, seed=7, fema_cfg=fcfg if memory_on else None)
            env = make("tilt_pole", np.random.default_rng([7, 2, 0]))
            arng = np.random.default_rng([7, 1, 0])
            taken = []
            s = env.reset()
            for step in range(1, 401):
                a = agent.act_train(s, arng, 0)
                taken.append(np.asarray(a, dtype=np.float64).copy())
                res = env.step(a)
                agent.observe(Transition(s=np.asarray(s, float),
                                         a=np.asarray(a, float),
                                         r=float(res.reward),
                                         s_next=np.asarray(res.state, float),
                                         end=res.end), 0, step)
                s = env.reset() if res.end != "none" else res.state
            actions[memory_on] = np.stack(taken)
            if memory_on:
                assert agent.fallback_steps > 0
                assert agent.selected_steps == 0
        np.testing.assert_array_equal(actions[True], actions[False])


needs_pair = pytest.mark.skipif(not hasattr(os, "fork") or not forking.STORES_IN_ORDER,
                                reason="the critic helper needs os.fork on x86")


class SacFault(RuntimeError):
    pass


def cliff_agent(batch, hidden=16, warmup=0, interval=2, rows=300):
    """A SAC agent for the cliff corridor with `rows` random transitions in
    its replay buffer."""
    cfg = small_cfg(hidden=hidden, batch_size=batch, warmup_steps=warmup,
                    update_interval=interval)
    agent = SacAgent(CLIFF_SPEC, cfg, seed=3)
    TestAgentMechanics().fill_buffer(agent, rows, seed=4)
    return agent


def update_state(agent) -> tuple:
    """Every value an update may change: the four critics, the policy, the
    temperature, each Adam state, the buffer, the losses and the batch
    stream."""
    arrays = [agent.q1.flat, agent.q2.flat, agent.q1t.flat, agent.q2t.flat,
              agent.policy.flat, agent.log_alpha, agent.buffer.table]
    for adam in (agent.critic_adam, agent.policy_adam, agent.temp_adam):
        arrays += [adam.m, adam.v]
    return (b"".join(a.tobytes() for a in arrays),
            [adam.t for adam in (agent.critic_adam, agent.policy_adam, agent.temp_adam)],
            agent.last_losses, agent.learn_rng.bit_generator.state)


def drive(agent, steps: int) -> None:
    """`steps` cliff-corridor env steps of training, one worker."""
    env = make("cliff_corridor", np.random.default_rng([3, 2, 0]))
    rng = np.random.default_rng([3, 1, 0])
    s = env.reset()
    for step in range(1, steps + 1):
        a = np.asarray(agent.act_train(s, rng, 0), dtype=np.float64)
        res = env.step(a)
        agent.observe(Transition(s=np.asarray(s, float), a=a, r=float(res.reward),
                                 s_next=np.asarray(res.state, float), end=res.end), 0, step)
        s = env.reset() if res.end != END_NONE else res.state


class TestTwoProcessUpdate:
    """Updates run in one process, and with the second critic's share in
    the helper of `run_beside` at 2 CPUs, give the bits of the one-process
    update in `oracles.sac_update_one_loop`."""

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_pair)])
    @pytest.mark.parametrize("below", [True, False], ids=["below_fork", "fork"])
    def test_updates_match_one_loop(self, monkeypatch, cpus, below):
        batch = sac.FORK_BATCH - below
        ref, agent = cliff_agent(batch), cliff_agent(batch)
        for ag in (ref, agent):   # warm every Adam state
            sac_update_one_loop(ag)
        want = [sac_update_one_loop(ref) for _ in range(6)]
        forks = count_forks(monkeypatch, cpus)
        got = agent.run_beside(lambda: [agent.update() for _ in range(6)], 12)
        assert got == want
        assert update_state(agent) == update_state(ref)
        assert forks == ([["critic helper"]] if cpus == 2 and not below else [])
        assert_no_children()

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_pair)])
    @pytest.mark.parametrize("steps", [sac.FORK_BATCH + 13, sac.FORK_BATCH + 52],
                             ids=["ends_in_warmup", "ends_mid_interval"])
    def test_run_matches_one_loop(self, monkeypatch, cpus, steps):
        """A run of env steps that ends during warmup, or one step into an
        update interval of 3, at batch FORK_BATCH."""
        warmup = sac.FORK_BATCH + 20
        ref = cliff_agent(sac.FORK_BATCH, warmup=warmup, interval=3, rows=0)
        agent = cliff_agent(sac.FORK_BATCH, warmup=warmup, interval=3, rows=0)
        ref.update = lambda: sac_update_one_loop(ref)
        drive(ref, steps)
        forks = count_forks(monkeypatch, cpus)
        agent.run_beside(lambda: drive(agent, steps), steps)
        assert update_state(agent) == update_state(ref)
        assert (ref.critic_adam.t > 0) == (steps > warmup)
        assert forks == ([["critic helper"]] if cpus == 2 and steps > warmup else [])
        assert_no_children()

    @needs_pair
    def test_helper_error_reraised(self, monkeypatch):
        def fault(self, y, xa):   # only the helper runs the second critic's steps
            raise SacFault("helper refused its update")

        monkeypatch.setattr(sac._Second, "values", fault)
        forks = count_forks(monkeypatch, 2)
        agent = cliff_agent(sac.FORK_BATCH)
        own, before = agent.q2.flat, agent.q2.flat.copy()
        policy = agent.policy.flat
        policy_before = policy.copy()
        start = time.monotonic()
        with pytest.raises(SacFault, match="helper refused its update"):
            agent.run_beside(lambda: [agent.update() for _ in range(3)], 6)
        assert time.monotonic() - start < 30
        assert forks == [["critic helper"]]
        assert agent.q2.flat is own and np.array_equal(own, before)
        # the policy is bound back onto its own vector; the failed update
        # stopped before the policy's Adam step
        assert agent.policy.flat is policy and np.array_equal(policy, policy_before)
        assert agent.policy.trunk.flat.base is policy
        assert agent._away is None
        assert_no_children()

    @needs_pair
    def test_saved_agent_matches_one_process(self, monkeypatch, tmp_path):
        """After a run with the helper, the checkpoint bytes and a pickle
        round trip of the agent are those of the one-process run."""
        saved = []
        for cpus in (1, 2):
            with monkeypatch.context() as patch:
                forks = count_forks(patch, cpus)
                agent = cliff_agent(sac.FORK_BATCH)
                agent.run_beside(lambda: [agent.update() for _ in range(6)], 12)
            assert forks == ([["critic helper"]] if cpus == 2 else [])
            path = tmp_path / f"checkpoint{cpus}.bin"
            checkpoint.save_checkpoint(path, agent, "cliff_corridor", 12)
            copy = pickle.loads(pickle.dumps(agent))
            saved.append((path.read_bytes(), pickle.dumps(agent), update_state(copy)))
        assert saved[0] == saved[1]
        assert_no_children()

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_pair)])
    def test_non_finite_loss_raises_training_error(self, monkeypatch, cpus):
        """The run stops at the update whose loss is NaN, after that whole
        update, as the one-process update does; the helper is reaped."""
        ref, agent = cliff_agent(sac.FORK_BATCH), cliff_agent(sac.FORK_BATCH)
        for ag in (ref, agent):
            ag.buffer.table[123] = np.nan
        done = 0
        with pytest.raises(TrainingError):
            for done in range(1, 50):
                sac_update_one_loop(ref)
        assert done > 1   # some updates passed before the NaN row was drawn
        forks = count_forks(monkeypatch, cpus)
        start = time.monotonic()
        with pytest.raises(TrainingError, match="non-finite"):
            agent.run_beside(lambda: [agent.update() for _ in range(50)], 100)
        assert time.monotonic() - start < 30
        assert update_state(agent) == update_state(ref)
        assert forks == ([["critic helper"]] if cpus == 2 else [])
        assert_no_children()

    @needs_pair
    def test_parked_helper_blocks(self, monkeypatch):
        """The helper waits parked until the first update and after each
        park until the next update: it takes no CPU time and counts out of
        `forking.processes` meanwhile, and the run keeps the one-process
        bits."""
        import resource

        ref, agent = cliff_agent(sac.FORK_BATCH), cliff_agent(sac.FORK_BATCH)
        for _ in range(2):
            sac_update_one_loop(ref)
        count_forks(monkeypatch, 2)
        seen = []

        def loop():
            seen.append(forking.processes(2))
            time.sleep(0.5)
            for _ in range(2):
                agent.update()
                seen.append(forking.processes(2))
                agent._away.park()
                agent._away.park()   # parking a parked helper changes nothing
                seen.append(forking.processes(2))
                time.sleep(0.5)

        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        agent.run_beside(loop, 8)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert seen == [2, 1, 2, 1, 2]
        assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 0.75
        assert update_state(agent) == update_state(ref)
        assert_no_children()

    @needs_pair
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    @pytest.mark.parametrize("parked", [False, True], ids=["polling", "parked"])
    def test_helper_exits_when_its_parent_is_gone(self, parked):
        """A run killed while its helper waits, polling or parked, leaves
        no helper running."""
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:   # the training process: report the helper, then wait
            try:
                os.close(rfd)
                real = forking._fork

                def fork(work):
                    child, fh = real(work)
                    os.write(wfd, b"%d\n" % child)
                    return child, fh

                forking._fork = fork
                forking.usable_cpus = lambda: 2
                agent = cliff_agent(sac.FORK_BATCH)

                def loop():
                    agent.update()   # wakes the helper, which then polls
                    if parked:
                        agent._away.park()
                    time.sleep(60)

                agent.run_beside(loop, 6)
            finally:
                os._exit(0)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as fh:
            helper = int(fh.readline())
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and _running(helper):
            time.sleep(0.01)
        assert not _running(helper)
        assert_no_children()

    @needs_pair
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_one_real_cpu_does_not_stall(self, monkeypatch):
        """Told of 2 CPUs while this process may run on one, a run with the
        helper finishes within a few times the one-process run, since a
        waiting side yields the CPU, and leaves the one-process bits."""
        cpus = os.sched_getaffinity(0)
        took, states = {1: [], 2: []}, set()
        os.sched_setaffinity(0, {min(cpus)})
        try:
            for n in (1, 2, 1, 2):
                with monkeypatch.context() as patch:
                    forks = count_forks(patch, n)
                    agent = cliff_agent(sac.FORK_BATCH)
                    start = time.perf_counter()
                    agent.run_beside(lambda: [agent.update() for _ in range(40)], 80)
                    took[n].append(time.perf_counter() - start)
                assert forks == ([["critic helper"]] if n == 2 else [])
                states.add(update_state(agent)[0])
        finally:
            os.sched_setaffinity(0, cpus)
        assert min(took[2]) < 4 * min(took[1])
        assert len(states) == 1
        assert_no_children()


class TestHeap:
    def test_update_keeps_its_heap(self):
        """With freed heap kept mapped, a one-process update at batch 128,
        width 64 reuses its temporaries' pages instead of faulting fresh
        ones in (about 170-210 minor faults an update where glibc trims
        the heap top after each update)."""
        import resource

        if not forking.keep_freed_heap():
            pytest.skip("needs glibc's mallopt")
        agent = SacAgent(CLIFF_SPEC, AgentConfig(warmup_steps=0), seed=3)
        assert (agent.cfg.batch_size, agent.cfg.hidden) == (128, 64)
        TestAgentMechanics().fill_buffer(agent, 300, seed=4)
        for _ in range(10):   # the first updates size the heap
            agent.update()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(200):
            agent.update()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 200 < 10


def _running(pid: int) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
