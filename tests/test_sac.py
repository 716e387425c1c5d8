"""Off-policy learner: gradient checks, targets, and training behavior."""

import math

import numpy as np
import pytest

from fema import numeric
from fema.agents import sac
from fema.agents.common import AgentConfig
from fema.agents.policy import policy_init
from fema.agents.sac import SQUASH_EPS, SacAgent
from fema.envs import make
from fema.envs.base import EnvSpec
from fema.errors import ConfigError, TrainingError
from fema.memory import END_HAZARD, FemaConfig, Transition

from helpers import held_transitions, mlp_zeros, run_episode
from oracles import fd_grads, forward_oracle, gaussian_logpdf, max_rel_error

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
                q1.params() + q2.params(),
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
                policy.params(),
            )
            assert max_rel_error(grads, numeric_grads) < 1e-4

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
        before = [p.copy() for p in dst.params()]
        sac.polyak(src, dst, 0.25)
        for p_src, p_old, p_new in zip(src.params(), before, dst.params()):
            np.testing.assert_allclose(p_new, 0.75 * p_old + 0.25 * p_src,
                                       atol=1e-15)
        sac.polyak(src, dst, 1.0)
        for p_src, p_new in zip(src.params(), dst.params()):
            np.testing.assert_allclose(p_new, p_src, atol=0.0)


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
        snap = [p.copy() for p in agent.policy.params()
                + agent.q1.params() + agent.q2.params()] + [agent.log_alpha.copy()]
        for _ in range(5):
            agent.update()
        now = (agent.policy.params() + agent.q1.params() + agent.q2.params()
               + [agent.log_alpha])
        for old, new in zip(snap, now):
            np.testing.assert_allclose(new, old, atol=0.0)

    def test_update_moves_parameters_and_targets_lag(self):
        agent = SacAgent(BANDIT_SPEC, small_cfg(), seed=1)
        self.fill_buffer(agent, 200, seed=1)
        q1_before = [p.copy() for p in agent.q1.params()]
        q1t_before = [p.copy() for p in agent.q1t.params()]
        losses = agent.update()
        assert any(
            not np.allclose(p, q) for p, q in zip(agent.q1.params(), q1_before)
        )
        # targets moved by tau=0.005, much less than the online net
        online_delta = max(np.abs(p - q).max()
                           for p, q in zip(agent.q1.params(), q1_before))
        target_delta = max(np.abs(p - q).max()
                           for p, q in zip(agent.q1t.params(), q1t_before))
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
