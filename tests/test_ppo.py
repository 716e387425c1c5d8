"""On-policy learner: advantage estimation, clipped surrogate, phase cycle."""

import copy

import numpy as np
import pytest

from fema import numeric
from fema.agents import ppo
from fema.agents.common import AgentConfig
from fema.agents.policy import GaussianPolicy, policy_init
from fema.agents.ppo import PpoAgent, _Row
from fema.envs import make, runner
from fema.envs.base import EnvSpec
from fema.errors import TrainingError, UsageError
from fema.memory import END_HAZARD, END_NONE, END_TIME_LIMIT, FemaConfig, Transition

from helpers import held_transitions, run_episode
from oracles import fd_grads, gaussian_logpdf, max_rel_error

BANDIT_SPEC = EnvSpec(name="bandit", d_s=1, d_a=1, action_low=(-1.0,),
                      action_high=(1.0,), max_steps=1, hazard="target miss")


def gae_oracle(rows, value_fn, gamma, lam):
    """Definition-level advantages: per-episode weighted delta sums."""
    n = len(rows)
    v_next = []
    for i, row in enumerate(rows):
        if row.end == END_HAZARD:
            v_next.append(0.0)
        elif row.end != END_NONE:
            v_next.append(float(value_fn(row.s_next)))
        elif i == n - 1:
            v_next.append(float(value_fn(row.s_next)))
        else:
            v_next.append(rows[i + 1].value)
    deltas = [rows[i].r + gamma * v_next[i] - rows[i].value for i in range(n)]
    adv = np.zeros(n)
    start = 0
    for i in range(n):
        if rows[i].end != END_NONE or i == n - 1:
            for t in range(start, i + 1):
                acc = 0.0
                for k in range(t, i + 1):
                    acc += (gamma * lam) ** (k - t) * deltas[k]
                adv[t] = acc
            start = i + 1
    return adv


def random_rows(rng, n, ends):
    rows = []
    for i in range(n):
        rows.append(_Row(
            s=rng.standard_normal(2),
            a=rng.standard_normal(1),
            r=float(rng.standard_normal()),
            s_next=rng.standard_normal(2),
            end=ends[i],
            logp=float(rng.standard_normal()),
            value=float(rng.standard_normal()),
            overridden=False,
        ))
    return rows


def quadratic_value(s):
    return 0.3 * float(s[0]) ** 2 - 0.2 * float(s[1])


class TestAdvantages:
    def layouts(self):
        return [
            [END_NONE] * 10,
            [END_NONE, END_NONE, END_HAZARD, END_NONE, END_NONE, END_NONE,
             END_TIME_LIMIT, END_NONE, END_NONE, END_NONE],
            [END_HAZARD] * 4,
            [END_NONE, END_TIME_LIMIT, END_NONE, END_HAZARD, END_NONE],
        ]

    def test_matches_definition_sum(self):
        rng = np.random.default_rng(0)
        for ends in self.layouts():
            for gamma, lam in ((0.99, 0.95), (0.9, 0.5), (1.0, 1.0)):
                rows = random_rows(rng, len(ends), ends)
                adv, ret = ppo.gae_segment(rows, quadratic_value, gamma, lam)
                want = gae_oracle(rows, quadratic_value, gamma, lam)
                np.testing.assert_allclose(adv, want, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(
                    ret, want + np.array([r.value for r in rows]),
                    rtol=1e-12, atol=1e-12)

    def test_lambda_zero_is_one_step_temporal_difference(self):
        rng = np.random.default_rng(1)
        rows = random_rows(rng, 6, [END_NONE] * 5 + [END_HAZARD])
        adv, _ = ppo.gae_segment(rows, quadratic_value, 0.95, 0.0)
        for i, row in enumerate(rows):
            if row.end == END_HAZARD:
                v_next = 0.0
            elif i == len(rows) - 1:
                v_next = quadratic_value(row.s_next)
            else:
                v_next = rows[i + 1].value
            np.testing.assert_allclose(adv[i], row.r + 0.95 * v_next - row.value,
                                       atol=1e-12)

    def test_hazard_tail_ignores_successor_state(self):
        rng = np.random.default_rng(2)
        rows = random_rows(rng, 3, [END_NONE, END_NONE, END_HAZARD])
        adv_a, _ = ppo.gae_segment(rows, quadratic_value, 0.99, 0.95)
        rows[2].s_next = rows[2].s_next + 100.0
        adv_b, _ = ppo.gae_segment(rows, quadratic_value, 0.99, 0.95)
        np.testing.assert_allclose(adv_a, adv_b, atol=0.0)

    def test_time_limit_tail_bootstraps_successor_state(self):
        rng = np.random.default_rng(3)
        rows = random_rows(rng, 3, [END_NONE, END_NONE, END_TIME_LIMIT])
        adv_a, _ = ppo.gae_segment(rows, quadratic_value, 0.99, 0.95)
        rows[2].s_next = rows[2].s_next + 100.0
        adv_b, _ = ppo.gae_segment(rows, quadratic_value, 0.99, 0.95)
        assert not np.allclose(adv_a, adv_b)

    def test_normalization_statistics(self):
        adv = np.random.default_rng(4).standard_normal(256) * 7.0 + 3.0
        out = ppo.normalize_advantages(adv)
        np.testing.assert_allclose(out.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(), 1.0, atol=1e-6)


class TestSurrogate:
    def setup_pieces(self, seed, batch=8, perturb=0.3, mask_kind="ones"):
        rng = np.random.default_rng(seed)
        policy = policy_init(3, 2, 1.0, "clip", False, seed=seed, hidden=8)
        s = rng.standard_normal((batch, 3))
        a = rng.standard_normal((batch, 2))
        lp, *_ = ppo.policy_log_probs(policy, s, a)
        logp_old = lp + perturb * rng.standard_normal(batch)
        adv = rng.standard_normal(batch)
        if mask_kind == "ones":
            mask = np.ones(batch)
        else:
            mask = (rng.uniform(size=batch) < 0.6).astype(np.float64)
            mask[0] = 1.0
        return policy, s, a, logp_old, adv, mask

    def test_log_probs_match_closed_form(self):
        policy, s, a, *_ = self.setup_pieces(seed=10)
        lp, *_ = ppo.policy_log_probs(policy, s, a)
        for i in range(s.shape[0]):
            mu, sigma = policy.mean_std(s[i])
            want = sum(gaussian_logpdf(a[i, d], mu[d], sigma[d])
                       for d in range(2))
            np.testing.assert_allclose(lp[i], want, atol=1e-12)

    def test_grads_match_finite_differences(self):
        for seed, mask_kind in ((11, "ones"), (12, "random"), (13, "ones")):
            policy, s, a, logp_old, adv, mask = self.setup_pieces(
                seed, mask_kind=mask_kind)
            _, grads, _ = ppo.surrogate_loss_and_grads(
                policy, s, a, logp_old, adv, mask, 0.2, 0.01)
            numeric_grads = fd_grads(
                lambda: ppo.surrogate_loss_and_grads(
                    policy, s, a, logp_old, adv, mask, 0.2, 0.01)[0],
                [policy.flat],
            )
            assert max_rel_error([grads], numeric_grads) < 1e-4

    def test_unit_ratio_reduces_to_plain_policy_gradient(self):
        policy, s, a, _, adv, mask = self.setup_pieces(seed=14, perturb=0.0)
        lp, *_ = ppo.policy_log_probs(policy, s, a)
        out = {}
        for clip in (0.1, 0.5):
            loss, grads, _ = ppo.surrogate_loss_and_grads(
                policy, s, a, lp, adv, mask, clip, 0.0)
            out[clip] = (loss, grads)
        np.testing.assert_allclose(out[0.1][0], -adv.mean(), atol=1e-12)
        np.testing.assert_allclose(out[0.1][1], out[0.5][1], atol=0.0)

    def test_all_masked_returns_zero_gradients(self):
        policy, s, a, logp_old, adv, _ = self.setup_pieces(seed=15)
        loss, grads, _ = ppo.surrogate_loss_and_grads(
            policy, s, a, logp_old, adv, np.zeros(s.shape[0]), 0.2, 0.01)
        assert loss == 0.0
        assert grads.shape == policy.flat.shape and np.all(grads == 0.0)

    def test_state_dependent_std_rejected(self):
        policy = policy_init(3, 2, 1.0, "tanh", True, seed=16, hidden=8)
        with pytest.raises(UsageError):
            ppo.surrogate_loss_and_grads(policy, np.zeros((2, 3)),
                                         np.zeros((2, 2)), np.zeros(2),
                                         np.ones(2), np.ones(2), 0.2, 0.0)

    def test_value_grads_match_finite_differences(self):
        rng = np.random.default_rng(17)
        vnet = numeric.mlp_init([3, 8, 8, 1], seed=17)
        s = rng.standard_normal((6, 3))
        ret = rng.standard_normal(6)
        _, grads = ppo.value_loss_and_grads(vnet, s, ret)
        numeric_grads = fd_grads(
            lambda: ppo.value_loss_and_grads(vnet, s, ret)[0], [vnet.flat])
        assert max_rel_error([grads], numeric_grads) < 1e-4

    def test_approx_kl_zero_for_unchanged_policy(self):
        policy, s, a, *_ = self.setup_pieces(seed=18)
        lp, *_ = ppo.policy_log_probs(policy, s, a)
        assert ppo.approx_kl(policy, s, a, lp) == 0.0
        policy.logstd_vec += 0.2
        assert ppo.approx_kl(policy, s, a, lp) != 0.0


def bandit_cfg(**overrides):
    base = dict(hidden=32, rollout_steps=256, n_workers=1,
                ppo_epochs=10, minibatch=64, ent_coef=0.0, kl_stop=0.05)
    base.update(overrides)
    return AgentConfig(**base)


def drive_bandit(agent, seed, phases, rollout):
    arng = np.random.default_rng([seed, 1, 0])
    s = np.zeros(1)
    step = 0
    for _ in range(phases):
        for _ in range(rollout):
            step += 1
            a = agent.act_train(s, arng, 0)
            r = -float((a[0] - 0.6) ** 2)
            agent.observe(Transition(s=s.copy(), a=np.asarray(a, float),
                                     r=r, s_next=s.copy(), end=END_HAZARD),
                          0, step)
        agent.update_phase()


def phase_agent(update_every):
    """A two-worker PPO agent, memory on, after one 80-step phase on
    grid_hazard."""
    envs = [make("grid_hazard", np.random.default_rng([0, 2, w])) for w in range(2)]
    cfg = AgentConfig(hidden=8, rollout_steps=80, n_workers=2, ppo_epochs=2,
                      minibatch=16)
    fcfg = FemaConfig(suffix_len=3, update_every=update_every, capacity=16,
                      train_epochs=2, train_batch=8)
    agent = PpoAgent(envs[0].spec, cfg, seed=0, fema_cfg=fcfg)
    rngs = [np.random.default_rng([0, 1, w]) for w in range(2)]
    runner.VecRunner(envs, agent, rngs).run(80)
    return agent


class TestAgent:
    def test_bandit_mean_approaches_optimum(self):
        agent = PpoAgent(BANDIT_SPEC, bandit_cfg(), seed=0)
        drive_bandit(agent, 0, 20, 256)
        assert abs(float(agent.policy.det_action(np.zeros(1))[0]) - 0.6) < 0.1

    def test_kl_threshold_stops_epochs_early(self):
        stopped = PpoAgent(BANDIT_SPEC,
                           bandit_cfg(kl_stop=1e-9, policy_lr=0.05), seed=1)
        drive_bandit(stopped, 1, 1, 256)
        assert stopped.last_losses["epochs_run"] == 1.0
        free = PpoAgent(BANDIT_SPEC, bandit_cfg(kl_stop=1e9), seed=1)
        drive_bandit(free, 1, 1, 256)
        assert free.last_losses["epochs_run"] == 10.0

    def test_update_without_rows_rejected(self):
        agent = PpoAgent(BANDIT_SPEC, bandit_cfg(), seed=2)
        with pytest.raises(UsageError):
            agent.update_phase()

    def test_observe_without_act_rejected(self):
        agent = PpoAgent(BANDIT_SPEC, bandit_cfg(), seed=3)
        tr = Transition(s=np.zeros(1), a=np.zeros(1), r=0.0,
                        s_next=np.zeros(1), end=END_NONE)
        with pytest.raises(UsageError):
            agent.observe(tr, 0, 1)

    def test_masked_rows_freeze_policy_but_not_value(self):
        cfg = bandit_cfg(importance_correction=True, minibatch=8)
        fcfg = FemaConfig(suffix_len=2, update_every=4, capacity=8)
        agent = PpoAgent(BANDIT_SPEC, cfg, seed=4, fema_cfg=fcfg)
        rng = np.random.default_rng(4)
        agent._rows[0] = random_rows(rng, 16, [END_NONE] * 15 + [END_HAZARD])
        for row in agent._rows[0]:
            row.s = rng.standard_normal(1)
            row.s_next = rng.standard_normal(1)
            row.a = rng.standard_normal(1)
            row.overridden = True
        policy_before = agent.policy.flat.copy()
        value_before = agent.vnet.flat.copy()
        losses = agent.update_phase()
        assert losses["masked_fraction"] == 1.0
        assert losses["pi_loss"] == 0.0
        np.testing.assert_allclose(agent.policy.flat, policy_before, atol=0.0)
        assert not np.allclose(value_before, agent.vnet.flat)

    def test_mixed_mask_reflects_override_flags(self):
        cfg = bandit_cfg(importance_correction=True)
        fcfg = FemaConfig(suffix_len=2, update_every=4, capacity=8)
        agent = PpoAgent(BANDIT_SPEC, cfg, seed=5, fema_cfg=fcfg)
        rng = np.random.default_rng(5)
        rows = random_rows(rng, 6, [END_NONE] * 5 + [END_HAZARD])
        for i, row in enumerate(rows):
            row.s = rng.standard_normal(1)
            row.s_next = rng.standard_normal(1)
            row.a = rng.standard_normal(1)
            row.overridden = i % 2 == 0
        agent._rows[0] = rows
        batch = agent.build_batch()
        np.testing.assert_array_equal(batch.mask,
                                      [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_overridden_row_stores_logp_of_executed_action(self):
        cfg = bandit_cfg()
        fcfg = FemaConfig(suffix_len=1, update_every=2, capacity=8,
                          n_candidates=4, match_radius=float("inf"),
                          train_epochs=1)
        agent = PpoAgent(BANDIT_SPEC, cfg, seed=1, fema_cfg=fcfg)
        rng = np.random.default_rng(1)
        s = np.zeros(1)

        def step(i):
            a = agent.act_train(s, rng, 0)
            agent.observe(Transition(s=s.copy(), a=np.asarray(a, float),
                                     r=-1.0, s_next=s.copy(), end=END_HAZARD),
                          0, i)
            return a

        step(1)
        step(2)
        agent.between_phases()
        assert len(agent.memory.records) == 2
        first_draw = agent.policy.sample(s, copy.deepcopy(rng), 4)[0]
        a = step(3)
        row = agent._rows[0][-1]
        assert row.overridden
        # the selector executed a later candidate, not the first draw
        assert not np.array_equal(a, first_draw)
        assert row.logp == agent.policy.at(s).density(a)

    @pytest.mark.parametrize("case", ["memory off", "cold", "fallback", "scored"])
    def test_one_policy_pass_per_step(self, monkeypatch, case):
        """act_train runs the policy heads once for each state new to the
        phase and never for a repeated one, whether the plain draw or the
        selector acts, runs them again once the update or a publish changes
        what they read, and stores the exact log-density of the executed
        action."""
        fcfg = None if case == "memory off" else FemaConfig(
            suffix_len=1, update_every=1, capacity=8, n_candidates=4, train_epochs=1,
            match_radius=0.0 if case == "fallback" else float("inf"))
        agent = PpoAgent(BANDIT_SPEC, bandit_cfg(), seed=3, fema_cfg=fcfg)
        rng = np.random.default_rng(3)
        s, s_new, s_fail = np.array([0.25]), np.array([0.75]), np.array([-0.5])
        steps = iter(range(1, 100))
        calls = []
        heads = GaussianPolicy.heads
        monkeypatch.setattr(GaussianPolicy, "heads",
                            lambda policy, x: calls.append(x) or heads(policy, x))

        def act(state, end=END_NONE):
            """(heads passes, overridden) of one step at `state`."""
            calls.clear()
            a = agent.act_train(state, rng, 0)
            passes = len(calls)
            logp, _, overridden = agent.pending[0]
            assert logp == agent.policy.at(state).density(a)
            agent.observe(Transition(s=state, a=a, r=-1.0, s_next=state, end=end),
                          0, next(steps))
            return passes, overridden

        def publish():
            act(s_fail, END_HAZARD)
            agent.between_phases()
            assert len(agent.memory.records) >= 1

        if case in ("fallback", "scored"):
            publish()
        assert case != "cold" or agent.memory.cold
        taken = [act(x) for x in (s, s, s_new, s, s_new)]
        assert [n for n, _ in taken] == [1, 0, 1, 0, 0]
        assert {o for _, o in taken} == {case == "scored"}
        agent.update_phase()
        assert [act(s)[0] for _ in range(2)] == [1, 0]
        if case == "memory off":
            agent.between_phases()
            assert act(s)[0] == 0
        else:
            publish()
            assert [act(s)[0] for _ in range(2)] == [1, 0]

    @pytest.mark.parametrize("publish", ["between_phases", "memory.update"])
    def test_publish_refreshes_a_cold_lookup(self, publish):
        """A state first acted on while the memory is cold is looked up
        again once a publish makes it scoreable."""
        fcfg = FemaConfig(suffix_len=1, update_every=1, capacity=8, n_candidates=4,
                          train_epochs=1, match_radius=float("inf"))
        agent = PpoAgent(BANDIT_SPEC, bandit_cfg(), seed=3, fema_cfg=fcfg)
        rng = np.random.default_rng(3)
        s = np.array([0.25])
        a = agent.act_train(s, rng, 0)
        assert agent.memory.cold and not agent.pending[0][2]
        agent.observe(Transition(s=s, a=a, r=-1.0, s_next=s, end=END_HAZARD), 0, 1)
        if publish == "between_phases":
            agent.between_phases()
        else:
            agent.memory.update(agent.stack)
        a = agent.act_train(s, rng, 0)
        assert agent.pending[0][2]
        assert agent.pending[0][0] == agent.policy.at(s).density(a)

    @pytest.mark.parametrize("memory_on", [False, True])
    def test_update_refreshes_policy_and_value(self, memory_on):
        """After update_phase a repeated state's record reads the updated
        policy and value net."""
        fcfg = FemaConfig(suffix_len=2, update_every=4, capacity=8)
        agent = PpoAgent(BANDIT_SPEC, bandit_cfg(rollout_steps=32), seed=9,
                         fema_cfg=fcfg if memory_on else None)
        rng = np.random.default_rng(9)
        s = np.zeros(1)
        before = agent.act_train(s, rng, 0), agent.pending[0]
        drive_bandit(agent, 9, 1, 32)   # acts at s throughout, then updates
        a = agent.act_train(s, rng, 0)
        logp, value, _ = agent.pending[0]
        assert logp == agent.policy.at(s).density(a)
        assert value == agent.value_of(s)
        assert agent.policy.at(s).density(before[0]) != before[1][0]
        assert value != before[1][1]

    @pytest.mark.parametrize("memory_on", [False, True])
    def test_list_and_array_states_agree(self, memory_on):
        """A list state and the equal float64 array give the same actions
        and records; a state 1e-9 away is a different state."""
        fcfg = FemaConfig(suffix_len=1, update_every=1, capacity=8, n_candidates=4,
                          train_epochs=1, match_radius=float("inf"))
        runs = {}
        for as_list in (False, True):
            agent = PpoAgent(BANDIT_SPEC, bandit_cfg(), seed=5,
                             fema_cfg=fcfg if memory_on else None)
            rng = np.random.default_rng(5)
            got = []
            for step, x in enumerate([-0.5, 0.1, 0.1, 0.1 + 1e-9, 0.1, 0.1 + 1e-9]):
                state = [x] if as_list else np.array([x])
                a = agent.act_train(state, rng, 0)
                logp, value, overridden = agent.pending[0]
                assert logp == agent.policy.at(np.array([x])).density(a)
                assert value == agent.value_of([x])
                assert overridden == (memory_on and step > 0)
                got.append((a.tolist(), agent.pending[0]))
                agent.observe(Transition(s=np.array([x]), a=a, r=-1.0,
                                         s_next=np.array([x]),
                                         end=END_NONE if step else END_HAZARD),
                              0, step + 1)
                agent.between_phases()   # publishes only the first step's tail
            runs[as_list] = got
        assert runs[True] == runs[False]

    def test_correction_off_keeps_full_mask(self):
        cfg = bandit_cfg()
        fcfg = FemaConfig(suffix_len=2, update_every=4, capacity=8)
        agent = PpoAgent(BANDIT_SPEC, cfg, seed=6, fema_cfg=fcfg)
        rng = np.random.default_rng(6)
        rows = random_rows(rng, 4, [END_NONE] * 3 + [END_HAZARD])
        for row in rows:
            row.s = rng.standard_normal(1)
            row.s_next = rng.standard_normal(1)
            row.a = rng.standard_normal(1)
            row.overridden = True
        agent._rows[0] = rows
        np.testing.assert_array_equal(agent.build_batch().mask, np.ones(4))

    def test_staging_defers_memory_update_to_phase_gap(self):
        fcfg = FemaConfig(suffix_len=3, update_every=3, capacity=8,
                          n_candidates=2)
        spec = make("grid_hazard", np.random.default_rng(0)).spec
        agent = PpoAgent(spec, bandit_cfg(hidden=16),
                         seed=7, fema_cfg=fcfg)
        env = make("grid_hazard", np.random.default_rng(1))
        arng = np.random.default_rng([7, 1, 0])
        step = 0
        while len(agent.memory.pending) < fcfg.update_every:
            rec = run_episode(agent, env, arng, start_step=step)
            step = rec.end_step
            assert agent.memory.version == -1
        agent.between_phases()
        assert agent.memory.version >= 0
        assert len(agent.memory.pending) == 0
        assert len(agent.memory.records) >= 1

    def test_end_phase_without_due_publish_keeps_memory_cold(self):
        agent = phase_agent(update_every=16)
        assert not agent.memory.publish_due()
        losses = agent.end_phase()
        assert agent.last_losses == losses
        assert sum(map(len, agent._rows.values())) == 0
        assert agent.memory.version == -1

    def test_end_phase_publishes_when_due(self):
        agent = phase_agent(update_every=2)
        assert agent.memory.publish_due()
        losses = agent.end_phase()
        assert agent.last_losses == losses
        assert sum(map(len, agent._rows.values())) == 0
        assert agent.memory.version == 1

    def test_non_finite_update_leaves_memory_unpublished(self):
        """The update runs first, so its failure stops the gap before the
        publish."""
        agent = phase_agent(update_every=2)
        assert agent.memory.publish_due()
        agent.vnet.flat[:] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            agent.end_phase()
        assert agent.memory.version == -1

    @pytest.mark.parametrize("memory_on", [True, False])
    def test_agent_holds_only_open_tails(self, memory_on):
        fcfg = FemaConfig(suffix_len=3, update_every=2, capacity=8)
        agent = PpoAgent(BANDIT_SPEC, bandit_cfg(hidden=8), seed=0,
                         fema_cfg=fcfg if memory_on else None)
        held = held_transitions(agent, steps=200, workers=2)
        assert held == (2 * fcfg.suffix_len if memory_on else 0)
        assert sum(map(len, agent._rows.values())) == 400

    def test_inert_memory_keeps_training_identical(self):
        fcfg = FemaConfig(suffix_len=4, update_every=10000, capacity=10000,
                          n_candidates=5, match_radius=0.05)
        outcomes = {}
        for memory_on in (False, True):
            cfg = bandit_cfg(rollout_steps=120, hidden=16, minibatch=32,
                             ppo_epochs=4)
            agent = PpoAgent(make("tilt_pole", np.random.default_rng(0)).spec,
                             cfg, seed=8, fema_cfg=fcfg if memory_on else None)
            env = make("tilt_pole", np.random.default_rng([8, 2, 0]))
            arng = np.random.default_rng([8, 1, 0])
            taken = []
            s = env.reset()
            step = 0
            for _ in range(3):
                for _ in range(120):
                    step += 1
                    a = agent.act_train(s, arng, 0)
                    taken.append(np.asarray(a, float).copy())
                    res = env.step(a)
                    agent.observe(Transition(s=np.asarray(s, float),
                                             a=np.asarray(a, float),
                                             r=float(res.reward),
                                             s_next=np.asarray(res.state, float),
                                             end=res.end), 0, step)
                    s = env.reset() if res.end != "none" else res.state
                agent.update_phase()
                agent.between_phases()
            outcomes[memory_on] = (np.stack(taken),
                                 agent.policy.flat.copy())
        np.testing.assert_array_equal(outcomes[True][0], outcomes[False][0])
        np.testing.assert_array_equal(outcomes[True][1], outcomes[False][1])
