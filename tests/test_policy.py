"""Gaussian policy: densities, sampling, squashing, persistence."""

import copy
import pickle

import numpy as np
import pytest

from fema.agents.policy import (
    LOGSTD_MIN,
    policy_init,
)
from fema.checkpoint import load_checkpoint
from fema.errors import ConfigError, SerializationError, ShapeError

from helpers import edit_checkpoint, save_agent
from oracles import gaussian_logpdf


def make_clip_policy(seed=0, d_s=3, d_a=2, init_logstd=-0.5):
    return policy_init(d_s, d_a, scale=1.0, squash="clip",
                       state_dependent_std=False, seed=seed, hidden=16,
                       init_logstd=init_logstd)


def make_tanh_policy(seed=0, d_s=3, d_a=2, scale=2.0):
    return policy_init(d_s, d_a, scale=scale, squash="tanh",
                       state_dependent_std=True, seed=seed, hidden=16)


def assert_views(policy):
    """The trunk, the mean head and the log-std head or vector are views of
    `flat`, one after another in that order."""
    tail = policy.logstd_vec if policy.logstd_head is None else policy.logstd_head.flat
    parts = [policy.trunk.flat, policy.mean_head.flat, tail]
    assert sum(part.size for part in parts) == policy.flat.size
    start, off = policy.flat.__array_interface__["data"][0], 0
    for part in parts:
        assert part.base is policy.flat
        assert part.__array_interface__["data"][0] == start + 8 * off
        off += part.size
    grad = np.arange(policy.flat.size, dtype=np.float64)
    assert [v.tobytes() for v in policy.split(grad)] == [
        grad[:parts[0].size].tobytes(),
        grad[parts[0].size:-tail.size].tobytes(), grad[-tail.size:].tobytes()]
    policy.flat[-1] = 0.25   # the log-std's last entry
    assert tail[-1] == 0.25


class TestDensities:
    def test_clip_logprob_matches_closed_form(self):
        policy = make_clip_policy(seed=3)
        rng = np.random.default_rng(10)
        for _ in range(20):
            s = rng.standard_normal(3)
            a = rng.standard_normal(2)
            mu, sigma = policy.mean_std(s)
            want = sum(
                gaussian_logpdf(a[d], mu[d], sigma[d]) for d in range(2)
            )
            np.testing.assert_allclose(policy.at(s).density(a), want, atol=1e-12)

    def test_logprob_batched_matches_rowwise(self):
        policy = make_clip_policy(seed=5)
        rng = np.random.default_rng(12)
        s = rng.standard_normal((6, 3))
        a = rng.standard_normal((6, 2))
        batch = policy.at(s).density(a)
        rows = np.array([policy.at(s[i]).density(a[i]) for i in range(6)])
        np.testing.assert_allclose(batch, rows, atol=1e-12)

    def test_logprob_shape_mismatch_rejected(self):
        policy = make_clip_policy()
        with pytest.raises(ShapeError):
            policy.at(np.zeros(3)).density(np.zeros(5))


class TestSampling:
    def test_sample_consumes_one_normal_draw(self):
        policy = make_clip_policy(seed=7)
        s = np.array([0.3, -0.2, 0.5])
        a = policy.sample(s, np.random.default_rng(99))
        mu, sigma = policy.mean_std(s)
        eps = np.random.default_rng(99).standard_normal(mu.shape)
        np.testing.assert_allclose(a, mu + sigma * eps, atol=1e-15)

    @pytest.mark.parametrize("make", [make_clip_policy, make_tanh_policy],
                             ids=["clip", "tanh"])
    def test_batch_equals_sequential_draws(self, make):
        policy = make(seed=14)
        s = np.array([0.4, 0.1, -0.7])
        rng_batch, rng_seq = np.random.default_rng(5), np.random.default_rng(5)
        batch = policy.sample(s, rng_batch, 7)
        assert batch.shape == (7, 2)
        np.testing.assert_array_equal(
            batch, np.stack([policy.sample(s, rng_seq) for _ in range(7)]))
        # both generators are left at the same point of the stream
        assert rng_batch.random() == rng_seq.random()

    def test_tanh_samples_stay_inside_scale(self):
        policy = make_tanh_policy(seed=8, scale=1.5)
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = policy.sample(rng.standard_normal(3), rng)
            assert np.all(np.abs(a) < 1.5)

    def test_sample_statistics(self):
        policy = make_clip_policy(seed=9, init_logstd=-0.3)
        s = np.array([0.1, 0.2, -0.4])
        mu, sigma = policy.mean_std(s)
        rng = np.random.default_rng(14)
        draws = np.stack([policy.sample(s, rng) for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), mu,
                                   atol=4 * sigma.max() / np.sqrt(4000))
        np.testing.assert_allclose(draws.std(axis=0), sigma, rtol=0.1)

    def test_det_action_clip_variant(self):
        policy = make_clip_policy(seed=10)
        policy.mean_head.layers[0].b[:] = 100.0
        s = np.zeros(3)
        mu, _ = policy.mean_std(s)
        assert mu.max() > 1.0
        np.testing.assert_allclose(policy.det_action(s), np.clip(mu, -1, 1))

    def test_det_action_tanh_variant(self):
        policy = make_tanh_policy(seed=11, scale=2.0)
        s = np.array([0.5, -0.1, 0.2])
        mu, _ = policy.mean_std(s)
        np.testing.assert_allclose(policy.det_action(s), 2.0 * np.tanh(mu))

    def test_logstd_clamp_floors_sigma(self):
        policy = make_clip_policy(seed=12, init_logstd=-30.0)
        _, sigma = policy.mean_std(np.zeros(3))
        np.testing.assert_allclose(sigma, np.exp(LOGSTD_MIN), atol=1e-15)


class TestLifecycle:
    @staticmethod
    def saved(path, policy):
        """Checkpoint an agent that carries `policy`."""
        save_agent(path, "sac", policy.d_s, policy.d_a, policy.trunk.out_dim,
                   policy=policy)
        return path

    def test_round_trip_state_dependent(self, tmp_path):
        policy = make_tanh_policy(seed=20)
        back = load_checkpoint(self.saved(tmp_path / "ckpt.bin", policy)).policy
        s = np.random.default_rng(0).standard_normal((4, 3))
        for got, want in zip(back.mean_std(s), policy.mean_std(s)):
            np.testing.assert_allclose(got, want, atol=0.0)
        assert back.squash == "tanh"
        assert back.logstd_head is not None
        np.testing.assert_array_equal(back.scale, policy.scale)

    def test_round_trip_shared_logstd(self, tmp_path):
        policy = make_clip_policy(seed=21, init_logstd=-0.7)
        back = load_checkpoint(self.saved(tmp_path / "ckpt.bin", policy)).policy
        np.testing.assert_allclose(back.logstd_vec, policy.logstd_vec, atol=0.0)
        assert back.logstd_head is None
        s = np.random.default_rng(2).standard_normal(3)
        np.testing.assert_allclose(back.det_action(s), policy.det_action(s),
                                   atol=0.0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
    def test_load_rejects_bad_scale(self, tmp_path, bad):
        path = self.saved(tmp_path / "ckpt.bin", make_tanh_policy(seed=24))
        edit_checkpoint(path, {"scale": [2.0, bad]})
        with pytest.raises(SerializationError, match="scale"):
            load_checkpoint(path)

    def test_load_rejects_unknown_squash(self, tmp_path):
        path = self.saved(tmp_path / "ckpt.bin", make_clip_policy(seed=23))
        edit_checkpoint(path, {"squash": "clap"})
        with pytest.raises(SerializationError, match="clap"):
            load_checkpoint(path)

    def test_params_order_and_count(self):
        for policy in (make_clip_policy(), make_tanh_policy()):
            assert_views(policy)

    @pytest.mark.parametrize("copier", [copy.deepcopy,
                                        lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("make", [make_clip_policy, make_tanh_policy],
                             ids=["clip", "tanh"])
    def test_copy_keeps_views(self, copier, make):
        policy = make(seed=5)
        back = copier(policy)
        assert back.flat.tobytes() == policy.flat.tobytes()
        assert not np.shares_memory(back.flat, policy.flat)
        assert_views(back)
        s = np.array([0.3, -0.1, 0.7])
        back.flat[:] = 0.0
        assert np.all(back.mean_std(s)[0] == 0.0)
        assert np.any(policy.mean_std(s)[0] != 0.0)

    def test_init_rejects_bad_args(self):
        with pytest.raises(ConfigError):
            policy_init(3, 2, 1.0, "softmax", False, seed=0)
        with pytest.raises(ConfigError):
            policy_init(3, 2, 0.0, "tanh", True, seed=0)
        with pytest.raises(ConfigError):
            policy_init(3, 2, [1.0, -1.0], "clip", False, seed=0)
        with pytest.raises(ConfigError):
            policy_init(3, 2, [1.0, np.inf], "tanh", True, seed=0)

    def test_init_deterministic_in_seed(self):
        a = make_tanh_policy(seed=33)
        b = make_tanh_policy(seed=33)
        s = np.random.default_rng(3).standard_normal(3)
        np.testing.assert_allclose(a.det_action(s), b.det_action(s), atol=0.0)

    def test_heads_broadcast_shared_logstd(self):
        policy = make_clip_policy(seed=34)
        mu, ls, _ = policy.heads(np.zeros((5, 3)))
        assert mu.shape == (5, 2)
        assert ls.shape == (5, 2)
        np.testing.assert_allclose(ls, -0.5, atol=0.0)
