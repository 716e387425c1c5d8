import dataclasses

import numpy as np
import pytest

from fema import embedding, memory, selection
from fema.errors import CoherenceError, UsageError


class StubPolicy:
    """Diagonal Gaussian with fixed mean/std, enough for selection tests."""

    def __init__(self, mu, sigma):
        self.mu = np.asarray(mu, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)

    def sample(self, s, rng, n=None):
        shape = self.mu.shape if n is None else (n,) + self.mu.shape
        return self.mu + self.sigma * rng.standard_normal(shape)


class ScriptedPolicy:
    """Returns a fixed action sequence, for hand-built scoring scenarios."""

    def __init__(self, actions):
        self.queue = [np.asarray(a, dtype=np.float64) for a in actions]

    def sample(self, s, rng, n=None):
        if n is None:
            return self.queue.pop(0)
        return np.stack([self.queue.pop(0) for _ in range(n)])


def small_stack(seed=0):
    return embedding.stack_init(d_s=3, d_a=2, seed=seed, d_z=4, d_z_a=3,
                                d_phi=5, hidden=8)


def published_memory(stack, states, actions, returns, cfg):
    """Build a published memory from explicit (s, a, H) triples."""
    mem = memory.FailureMemory(cfg)
    for i, (s, a, h) in enumerate(zip(states, actions, returns)):
        ev = memory.FailureEvent(
            transitions=[memory.Transition(
                s=np.asarray(s, float), a=np.asarray(a, float), r=float(h),
                s_next=np.asarray(s, float), end=memory.END_HAZARD,
            )],
            returns=np.array([h], dtype=np.float64),
        )
        mem.stage(ev)
    mem.update(stack)
    return mem


def base_cfg(**kw):
    kw.setdefault("update_every", 1)
    kw.setdefault("train_epochs", 1)
    kw.setdefault("suffix_len", 1)
    return memory.FemaConfig(**kw).validate()


class TestScoreCandidates:
    def setup_scene(self, seed=0):
        st = small_stack(seed=seed)
        rng = np.random.default_rng(seed + 100)
        states = rng.normal(size=(2, 3))
        actions = rng.normal(size=(2, 2))
        mem = published_memory(st, states, actions, [-1.0, -2.0], base_cfg())
        return st, mem

    def test_hand_worked_scores(self):
        st, mem = self.setup_scene()
        s = np.array([0.1, 0.2, -0.3])
        cands = [np.array([0.5, 0.5]), np.array([-1.0, 0.2]), np.array([2.0, -2.0])]
        lam = 0.7
        scored = selection.score_candidates(s, cands, mem.records, st, lam, "mean")
        z_s = embedding.encode_state(st, s)
        rec_phi = np.stack([r.phi for r in mem.records])
        for c, a in zip(scored, cands):
            phi = embedding.joint_embed(st, z_s, embedding.encode_action(st, a))
            d = float(np.mean(np.sqrt(np.sum((rec_phi - phi) ** 2, axis=1))))
            rho = embedding.risk(st, phi)
            assert abs(c.distance - d) < 1e-12
            assert abs(c.risk - rho) < 1e-12
            assert abs(c.score - (d - lam * rho)) < 1e-12

    def test_aggregators(self):
        st, mem = self.setup_scene(seed=2)
        s = np.zeros(3)
        cands = [np.array([0.3, -0.3])]
        rec_phi = np.stack([r.phi for r in mem.records])
        phi = embedding.joint_embed(
            st, embedding.encode_state(st, s),
            embedding.encode_action(st, cands[0]),
        )
        gaps = np.sqrt(np.sum((rec_phi - phi) ** 2, axis=1))
        for how, want in [("mean", gaps.mean()), ("min", gaps.min()), ("sum", gaps.sum())]:
            got = selection.score_candidates(s, cands, mem.records, st, 0.0, how)
            assert abs(got[0].distance - float(want)) < 1e-12

    def test_zero_distance_candidate(self):
        st, mem = self.setup_scene(seed=3)
        # Make the single retained record's phi exactly the candidate's phi.
        s = np.array([0.4, -0.1, 0.0])
        a = np.array([0.9, -0.4])
        phi = embedding.joint_embed(
            st, embedding.encode_state(st, s), embedding.encode_action(st, a)
        )
        rec = dataclasses.replace(mem.records.take([0]), phi=phi[None, :].copy())
        scored = selection.score_candidates(s, [a], rec, st, 0.5, "mean")
        assert scored[0].distance == 0.0
        assert scored[0].score == -0.5 * scored[0].risk

    def test_zero_weight_ranks_by_distance(self):
        st, mem = self.setup_scene(seed=4)
        rng = np.random.default_rng(7)
        cands = [rng.normal(size=2) for _ in range(5)]
        scored = selection.score_candidates(np.zeros(3), cands, mem.records, st, 0.0)
        for c in scored:
            assert c.score == c.distance

    def test_version_mismatch_rejected(self):
        st, mem = self.setup_scene(seed=5)
        st.version += 1
        with pytest.raises(CoherenceError):
            selection.score_candidates(np.zeros(3), [np.zeros(2)], mem.records, st, 0.5)

    def test_empty_records_rejected(self):
        st, _ = self.setup_scene(seed=6)
        with pytest.raises(UsageError):
            selection.score_candidates(np.zeros(3), [np.zeros(2)], [], st, 0.5)

    def test_monotone_in_risk_and_distance(self):
        # Reconstructed scores move the right way when one term shifts.
        st, mem = self.setup_scene(seed=8)
        scored = selection.score_candidates(
            np.zeros(3), [np.ones(2)], mem.records, st, 0.5
        )[0]
        assert scored.distance - 0.5 * (scored.risk + 1.0) < scored.score
        assert (scored.distance + 1.0) - 0.5 * scored.risk > scored.score


class TestSelect:
    def test_cold_memory_fallback_matches_plain_draw(self):
        st = small_stack(seed=1)
        mem = memory.FailureMemory(base_cfg())
        pol = StubPolicy([0.1, 0.2], [0.3, 0.4])
        s = np.zeros(3)
        a, trace = selection.select(s, pol, mem, st, mem.cfg, np.random.default_rng(5))
        plain = pol.sample(s, np.random.default_rng(5))
        np.testing.assert_array_equal(a, plain)
        assert trace.fallback and trace.cold and trace.chosen == 0

    def test_empty_retrieval_fallback_not_cold(self):
        st = small_stack(seed=2)
        rng = np.random.default_rng(11)
        mem = published_memory(
            st, rng.normal(size=(3, 3)), rng.normal(size=(3, 2)),
            [-1.0, -2.0, -3.0], base_cfg(match_radius=0.0),
        )
        pol = StubPolicy([0.0, 0.0], [1.0, 1.0])
        a, trace = selection.select(
            np.ones(3), pol, mem, st, mem.cfg, np.random.default_rng(2)
        )
        assert trace.fallback and not trace.cold

    def test_picks_enumerated_argmax(self):
        st = small_stack(seed=3)
        rng = np.random.default_rng(13)
        mem = published_memory(
            st, rng.normal(size=(4, 3)), rng.normal(size=(4, 2)),
            [-1.0, -2.0, 0.5, -4.0],
            base_cfg(match_radius=float("inf"), n_candidates=6),
        )
        pol = StubPolicy([0.0, 0.0], [1.0, 1.0])
        s = np.array([0.2, -0.2, 0.2])
        a, trace = selection.select(s, pol, mem, st, mem.cfg, np.random.default_rng(3))
        assert not trace.fallback
        scores = [c.score for c in trace.candidates]
        assert trace.chosen == int(np.argmax(scores))
        np.testing.assert_array_equal(a, trace.candidates[trace.chosen].action)
        # Score arithmetic is exact and shift-invariant.
        lam = mem.cfg.risk_weight
        for c in trace.candidates:
            assert c.score == c.distance - lam * c.risk
        shifted = [x + 3.7 for x in scores]
        assert int(np.argmax(shifted)) == trace.chosen

    def test_repulsion_from_remembered_cluster(self):
        # Records sit on the embedding of (s, a_near); with risk weight 0 the
        # scripted far candidate must win on distance alone.
        st = small_stack(seed=4)
        s = np.array([0.5, 0.0, -0.5])
        a_near = np.array([0.2, 0.1])
        a_far = np.array([-2.0, 3.0])
        mem = published_memory(
            st, [s, s, s], [a_near, a_near, a_near], [-1.0, -1.1, -0.9],
            base_cfg(match_radius=float("inf"), n_candidates=2, risk_weight=0.0),
        )
        pol = ScriptedPolicy([a_near, a_far])
        a, trace = selection.select(s, pol, mem, st, mem.cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(a, a_far)
        assert trace.chosen == 1
        assert trace.candidates[0].distance < trace.candidates[1].distance

    def test_deterministic_given_same_inputs(self):
        st = small_stack(seed=5)
        rng = np.random.default_rng(19)
        mem = published_memory(
            st, rng.normal(size=(3, 3)), rng.normal(size=(3, 2)),
            [-1.0, -2.0, -3.0],
            base_cfg(match_radius=float("inf"), n_candidates=4),
        )
        pol = StubPolicy([0.0, 0.0], [1.0, 1.0])
        s = np.full(3, 0.1)
        a1, t1 = selection.select(s, pol, mem, st, mem.cfg, np.random.default_rng(8))
        a2, t2 = selection.select(s, pol, mem, st, mem.cfg, np.random.default_rng(8))
        np.testing.assert_array_equal(a1, a2)
        assert t1.chosen == t2.chosen
        assert [c.score for c in t1.candidates] == [c.score for c in t2.candidates]
