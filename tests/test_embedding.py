import hashlib

import numpy as np
import pytest

from fema import embedding, numeric
from fema.errors import ShapeError, UsageError
from oracles import fd_grads, forward_oracle, max_rel_error, spearman


def small_stack(seed=0, lr=3e-4):
    return embedding.stack_init(d_s=3, d_a=2, seed=seed, d_z=4, d_z_a=3,
                                d_phi=5, hidden=8, lr=lr)


def zero_all(stack):
    for p in stack.params():
        p[:] = 0.0
    return stack


class TestEncoders:
    def test_zero_stack_zero_outputs(self):
        st = zero_all(small_stack())
        s, a = np.ones(3), np.ones(2)
        np.testing.assert_array_equal(embedding.encode_state(st, s), np.zeros(4))
        np.testing.assert_array_equal(embedding.encode_action(st, a), np.zeros(3))
        phi = embedding.joint_embed(st, np.zeros(4), np.zeros(3))
        np.testing.assert_array_equal(phi, np.zeros(5))
        assert embedding.risk(st, phi) == 0.0

    def test_deterministic(self):
        st = small_stack(seed=3)
        s = np.array([0.1, -0.2, 0.3])
        np.testing.assert_array_equal(
            embedding.encode_state(st, s), embedding.encode_state(st, s)
        )

    def test_forward_oracle_agreement(self):
        st = small_stack(seed=7)
        rng = np.random.default_rng(0)
        s, a = rng.normal(size=3), rng.normal(size=2)
        z_s = embedding.encode_state(st, s)
        z_a = embedding.encode_action(st, a)
        phi = embedding.joint_embed(st, z_s, z_a)
        rho = embedding.risk(st, phi)

        def layers(net):
            return [(l.w, l.b, l.act) for l in net.layers]

        z_s_o = forward_oracle(layers(st.f), s)
        z_a_o = forward_oracle(layers(st.g), a)
        phi_o = forward_oracle(layers(st.j), np.concatenate([z_s_o, z_a_o]))
        rho_o = forward_oracle(layers(st.h), phi_o)[0]
        np.testing.assert_allclose(z_s, z_s_o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(z_a, z_a_o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(phi, phi_o, rtol=0, atol=1e-12)
        assert abs(rho - rho_o) < 1e-12

    def test_lipschitz_perturbation_bound(self):
        # tanh is 1-Lipschitz, so the product of layer spectral norms bounds
        # the output change for a small input perturbation.
        st = small_stack(seed=11)
        lip = 1.0
        for l in st.f.layers:
            lip *= np.linalg.norm(l.w, 2)
        rng = np.random.default_rng(1)
        s = rng.normal(size=3)
        delta = rng.normal(size=3)
        delta *= 1e-6 / np.linalg.norm(delta)
        dz = embedding.encode_state(st, s + delta) - embedding.encode_state(st, s)
        assert np.linalg.norm(dz) <= lip * 1e-6 * (1.0 + 1e-9)

    def test_composition_is_stepwise(self):
        st = small_stack(seed=5)
        s, a = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5])
        stepwise = embedding.risk(
            st,
            embedding.joint_embed(
                st, embedding.encode_state(st, s), embedding.encode_action(st, a)
            ),
        )
        assert embedding.risk_of_pair(st, s, a) == stepwise

    def test_width_errors(self):
        st = small_stack()
        with pytest.raises(ShapeError):
            embedding.encode_state(st, np.zeros(4))
        with pytest.raises(ShapeError):
            embedding.joint_embed(st, np.zeros(3), np.zeros(3))
        with pytest.raises(ShapeError):
            embedding.joint_embed(st, np.zeros(4), np.zeros(3)[None, :])

    def test_batched_encode(self):
        st = small_stack(seed=2)
        sb = np.random.default_rng(4).normal(size=(6, 3))
        zb = embedding.encode_state(st, sb)
        assert zb.shape == (6, 4)
        for i in range(6):
            np.testing.assert_allclose(
                zb[i], embedding.encode_state(st, sb[i]), rtol=0, atol=1e-12
            )


class TestNormalizeReturns:
    def test_constant_batch_collapses(self):
        np.testing.assert_array_equal(
            embedding.normalize_returns([2.0, 2.0, 2.0]), np.zeros(3)
        )

    def test_two_point_hand_value(self):
        # mu=1, population sigma=1, negated: {0,2} -> {+1-ish, -1-ish}
        # (guard shifts sigma to 1 + 1e-6).
        got = embedding.normalize_returns([0.0, 2.0])
        want = np.array([1.0, -1.0]) / (1.0 + 1e-6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_mean_zero_and_negation_antisymmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = rng.normal(size=rng.integers(2, 40)) * rng.uniform(0.5, 30)
            y = embedding.normalize_returns(h)
            assert abs(y.mean()) < 1e-9
            np.testing.assert_allclose(
                embedding.normalize_returns(-h), -y, rtol=0, atol=1e-12
            )

    def test_unit_std(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = rng.normal(size=30) * 5.0 + 2.0
            y = embedding.normalize_returns(h)
            assert abs(y.std() - 1.0) < 1e-5

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            embedding.normalize_returns([])

    def test_single_flagged(self):
        with pytest.warns(UserWarning):
            y = embedding.normalize_returns([5.0])
        np.testing.assert_array_equal(y, [0.0])


class TestRiskTraining:
    def test_end_to_end_fd_gradients(self):
        st = small_stack(seed=13)
        rng = np.random.default_rng(2)
        states = rng.normal(size=(4, 3))
        actions = rng.normal(size=(4, 2))
        targets = rng.normal(size=4)

        def loss():
            l, _ = embedding.risk_loss_and_grads(st, states, actions, targets)
            return l

        _, analytic = embedding.risk_loss_and_grads(st, states, actions, targets)
        numeric_g = fd_grads(loss, st.params(), h=1e-5)
        assert max_rel_error(analytic, numeric_g) < 1e-4

    def test_zero_lr_frozen(self):
        st = small_stack(seed=1, lr=0.0)
        rng = np.random.default_rng(3)
        states = rng.normal(size=(16, 3))
        actions = rng.normal(size=(16, 2))
        rets = rng.normal(size=16)
        before = [p.copy() for p in st.params()]
        first, _ = embedding.risk_loss_and_grads(
            st, states, actions, embedding.normalize_returns(rets)
        )
        final = embedding.train_risk(st, states, actions, rets, epochs=3, batch_size=16)
        for p, b in zip(st.params(), before):
            np.testing.assert_array_equal(p, b)
        assert final == pytest.approx(first, abs=1e-12)

    def test_zero_head_constant_batch_zero_loss(self):
        st = small_stack(seed=4)
        for p in st.h.params():
            p[:] = 0.0
        states = np.tile(np.array([0.5, -0.5, 1.0]), (8, 1))
        actions = np.tile(np.array([0.2, 0.2]), (8, 1))
        rets = np.full(8, 3.0)
        loss, _ = embedding.risk_loss_and_grads(
            st, states, actions, embedding.normalize_returns(rets)
        )
        assert loss == 0.0

    def test_linear_risk_dataset_loss_drops(self):
        st = small_stack(seed=6, lr=3e-3)
        rng = np.random.default_rng(5)
        states = rng.normal(size=(64, 3))
        actions = rng.normal(size=(64, 2))
        rets = -states[:, 0]
        y = embedding.normalize_returns(rets)
        initial, _ = embedding.risk_loss_and_grads(st, states, actions, y)
        final = embedding.train_risk(
            st, states, actions, rets, epochs=500, batch_size=64,
            rng=np.random.default_rng(10),
        )
        assert final < 0.1 * initial

    def test_risk_orders_heldout_by_hazard(self):
        # H strictly decreasing in s[0]; predicted risk should rank -H.
        rng = np.random.default_rng(12)
        st = embedding.stack_init(d_s=4, d_a=2, seed=20, d_z=8, d_z_a=4,
                                  d_phi=8, hidden=32, lr=1e-3)
        states = rng.normal(size=(1000, 4))
        actions = rng.normal(size=(1000, 2))
        rets = -states[:, 0]
        embedding.train_risk(st, states, actions, rets, epochs=60,
                             batch_size=64, rng=np.random.default_rng(21))
        held_s = rng.normal(size=(200, 4))
        held_a = rng.normal(size=(200, 2))
        held_h = -held_s[:, 0]
        rho = embedding.risk_of_pair(st, held_s, held_a)
        assert spearman(rho, -held_h) >= 0.9

    def test_empty_data_warns(self):
        st = small_stack()
        with pytest.warns(UserWarning):
            out = embedding.train_risk(st, np.zeros((0, 3)), np.zeros((0, 2)), [])
        assert out is None

    def test_version_bumps_on_training(self):
        st = small_stack(seed=9)
        rng = np.random.default_rng(14)
        assert st.version == 0
        embedding.train_risk(st, rng.normal(size=(8, 3)), rng.normal(size=(8, 2)),
                             rng.normal(size=8), epochs=1)
        assert st.version == 1

    def test_batch_size_mismatch_rejected(self):
        st = small_stack()
        with pytest.raises(ShapeError):
            embedding.risk_loss_and_grads(
                st, np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(3)
            )


class TestStackSnapshot:
    def test_round_trip(self):
        st = small_stack(seed=17)
        st.version = 4
        back = embedding.stack_from_bytes(embedding.stack_to_bytes(st))
        assert (back.d_s, back.d_a, back.d_z, back.d_z_a, back.d_phi) == (3, 2, 4, 3, 5)
        assert back.version == 4
        s, a = np.ones(3), np.ones(2)
        assert embedding.risk_of_pair(back, s, a) == embedding.risk_of_pair(st, s, a)


class TestStackVector:
    """The four nets are views of one vector, which trains as one array."""

    @staticmethod
    def nets(st):
        return (st.f, st.g, st.j, st.h)

    def assert_views(self, st):
        assert st.params() == [st.flat] and st.params()[0] is st.flat
        assert sum(net.flat.size for net in self.nets(st)) == st.flat.size
        for net in self.nets(st):
            assert net.flat.base is st.flat
        np.testing.assert_array_equal(
            np.concatenate([net.flat for net in self.nets(st)]), st.flat)
        st.flat[-1] = 7.5   # the risk head's output bias
        assert st.h.layers[-1].b[0] == 7.5

    def test_views_after_init(self):
        self.assert_views(small_stack(seed=3))

    def test_views_after_from_bytes(self):
        st = small_stack(seed=3)
        self.assert_views(embedding.stack_from_bytes(embedding.stack_to_bytes(st)))

    def test_one_gradient_is_the_per_net_gradients_joined(self):
        st = small_stack(seed=8)
        rng = np.random.default_rng(9)
        s = rng.normal(size=(6, 3))
        a = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        loss, (grad,) = embedding.risk_loss_and_grads(st, s, a, y)
        z_s, c_f = numeric.forward(st.f, s)
        z_a, c_g = numeric.forward(st.g, a)
        phi, c_j = numeric.forward(st.j, np.concatenate([z_s, z_a], axis=1))
        pred, c_h = numeric.forward(st.h, phi)
        err = pred[:, 0] - y
        (g_h,), d_phi = numeric.backward(st.h, c_h, (2.0 / 6) * err[:, None])
        (g_j,), d_cat = numeric.backward(st.j, c_j, d_phi)
        (g_f,), _ = numeric.backward(st.f, c_f, d_cat[:, :4])
        (g_g,), _ = numeric.backward(st.g, c_g, d_cat[:, 4:])
        assert loss == float(np.mean(err * err))
        assert grad.tobytes() == np.concatenate([g_f, g_g, g_j, g_h]).tobytes()

    # sha256 prefixes of stack_to_bytes, written while each net was its own
    # vector (x86-64, numpy 2.4.6, scipy-openblas 0.3.31)
    def test_bytes_pinned(self):
        st = embedding.stack_init(d_s=3, d_a=2, seed=5, d_z=4, d_z_a=3,
                                  d_phi=5, hidden=8)
        digest = hashlib.sha256(embedding.stack_to_bytes(st)).hexdigest()[:16]
        assert digest == "f33fc576f178b3c4"
        rng = np.random.default_rng(11)
        embedding.train_risk(st, rng.normal(size=(40, 3)),
                             rng.normal(size=(40, 2)), rng.normal(size=40),
                             epochs=3, batch_size=8, rng=np.random.default_rng(12))
        digest = hashlib.sha256(embedding.stack_to_bytes(st)).hexdigest()[:16]
        assert digest == "5c8963271ced1c56"
