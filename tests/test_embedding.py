import copy
import hashlib
import os
import pickle
import signal
import time
import tracemalloc

import numpy as np
import pytest

from fema import checkpoint, embedding, forking, numeric
from fema.errors import ShapeError, TrainingError, UsageError
from helpers import assert_no_children, count_forks, left_running, save_agent
from oracles import (fd_grads, forward_oracle, max_rel_error, spearman,
                     train_risk_one_loop)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the risk helper needs os.fork")


def small_stack(seed=0, lr=3e-4):
    return embedding.stack_init(d_s=3, d_a=2, seed=seed, d_z=4, d_z_a=3,
                                d_phi=5, hidden=8, lr=lr)


def zero_all(stack):
    stack.flat[:] = 0.0
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

    def test_store_sized_encode_peak_memory(self):
        # numpy reports its buffers to tracemalloc. A 64-wide layer of a
        # 16,000-row batch needs its input and one new array (about 2.25 such
        # arrays at the peak, with the 16-wide output); a layer that kept a
        # third, the bias sum or tanh beside the product, would peak near 3.
        st = embedding.stack_init(d_s=4, d_a=2, seed=0)
        s = np.random.default_rng(0).normal(size=(16000, 4))
        tracemalloc.start()
        try:
            embedding.encode_state(st, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16000 * 64 * 8

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
        numeric_g = fd_grads(loss, [st.flat], h=1e-5)
        assert max_rel_error([analytic], numeric_g) < 1e-4

    def test_zero_lr_frozen(self):
        st = small_stack(seed=1, lr=0.0)
        rng = np.random.default_rng(3)
        states = rng.normal(size=(16, 3))
        actions = rng.normal(size=(16, 2))
        rets = rng.normal(size=16)
        before = st.flat.copy()
        first, _ = embedding.risk_loss_and_grads(
            st, states, actions, embedding.normalize_returns(rets)
        )
        final = embedding.train_risk(st, states, actions, rets, epochs=3, batch_size=16)
        np.testing.assert_array_equal(st.flat, before)
        assert final == pytest.approx(first, abs=1e-12)

    def test_zero_head_constant_batch_zero_loss(self):
        st = small_stack(seed=4)
        st.h.flat[:] = 0.0
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

    @pytest.mark.parametrize("n_states,n_actions", [(100, 100), (50, 7)],
                             ids=["fewer_returns", "fewer_actions"])
    def test_unequal_row_counts_refused(self, n_states, n_actions):
        st = small_stack(seed=9)
        before = st.flat.copy()
        rng = np.random.default_rng(14)
        with pytest.raises(ShapeError, match="one state and action row per return"):
            embedding.train_risk(st, rng.normal(size=(n_states, 3)),
                                 rng.normal(size=(n_actions, 2)), rng.normal(size=50))
        assert st.version == 0 and st.flat.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"epochs": 0}],
                             ids=["batch_size", "epochs"])
    def test_below_one_refused(self, kwargs):
        st = small_stack(seed=9)
        before = st.flat.copy()
        rng = np.random.default_rng(14)
        with pytest.raises(UsageError, match=">= 1"):
            embedding.train_risk(st, rng.normal(size=(8, 3)), rng.normal(size=(8, 2)),
                                 rng.normal(size=8), **kwargs)
        assert st.version == 0 and st.flat.tobytes() == before.tobytes()

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


def checkpoint_round_trip(path, st):
    """`st` as a checkpoint of a SAC agent with the memory on gives it back."""
    save_agent(path, "sac", st.d_s, st.d_a, st.f.widths[1], fema=True, stack=st)
    return checkpoint.load_checkpoint(path).stack


class TestStackSnapshot:
    def test_round_trip(self, tmp_path):
        st = small_stack(seed=17)
        st.version = 4
        back = checkpoint_round_trip(tmp_path / "ckpt.bin", st)
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
        assert sum(net.flat.size for net in self.nets(st)) == st.flat.size
        for net in self.nets(st):
            assert net.flat.base is st.flat
        np.testing.assert_array_equal(
            np.concatenate([net.flat for net in self.nets(st)]), st.flat)
        st.flat[-1] = 7.5   # the risk head's output bias
        assert st.h.layers[-1].b[0] == 7.5

    def test_views_after_init(self):
        self.assert_views(small_stack(seed=3))

    def test_views_after_checkpoint_load(self, tmp_path):
        self.assert_views(checkpoint_round_trip(tmp_path / "ckpt.bin", small_stack(seed=3)))

    @pytest.mark.parametrize("copier", [copy.deepcopy,
                                        lambda st: pickle.loads(pickle.dumps(st))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_trains_its_own_nets(self, copier):
        """A copied stack's nets are views of its own vector, so training
        it moves what it encodes, and leaves the original alone."""
        st = small_stack(seed=3)
        st.version = 2
        back = copier(st)
        assert back.flat.tobytes() == st.flat.tobytes() and back.version == 2
        assert not np.shares_memory(back.flat, st.flat)
        s = np.array([0.3, -0.1, 0.7])
        before = embedding.encode_state(back, s)
        rng = np.random.default_rng(2)
        embedding.train_risk(back, rng.normal(size=(16, 3)), rng.normal(size=(16, 2)),
                             rng.normal(size=16), epochs=2)
        assert embedding.encode_state(back, s).tobytes() != before.tobytes()
        assert embedding.encode_state(st, s).tobytes() == before.tobytes()
        assert back.adam.t == 2 and st.adam.t == 0   # one minibatch per epoch
        self.assert_views(back)

    def test_one_gradient_is_the_per_net_gradients_joined(self):
        st = small_stack(seed=8)
        rng = np.random.default_rng(9)
        s = rng.normal(size=(6, 3))
        a = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        loss, grad = embedding.risk_loss_and_grads(st, s, a, y)
        z_s, c_f = numeric.forward(st.f, s)
        z_a, c_g = numeric.forward(st.g, a)
        phi, c_j = numeric.forward(st.j, np.concatenate([z_s, z_a], axis=1))
        pred, c_h = numeric.forward(st.h, phi)
        err = pred[:, 0] - y
        g_h, d_phi = numeric.backward(st.h, c_h, (2.0 / 6) * err[:, None])
        g_j, d_cat = numeric.backward(st.j, c_j, d_phi)
        g_f, _ = numeric.backward(st.f, c_f, d_cat[:, :4])
        g_g, _ = numeric.backward(st.g, c_g, d_cat[:, 4:])
        assert loss == float(np.mean(err * err))
        assert grad.tobytes() == np.concatenate([g_f, g_g, g_j, g_h]).tobytes()

    # sha256 prefixes of `flat`, derived from the two stacks whose serialized
    # bytes were pinned here while each net was its own vector (x86-64,
    # numpy 2.4.6, scipy-openblas 0.3.31)
    def test_bytes_pinned(self):
        st = embedding.stack_init(d_s=3, d_a=2, seed=5, d_z=4, d_z_a=3,
                                  d_phi=5, hidden=8)
        digest = hashlib.sha256(st.flat.tobytes()).hexdigest()[:16]
        assert digest == "2a69ccd25114dd9a"
        rng = np.random.default_rng(11)
        embedding.train_risk(st, rng.normal(size=(40, 3)),
                             rng.normal(size=(40, 2)), rng.normal(size=40),
                             epochs=3, batch_size=8, rng=np.random.default_rng(12))
        digest = hashlib.sha256(st.flat.tobytes()).hexdigest()[:16]
        assert digest == "40b959f7933b8a05"


class RiskFault(RuntimeError):
    pass


def fit_data(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.normal(size=(n, 2)), rng.normal(size=n)


def fit_state(st):
    """Every value train_risk may change in a stack."""
    return (st.flat.tobytes(), st.adam.m.tobytes(), st.adam.v.tobytes(),
            st.adam.t, st.version)


class TestTwoProcessFit:
    """`train_risk` at 1 CPU and with its helper at 2 CPUs gives the bits
    of the one-process loop in `oracles.train_risk_one_loop`."""

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
    @pytest.mark.parametrize("n, batch, epochs", [(40, 64, 3), (129, 64, 2), (300, 32, 4)],
                             ids=["n_below_batch", "one_row_left", "epochs"])
    @pytest.mark.parametrize("hidden", [16, 32, 64])
    def test_matches_one_loop(self, monkeypatch, hidden, n, batch, epochs, cpus):
        monkeypatch.setattr(embedding, "FORK_STEPS", 1)
        s, a, r = fit_data(n)
        st = embedding.stack_init(3, 2, seed=4, hidden=hidden)
        train_risk_one_loop(st, s, a, r, 1, batch, np.random.default_rng(6))  # warm Adam
        ref, ref_rng, rng = copy.deepcopy(st), np.random.default_rng(7), np.random.default_rng(7)
        want = train_risk_one_loop(ref, s, a, r, epochs, batch, ref_rng)
        forks = count_forks(monkeypatch, cpus)
        got = embedding.train_risk(st, s, a, r, epochs, batch, rng)
        assert got == want
        assert fit_state(st) == fit_state(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert forks == ([["risk helper"]] if cpus == 2 else [])
        TestStackVector().assert_views(st)
        assert_no_children()

    @needs_fork
    def test_forks_from_fork_steps(self, monkeypatch):
        """A fit of FORK_STEPS minibatch steps forks its helper; one step
        fewer does not."""
        forks = count_forks(monkeypatch, 2)
        s, a, r = fit_data(64)
        epochs = -(-embedding.FORK_STEPS // 8)
        embedding.train_risk(small_stack(), s, a, r, epochs=epochs - 1, batch_size=8)
        assert forks == []
        embedding.train_risk(small_stack(), s, a, r, epochs=epochs, batch_size=8)
        assert forks == [["risk helper"]]
        assert_no_children()

    @needs_fork
    def test_helper_error_reraised(self, monkeypatch):
        def fault(self, d_z_a):   # only the helper runs the action half
            raise RiskFault("helper refused its step")

        monkeypatch.setattr(embedding._ActionHalf, "learn", fault)
        monkeypatch.setattr(embedding, "FORK_STEPS", 1)
        forks = count_forks(monkeypatch, 2)
        st = small_stack(seed=2)
        start = time.monotonic()
        with pytest.raises(RiskFault, match="helper refused its step"):
            embedding.train_risk(st, *fit_data(64), epochs=3, batch_size=8)
        assert time.monotonic() - start < 30
        assert forks == [["risk helper"]] and st.version == 0
        TestStackVector().assert_views(st)
        assert_no_children()

    @needs_fork
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_helper_exits_when_its_parent_is_gone(self):
        """A process killed in the middle of a two-process fit, while its
        helper waits for a step's d z_a, leaves no helper running."""
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:   # the fitting process: report the helper, then stall
            try:
                os.close(rfd)
                real = forking._fork

                def fork(work):
                    child, fh = real(work)
                    os.write(wfd, b"%d\n" % child)
                    return child, fh

                def stall(*args):   # only the fitting process runs the joint pass
                    time.sleep(60)

                forking._fork = fork
                forking.usable_cpus = lambda: 2
                embedding.FORK_STEPS = 1
                embedding._joint = stall
                embedding.train_risk(small_stack(), *fit_data(64), epochs=3, batch_size=8)
            finally:
                os._exit(0)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as fh:
            helper = int(fh.readline())
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        assert left_running([helper], time.monotonic() + 30) == []
        assert_no_children()

    @pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
    def test_nan_loss_raises_training_error(self, monkeypatch, cpus):
        """The fit stops at the step whose loss is NaN, before that step's
        Adam update, as the one-process loop does."""
        monkeypatch.setattr(embedding, "FORK_STEPS", 1)
        s, a, r = fit_data(64)
        r[np.random.default_rng(1).permutation(64)[8 * 5]] = np.nan   # in step 6
        st = small_stack(seed=2)
        ref = copy.deepcopy(st)
        with pytest.raises(TrainingError):
            train_risk_one_loop(ref, s, a, r, 3, 8, np.random.default_rng(1))
        forks = count_forks(monkeypatch, cpus)
        start = time.monotonic()
        with pytest.raises(TrainingError, match="NaN"):
            embedding.train_risk(st, s, a, r, epochs=3, batch_size=8,
                                 rng=np.random.default_rng(1))
        assert time.monotonic() - start < 30
        assert fit_state(st) == fit_state(ref) and st.adam.t == 5
        assert forks == ([["risk helper"]] if cpus == 2 else [])
        assert_no_children()

    @needs_fork
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    def test_one_real_cpu_does_not_stall(self, monkeypatch):
        """Told of 2 CPUs while this process may run on one, the forking
        fit finishes within a few times the one-process fit, since a
        waiting side yields the CPU, and the two processes, switched on one
        CPU, still leave the one-process bits."""
        monkeypatch.setattr(embedding, "FORK_STEPS", 1)
        s, a, r = fit_data(512)
        cpus = os.sched_getaffinity(0)
        took, states = {1: [], 2: []}, set()
        os.sched_setaffinity(0, {min(cpus)})
        try:
            for n in (1, 2, 1, 2):
                with monkeypatch.context() as patch:
                    forks = count_forks(patch, n)
                    st = embedding.stack_init(3, 2, seed=1, hidden=32)
                    start = time.perf_counter()
                    embedding.train_risk(st, s, a, r, epochs=4, batch_size=16)
                    took[n].append(time.perf_counter() - start)
                assert forks == ([["risk helper"]] if n == 2 else [])
                states.add(fit_state(st))
        finally:
            os.sched_setaffinity(0, cpus)
        assert min(took[2]) < 4 * min(took[1])
        assert len(states) == 1
        assert_no_children()
