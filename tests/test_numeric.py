import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from fema import numeric
from fema.errors import ConfigError, ShapeError, UsageError
from helpers import mlp_zeros
from oracles import (adam_out_of_place, backward_out_of_place, fd_grads, forward_oracle,
                     forward_out_of_place, max_rel_error)


def random_mlp(widths, seed, acts=None):
    return numeric.mlp_init(widths, seed=seed, acts=acts)


def single_row_mismatches(n_nets: int, seed: int) -> int:
    """How many of `n_nets` random nets (1-3 layers of widths 1-64, each
    tanh or identity) give a 1-d forward that differs in any byte from row
    0 of the (1, d) batch forward of the same input."""
    rng = np.random.default_rng(seed)
    bad = 0
    for k in range(n_nets):
        widths = rng.integers(1, 65, size=int(rng.integers(2, 5))).tolist()
        acts = rng.choice(list(numeric.ACTIVATIONS), size=len(widths) - 1).tolist()
        m = random_mlp(widths, seed=k, acts=acts)
        x = rng.normal(size=widths[0]) * rng.choice([0.1, 1.0, 10.0])
        one, _ = numeric.forward(m, x)
        batch, _ = numeric.forward(m, x[None, :])
        bad += one.shape != batch[0].shape or one.tobytes() != batch[0].tobytes()
    return bad


class TestInit:
    def test_deterministic(self):
        a = numeric.mlp_init([4, 64, 64, 16], seed=7)
        b = numeric.mlp_init([4, 64, 64, 16], seed=7)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_seed_changes_params(self):
        a = numeric.mlp_init([3, 8, 2], seed=0)
        b = numeric.mlp_init([3, 8, 2], seed=1)
        assert np.any(a.flat != b.flat)

    def test_shapes_and_default_acts(self):
        m = numeric.mlp_init([5, 64, 64, 3], seed=2)
        assert m.in_dim == 5 and m.out_dim == 3
        assert [l.w.shape for l in m.layers] == [(64, 5), (64, 64), (3, 64)]
        assert [l.act for l in m.layers] == ["tanh", "tanh", "identity"]

    def test_fan_in_bound(self):
        m = numeric.mlp_init([100, 4], seed=3)
        bound = 1.0 / np.sqrt(100.0)
        assert np.all(np.abs(m.layers[0].w) <= bound)
        assert np.all(np.abs(m.layers[0].b) <= bound)

    def test_rejects_bad_widths(self):
        with pytest.raises(ConfigError):
            numeric.mlp_init([4], seed=0)
        with pytest.raises(ConfigError):
            numeric.mlp_init([4, 0, 2], seed=0)
        with pytest.raises(ConfigError):
            numeric.mlp_init([4, 8, 2], seed=0, acts=["tanh"])
        with pytest.raises(ConfigError):
            numeric.mlp_init([4, 8, 2], seed=0, acts=["tanh", "sigmoid"])

    def test_relu_refused(self):
        with pytest.raises(ConfigError, match="unknown activation 'relu'"):
            numeric.mlp_init([4, 8, 2], seed=0, acts=["relu", "identity"])


class TestFlatLayout:
    def test_layers_are_views_into_flat(self):
        m = numeric.mlp_init([3, 5, 2], seed=0, acts=["tanh", "identity"])
        assert m.flat.shape == (4 * 5 + 6 * 2,)
        np.testing.assert_array_equal(
            m.flat, np.concatenate([a.ravel() for l in m.layers for a in (l.w, l.b)]))
        m.layers[1].w[1, 2] = 7.5
        m.layers[0].b[:] = -1.0
        assert m.flat[20 + 5 + 2] == 7.5
        np.testing.assert_array_equal(m.flat[15:20], -1.0)

    def test_pickle_round_trip_keeps_views(self):
        m = numeric.mlp_init([3, 5, 2], seed=4, acts=["tanh", "identity"])
        back = pickle.loads(pickle.dumps(m, pickle.HIGHEST_PROTOCOL))
        assert (back.widths, back.acts) == (m.widths, m.acts)
        np.testing.assert_array_equal(back.flat, m.flat)
        for layer in back.layers:
            assert np.shares_memory(layer.w, back.flat)
            assert np.shares_memory(layer.b, back.flat)
        back.flat[:] = 2.0
        assert all((layer.w == 2.0).all() and (layer.b == 2.0).all()
                   for layer in back.layers)

    def test_wrong_size_flat_rejected(self):
        with pytest.raises(ShapeError):
            numeric.Mlp([3, 5, 2], ["tanh", "identity"], np.zeros(31))
        with pytest.raises(ShapeError):
            numeric.Mlp([3, 5, 2], ["tanh", "identity"], np.zeros(33))
        with pytest.raises(ShapeError):
            numeric.Mlp([3, 5, 2], ["tanh"], np.zeros(32))

    def test_copy_is_independent(self):
        src = numeric.mlp_init([3, 5, 2], seed=22)
        before = src.flat.copy()
        dup = src.copy()
        dup.layers[0].w += 1.0
        dup.layers[1].b[:] = 9.0
        np.testing.assert_array_equal(src.flat, before)
        assert not np.allclose(dup.layers[0].w, src.layers[0].w)
        assert not np.allclose(dup.flat, src.flat)
        np.testing.assert_array_equal(src.layers[0].w, before[:15].reshape(5, 3))
        np.testing.assert_array_equal(src.layers[1].b, before[-2:])


class TestForward:
    def test_identity_single_layer_zero_weights(self):
        m = mlp_zeros([3, 3], acts=["identity"])
        for l in m.layers:
            l.w[:] = np.eye(3)
        x = np.array([1.0, -2.0, 0.5])
        out, _ = numeric.forward(m, x)
        np.testing.assert_array_equal(out, x)

    def test_zero_net_outputs_zero(self):
        m = mlp_zeros([4, 8, 2])
        out, _ = numeric.forward(m, np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_matches_oracle_single(self):
        rng = np.random.default_rng(42)
        m = random_mlp([4, 8, 2], seed=3)
        for _ in range(20):
            x = rng.normal(size=4)
            got, _ = numeric.forward(m, x)
            want = forward_oracle([(l.w, l.b, l.act) for l in m.layers], x)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_oracle_batched(self):
        rng = np.random.default_rng(43)
        m = random_mlp([6, 16, 16, 5], seed=9)
        xb = rng.normal(size=(20, 6))
        got, _ = numeric.forward(m, xb)
        assert got.shape == (20, 5)
        for i in range(20):
            want = forward_oracle([(l.w, l.b, l.act) for l in m.layers], xb[i])
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)

    def test_single_row_is_batch_row_bit_for_bit(self):
        # in a fresh interpreter with BLAS, OpenMP and MKL on one thread
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([
                       os.path.dirname(os.path.dirname(numeric.__file__)),
                       os.path.dirname(__file__)]))
        code = "import test_numeric as t; print(t.single_row_mismatches(3000, 17))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["0"]

    def test_rejects_wrong_width(self):
        m = random_mlp([4, 8, 2], seed=0)
        with pytest.raises(ShapeError):
            numeric.forward(m, np.zeros(5))
        with pytest.raises(ShapeError):
            numeric.forward(m, np.zeros((3, 3, 4)))


class TestBackward:
    def test_linear_net_grad_is_input(self):
        # Single identity layer, scalar output: dL/dW = g * x, dL/db = g.
        m = mlp_zeros([3, 1], acts=["identity"])
        x = np.array([[1.0, 2.0, -4.0]])
        _, cache = numeric.forward(m, x)
        grad, gin = numeric.backward(m, cache, np.array([[2.0]]))
        # one flat gradient laid out like m.flat: W (1x3) row-major, then b
        assert grad.shape == m.flat.shape
        np.testing.assert_array_equal(grad[:3], 2.0 * x[0])
        np.testing.assert_array_equal(grad[3:], [2.0])
        np.testing.assert_array_equal(gin, np.zeros((1, 3)))

    def test_fd_agreement_scalar_loss(self):
        # Loss = c . y summed over a small batch; analytic vs central FD.
        rng = np.random.default_rng(11)
        for trial, widths in enumerate(
            [[4, 16, 16, 8], [2, 8, 8, 1], [6, 12, 5], [3, 64, 64, 2]]
        ):
            m = random_mlp(widths, seed=100 + trial)
            xb = rng.normal(size=(3, widths[0]))
            c = rng.normal(size=(3, widths[-1]))

            def loss():
                out, _ = numeric.forward(m, xb)
                return float(np.sum(c * out))

            _, cache = numeric.forward(m, xb)
            analytic, _ = numeric.backward(m, cache, c)
            numeric_g = fd_grads(loss, [m.flat], h=1e-5)
            assert max_rel_error([analytic], numeric_g) < 1e-4

    def test_input_grad_fd(self):
        rng = np.random.default_rng(13)
        m = random_mlp([5, 12, 3], seed=21)
        x = rng.normal(size=(1, 5))
        c = rng.normal(size=(1, 3))

        def loss():
            out, _ = numeric.forward(m, x)
            return float(np.sum(c * out))

        _, cache = numeric.forward(m, x)
        _, gin = numeric.backward(m, cache, c)
        fd = fd_grads(loss, [x], h=1e-5)[0]
        assert max_rel_error([gin], [fd]) < 1e-4

    def test_flat_gradient_holds_each_layer_product(self):
        # Layer by layer, the flat gradient holds exactly g.T @ x_in (row-major)
        # then g.sum(0), as a hand-run backward pass computes them.
        rng = np.random.default_rng(14)
        m = random_mlp([5, 7, 3], seed=22)
        x = rng.normal(size=(6, 5))
        c = rng.normal(size=(6, 3))
        _, cache = numeric.forward(m, x)
        grad, _ = numeric.backward(m, cache, c)
        g_out = c
        h = cache.outputs[0]
        g_hid = (g_out @ m.layers[1].w) * (1.0 - h * h)
        want = np.concatenate([(g_hid.T @ x).ravel(), g_hid.sum(axis=0),
                               (g_out.T @ h).ravel(), g_out.sum(axis=0)])
        np.testing.assert_array_equal(grad, want)

    def test_gradient_written_into_out(self):
        rng = np.random.default_rng(15)
        m = random_mlp([4, 6, 2], seed=23)
        x = rng.normal(size=(5, 4))
        c = rng.normal(size=(5, 2))
        _, cache = numeric.forward(m, x)
        want, want_in = numeric.backward(m, cache, c)
        buf = np.full(m.flat.size + 3, np.nan)
        view = buf[2:-1]
        got, got_in = numeric.backward(m, cache, c, out=view)
        assert got is view
        assert got.tobytes() == want.tobytes()
        assert got_in.tobytes() == want_in.tobytes()
        assert np.isnan(buf[:2]).all() and np.isnan(buf[-1])
        with pytest.raises(ShapeError, match="gradient buffer"):
            numeric.backward(m, cache, c, out=buf)

    def test_single_sample_cache_refused(self):
        m = random_mlp([3, 4, 1], seed=1)
        _, cache = numeric.forward(m, np.zeros(3))
        with pytest.raises(UsageError, match="batched"):
            numeric.backward(m, cache, np.array([1.0]))
        with pytest.raises(UsageError, match="batched"):
            numeric.input_grad(m, cache, np.array([1.0]))

    def test_stale_cache_rejected(self):
        m = random_mlp([3, 4, 1], seed=1)
        other = random_mlp([3, 4, 1], seed=2)
        _, cache = numeric.forward(other, np.zeros((1, 3)))
        with pytest.raises(UsageError, match="does not belong"):
            numeric.backward(m, cache, np.array([[1.0]]))


class TestAdam:
    def test_first_step_magnitude(self):
        # With g=1, lr=0.1: m_hat=1, v_hat=1, step = 0.1/(1+1e-8).
        w = np.array([0.0])
        state = numeric.adam_init(w, lr=0.1)
        numeric.adam_step(w, np.array([1.0]), state)
        assert abs(w[0] + 0.1) < 1e-8

    def test_zero_grads_no_move(self):
        m = random_mlp([3, 4, 2], seed=8)
        before = m.flat.copy()
        state = numeric.adam_init(m.flat)
        numeric.adam_step(m.flat, np.zeros_like(m.flat), state)
        np.testing.assert_array_equal(m.flat, before)

    def test_quadratic_convergence(self):
        # min (w - 3)^2 from 0; lr=0.01 reaches |w - 3| < 1e-3 in 2000 steps.
        w = np.array([0.0])
        state = numeric.adam_init(w, lr=0.01)
        for _ in range(2000):
            numeric.adam_step(w, 2.0 * (w - 3.0), state)
        assert abs(w[0] - 3.0) < 1e-3

    def test_rejects_mismatched_grads(self):
        w = np.array([0.0, 1.0])
        state = numeric.adam_init(w)
        with pytest.raises(ShapeError):
            numeric.adam_step(w, np.zeros(3), state)
        with pytest.raises(ShapeError):   # moments of another vector
            numeric.adam_step(np.zeros(3), np.zeros(3), state)


def frozen(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def same_bits(got, want) -> bool:
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


class TestOutOfPlaceBits:
    """numeric's in-place arithmetic against the plain out-of-place
    expressions in `oracles`, byte for byte. Every array a caller passes is
    read-only except backward's `out` and Adam's parameters and moments, so
    a pass that wrote anything else would raise."""

    def test_forward_backward_and_input_grad(self):
        rng = np.random.default_rng(2026)
        for k in range(600):
            widths = rng.integers(1, 65, size=int(rng.integers(2, 5))).tolist()
            acts = rng.choice(list(numeric.ACTIVATIONS), size=len(widths) - 1).tolist()
            flat = random_mlp(widths, seed=k, acts=acts).flat
            m = numeric.Mlp(widths, acts, frozen(flat))
            layers = [(l.w, l.b, l.act) for l in m.layers]
            scale = rng.choice([0.1, 1.0, 10.0])
            shape = widths[:1] if k % 4 == 0 else [int(rng.integers(1, 33)), widths[0]]
            x = frozen(rng.normal(size=shape) * scale)
            out, cache = numeric.forward(m, x)
            want, inputs, outputs = forward_out_of_place(layers, x)
            assert same_bits(out, want), k
            if x.ndim == 1:
                continue
            assert all(same_bits(a, b) for a, b in zip(cache.outputs, outputs)), k
            g = frozen(np.zeros(out.shape) if k % 5 == 1 else rng.normal(size=out.shape))
            want_flat, want_in = backward_out_of_place(layers, inputs, outputs, g)
            buf = np.full(flat.shape, np.nan) if k % 2 else None
            grad, got_in = numeric.backward(m, cache, g, out=buf)
            assert buf is None or grad is buf
            assert same_bits(grad, want_flat), k
            assert same_bits(got_in, want_in), k
            assert same_bits(numeric.input_grad(m, cache, g), want_in), k

    def test_adam_vector_equals_its_slices(self):
        # A step on a vector equals steps on its slices, bit for bit, as
        # `embedding._adam` and `sac._Critic.fit` step theirs.
        rng = np.random.default_rng(2027)
        for k in range(400):
            sizes = rng.integers(1, 200, size=1 + k % 3)
            parts = [slice(end - n, end) for end, n in zip(np.cumsum(sizes), sizes)]
            params = rng.normal(size=int(sizes.sum()))
            by_slice = params.copy()
            lr = 0.0 if k % 7 == 0 else float(10.0 ** rng.uniform(-5, -1))
            whole, sliced = numeric.adam_init(params, lr=lr), numeric.adam_init(params, lr=lr)
            for _ in range(int(rng.integers(1, 4))):
                grad = rng.normal(size=params.size) * rng.choice([1e-3, 1.0, 1e3], params.size)
                grad = frozen(np.where(rng.random(params.size) < 0.2, 0.0, grad))
                want = adam_out_of_place(*([a[p] for p in parts]
                                           for a in (params, grad, whole.m, whole.v)),
                                         whole.t + 1, lr)
                numeric.adam_step(params, grad, whole)
                for p in parts:
                    numeric.adam_step(by_slice[p], grad[p], numeric.AdamState(
                        sliced.m[p], sliced.v[p], sliced.t, lr))
                sliced.t += 1
                for got, exp in zip((params, whole.m, whole.v), want):
                    assert same_bits(got, np.concatenate(exp)), k
                for got, exp in zip((by_slice, sliced.m, sliced.v),
                                    (params, whole.m, whole.v)):
                    assert same_bits(got, exp), k
