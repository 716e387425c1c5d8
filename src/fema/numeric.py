"""Minimal dense-network engine: MLPs with analytic gradients and Adam updates.

Forward/backward are purely functional over explicit parameter values.
Adam mutates only the state object passed in, so concurrent workers are safe
as long as each owns its parameter copy (or reads an immutable snapshot).
All math is float64 unless a dtype is requested at init.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass
class Layer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    act: str


@dataclass
class Mlp:
    layers: list

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[0]

    def params(self) -> list:
        """Flat parameter list [w0, b0, w1, b1, ...] (views, not copies)."""
        out = []
        for l in self.layers:
            out.append(l.w)
            out.append(l.b)
        return out

    def copy(self) -> "Mlp":
        return Mlp([Layer(l.w.copy(), l.b.copy(), l.act) for l in self.layers])


@dataclass
class ForwardCache:
    """Per-layer inputs and post-activations kept for backward()."""

    inputs: list
    outputs: list
    single: bool
    mlp_id: int


def default_acts(n_layers: int) -> list:
    """tanh on hidden layers, identity on the output layer."""
    return ["tanh"] * (n_layers - 1) + ["identity"]


def mlp_init(widths: Sequence[int], seed, acts=None, dtype=np.float64) -> Mlp:
    """Build an MLP with uniform fan-in initialization.

    Weights and biases of a layer with fan-in n are drawn i.i.d. from
    U(-1/sqrt(n), 1/sqrt(n)). Identical (widths, acts, seed) give
    bit-identical parameters.
    """
    widths = list(widths)
    if len(widths) < 2:
        raise ConfigError(f"layer spec needs at least input and output width, got {widths}")
    if any(int(w) < 1 for w in widths):
        raise ConfigError(f"layer widths must be >= 1, got {widths}")
    if acts is None:
        acts = default_acts(len(widths) - 1)
    if len(acts) != len(widths) - 1:
        raise ConfigError(f"{len(widths) - 1} layers but {len(acts)} activations")
    for a in acts:
        if a not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {a!r}")

    rng = np.random.default_rng(seed)
    layers = []
    for i, act in enumerate(acts):
        fan_in, fan_out = int(widths[i]), int(widths[i + 1])
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype)
        b = rng.uniform(-bound, bound, size=(fan_out,)).astype(dtype)
        layers.append(Layer(w, b, act))
    return Mlp(layers)


def _apply_act(z: np.ndarray, act: str) -> np.ndarray:
    if act == "tanh":
        return np.tanh(z)
    if act == "relu":
        return np.maximum(z, 0.0)
    return z


def forward(mlp: Mlp, x: np.ndarray):
    """Run the network on a vector (d,) or batch (B, d).

    Returns (output, cache); the cache feeds backward().
    """
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise ShapeError(f"input must be 1-D or 2-D, got ndim={x.ndim}")
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != mlp.in_dim:
        raise ShapeError(f"input width {h.shape[1]} != network input width {mlp.in_dim}")

    inputs, outputs = [], []
    for layer in mlp.layers:
        inputs.append(h)
        h = _apply_act(h @ layer.w.T + layer.b, layer.act)
        outputs.append(h)
    out = h[0] if single else h
    return out, ForwardCache(inputs, outputs, single, id(mlp))


def backward(mlp: Mlp, cache: ForwardCache, output_grad: np.ndarray):
    """Backpropagate loss gradients through a cached forward pass.

    Returns (grads, input_grad) where grads is a flat list matching
    mlp.params() order.
    """
    if cache.mlp_id != id(mlp) or len(cache.inputs) != len(mlp.layers):
        raise UsageError("cache does not belong to this network's forward pass")
    g = np.asarray(output_grad)
    if cache.single:
        if g.shape != (mlp.out_dim,):
            raise ShapeError(f"output_grad shape {g.shape} != ({mlp.out_dim},)")
        g = g[None, :]
    else:
        if g.shape != cache.outputs[-1].shape:
            raise ShapeError(
                f"output_grad shape {g.shape} != forward output shape {cache.outputs[-1].shape}"
            )

    grads = [None] * (2 * len(mlp.layers))
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        a = cache.outputs[i]
        if layer.act == "tanh":
            g = g * (1.0 - a * a)
        elif layer.act == "relu":
            g = g * (a > 0.0)
        x_in = cache.inputs[i]
        grads[2 * i] = g.T @ x_in
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ layer.w
    return grads, (g[0] if cache.single else g)


@dataclass
class AdamState:
    """First/second moment accumulators plus step counter and hyperparameters."""

    m: list
    v: list
    t: int
    lr: float
    beta1: float
    beta2: float
    eps: float


def adam_init(params: Sequence[np.ndarray], lr: float = 3e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
    )


def adam_step(params: Sequence[np.ndarray], grads: Sequence[np.ndarray], state: AdamState):
    """One Adam update, applied in place to params and state.

    Zero gradients leave parameters unchanged (bias-corrected moments stay zero).
    """
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError(
            f"param/grad/state length mismatch: {len(params)}/{len(grads)}/{len(state.m)}"
        )
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"shape mismatch: param {p.shape}, grad {g.shape}, moment {m.shape}")

    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params

