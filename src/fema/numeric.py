"""Minimal dense-network engine: MLPs with analytic gradients and Adam updates.

A network's parameters are one float64 vector, `Mlp.flat`, laid out layer by
layer as W (row-major) then b; a checkpoint stores it as is. Layer `w` and `b`
are views into it, and backward() returns one gradient vector in the same
layout. Forward/backward are purely functional over explicit parameter values.
A layer's activation is tanh or identity; backward() takes only a batched
forward pass. A learner of several parts keeps them as views of one
vector (split, bind; `OneVector`). Adam steps one array; it is
elementwise, so a step on a vector equals steps on its slices, bit for
bit. Adam's beta1, beta2 and eps are the constants ADAM_*.

forward(), backward() and input_grad() write only arrays they create (and
backward()'s `out`), running each elementwise step in place with the bits of
the plain expression, so a batched layer holds its input and one new array.
adam_step() writes only the parameters and the state passed in, so
concurrent workers are safe as long as each owns its parameter copy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

ACTIVATIONS = ("tanh", "identity")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Layer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    act: str


class Mlp:
    """Dense network over one parameter vector; `layers` are views into `flat`."""

    def __init__(self, widths: Sequence[int], acts: Sequence[str], flat: np.ndarray):
        self.widths = list(widths)
        self.acts = list(acts)
        self.flat = flat
        sizes = [(n_in + 1) * n_out for n_in, n_out in zip(self.widths, self.widths[1:])]
        if len(self.acts) != len(sizes) or flat.shape != (sum(sizes),):
            raise ShapeError(f"parameter vector of shape {flat.shape} does not fit "
                             f"widths {self.widths} with {len(self.acts)} activations")
        self.layers = []
        off = 0
        for n_in, n_out, act in zip(self.widths, self.widths[1:], self.acts):
            w = flat[off:off + n_in * n_out].reshape(n_out, n_in)
            off += n_in * n_out
            self.layers.append(Layer(w, flat[off:off + n_out], act))
            off += n_out

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def copy(self) -> "Mlp":
        return Mlp(self.widths, self.acts, self.flat.copy())

    def __reduce__(self):
        """Pickle as (widths, acts, flat): unpickled `layers` view `flat`."""
        return Mlp, (self.widths, self.acts, self.flat)


@dataclass
class ForwardCache:
    """Per-layer inputs and post-activations kept for backward()."""

    inputs: list
    outputs: list
    mlp_id: int


SINGLE = ForwardCache((), (), -1)  # the cache of every 1-d forward pass


def _values(part) -> np.ndarray:
    return part.flat if isinstance(part, Mlp) else part


def split(vec: np.ndarray, parts: Sequence) -> list:
    """Consecutive views of `vec`, one per part (a network or a plain
    vector), each of the part's size."""
    sizes = [_values(part).size for part in parts]
    return [vec[end - size:end] for size, end in zip(sizes, accumulate(sizes))]


def bind(parts: Sequence, flat: np.ndarray) -> list:
    """`parts` remade over their views of `flat`: a network as an `Mlp`
    over its view, a plain vector as the view itself."""
    return [Mlp(part.widths, part.acts, view) if isinstance(part, Mlp) else view
            for part, view in zip(parts, split(flat, parts))]


class OneVector:
    """Mixin of a dataclass whose parts, the attributes that _part_names()
    names (networks and plain vectors), are views of one parameter vector,
    `flat`, laid out in that order."""

    def __post_init__(self):
        self.bind(np.concatenate([_values(part) for part in self._parts()]))

    def __reduce__(self):
        """Pickle (and deep-copy) as the fields, so that the parts of the
        copy are views of its own `flat`."""
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def _parts(self) -> list:
        return [getattr(self, name) for name in self._part_names()]

    def bind(self, flat: np.ndarray) -> None:
        """Make `flat` the parameter vector, and the parts views of it."""
        for name, part in zip(self._part_names(), bind(self._parts(), flat)):
            setattr(self, name, part)
        self.flat = flat

    def split(self, vec: np.ndarray) -> list:
        """Views of `vec`, laid out like `flat`: one per part."""
        return split(vec, self._parts())


def default_acts(n_layers: int) -> list:
    """tanh on hidden layers, identity on the output layer."""
    return ["tanh"] * (n_layers - 1) + ["identity"]


def mlp_init(widths: Sequence[int], seed, acts=None) -> Mlp:
    """Build an MLP with uniform fan-in initialization.

    Weights and biases of a layer with fan-in n are drawn i.i.d. from
    U(-1/sqrt(n), 1/sqrt(n)). Identical (widths, acts, seed) give
    bit-identical parameters.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise ConfigError(f"layer spec needs at least input and output width, got {widths}")
    if any(w < 1 for w in widths):
        raise ConfigError(f"layer widths must be >= 1, got {widths}")
    if acts is None:
        acts = default_acts(len(widths) - 1)
    if len(acts) != len(widths) - 1:
        raise ConfigError(f"{len(widths) - 1} layers but {len(acts)} activations")
    for a in acts:
        if a not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {a!r}")

    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=fan_out * fan_in))
        parts.append(rng.uniform(-bound, bound, size=fan_out))
    return Mlp(widths, acts, np.concatenate(parts))


def forward(mlp: Mlp, x: np.ndarray):
    """Run the network on a vector (d,) or batch (B, d).

    Returns (output, cache); a batch's cache feeds backward(). A vector runs
    1-d products, bit-equal to row 0 of the (1, d) batch, and shares the
    one `SINGLE` cache, which backward() refuses.
    """
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise ShapeError(f"input must be 1-D or 2-D, got ndim={x.ndim}")
    if x.shape[-1] != mlp.in_dim:
        raise ShapeError(f"input width {x.shape[-1]} != network input width {mlp.in_dim}")
    inputs, outputs = [], []
    for layer in mlp.layers:
        inputs.append(x)
        x = x @ layer.w.T
        x += layer.b
        if layer.act == "tanh":
            np.tanh(x, out=x)
        outputs.append(x)
    return x, SINGLE if x.ndim == 1 else ForwardCache(inputs, outputs, id(mlp))


def backward(mlp: Mlp, cache: ForwardCache, output_grad: np.ndarray, out=None):
    """Backpropagate loss gradients through a cached batched forward pass.

    Returns (grad, input_grad) where grad is one vector laid out like
    mlp.flat: `out` when given.
    """
    grad = np.empty_like(mlp.flat) if out is None else out
    return grad, _backprop(mlp, cache, output_grad, grad)


def input_grad(mlp: Mlp, cache: ForwardCache, output_grad: np.ndarray) -> np.ndarray:
    """backward()'s input gradient alone, bit-equal, skipping the parameter
    gradient's products."""
    return _backprop(mlp, cache, output_grad, None)


def _backprop(mlp: Mlp, cache: ForwardCache, output_grad, grad) -> np.ndarray:
    """Fills `grad` (unless None) and returns the input gradient."""
    if cache is SINGLE:
        raise UsageError("backward needs a batched forward pass; pass a (1, d) batch "
                         "for one sample")
    if cache.mlp_id != id(mlp) or len(cache.inputs) != len(mlp.layers):
        raise UsageError("cache does not belong to this network's forward pass")
    g = np.asarray(output_grad)
    if g.shape != cache.outputs[-1].shape:
        raise ShapeError(
            f"output_grad shape {g.shape} != forward output shape {cache.outputs[-1].shape}"
        )
    if grad is not None and grad.shape != mlp.flat.shape:
        raise ShapeError(f"gradient buffer shape {grad.shape} != {mlp.flat.shape}")

    end = mlp.flat.size
    for layer, x_in, a in zip(mlp.layers[::-1], cache.inputs[::-1], cache.outputs[::-1]):
        if layer.act == "tanh":  # g * (1.0 - a * a) in one temporary
            d = a * a
            g = np.multiply(g, np.subtract(1.0, d, out=d), out=d)
        n_out, n_in = layer.w.shape
        b_at, w_at = end - n_out, end - n_out - n_out * n_in
        if grad is not None:
            np.add.reduce(g, axis=0, out=grad[b_at:end])
            np.matmul(g.T, x_in, out=grad[w_at:b_at].reshape(n_out, n_in))
        end = w_at
        g = g @ layer.w
    return g


@dataclass
class AdamState:
    """First/second moment vectors plus step counter and step size."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float


def adam_init(params: np.ndarray, lr: float = 3e-4) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), t=0, lr=lr)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One Adam update, applied in place to params and state.

    Zero gradients leave parameters unchanged (bias-corrected moments stay zero).
    """
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ShapeError(f"shape mismatch: param {params.shape}, grad {grad.shape}, "
                         f"moment {state.m.shape}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    m, v = state.m, state.v
    # params -= lr * (m / c1) / (sqrt(v / c2) + eps), step by step in t and u
    t, u = np.empty_like(params), np.empty_like(params)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=t)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=t), grad, out=t)
    np.multiply(state.lr, np.divide(m, c1, out=t), out=t)
    np.sqrt(np.divide(v, c2, out=u), out=u)
    u += ADAM_EPS
    params -= np.divide(t, u, out=t)
    return params
