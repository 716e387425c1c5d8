"""Learned state/action embedding stack with a risk head.

Four small dense networks: a state encoder, an action encoder, a joint
embedder over their concatenated outputs, and a scalar risk head. The whole
stack trains end-to-end by regressing the risk output onto negated
z-score-normalized discounted returns of stored failure tails, so a higher
risk value means the pair resembles transitions that led to early
termination.

A training step has two shares: the state encoder, joint embedder and risk
head, and the action share (the minibatch's targets and the action
encoder). `train_risk` runs both in the calling process, or, for a fit of
FORK_STEPS minibatch steps or more where `forking.can_pair()` (a second CPU
on x86), hands the action share and Adam on the action encoder and joint
embedder to a helper forked beside it; the two meet on a `forking.Shared`
mapping. Each side runs the array operations of the one-process step on
the same operands, and Adam is elementwise, so parameters, moments, losses
and every output byte are the same either way.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import forking, numeric
from .errors import FemaError, ShapeError, TrainingError, UsageError

NORM_EPS = 1e-6
# Fewest minibatch steps of a train_risk call that forks its helper. On a
# 2-core x86 VM the fork paid for itself from about 64 steps at width 64 and
# 128 at width 32; an 8-step fit ran at 0.58x and 0.44x.
FORK_STEPS = 128


@dataclass
class EmbeddingStack(numeric.OneVector):
    """State encoder, action encoder, joint embedder, risk head, shared Adam.

    The four nets become views of one parameter vector, `flat`, laid out f,
    g, j, h, so the stack trains as one array. The widths d_s, d_a, d_z,
    d_z_a and d_phi are read from the nets f, g and j. `version` counts
    completed training rounds; consumers that cache embeddings compare it
    to decide whether a re-encode is due.
    """

    f: numeric.Mlp
    g: numeric.Mlp
    j: numeric.Mlp
    h: numeric.Mlp
    adam: numeric.AdamState
    version: int = 0

    d_s = property(lambda self: self.f.in_dim)
    d_z = property(lambda self: self.f.out_dim)
    d_a = property(lambda self: self.g.in_dim)
    d_z_a = property(lambda self: self.g.out_dim)
    d_phi = property(lambda self: self.j.out_dim)

    def _part_names(self) -> tuple:
        return "f", "g", "j", "h"


def stack_widths(d_s: int, d_a: int, d_z: int, d_z_a: int, d_phi: int,
                 hidden: int) -> dict:
    """Layer widths of each net f, g, j, h: two tanh hidden layers of width
    `hidden`, then a linear output."""
    return {"f": [d_s, hidden, hidden, d_z], "g": [d_a, hidden, hidden, d_z_a],
            "j": [d_z + d_z_a, hidden, hidden, d_phi], "h": [d_phi, hidden, hidden, 1]}


def stack_init(
    d_s: int,
    d_a: int,
    seed: int,
    d_z: int = 16,
    d_z_a: int = 8,
    d_phi: int = 32,
    hidden: int = 64,
    lr: float = 3e-4,
) -> EmbeddingStack:
    """Build a fresh stack; net k of f, g, j, h draws from seed + k."""
    widths = stack_widths(d_s, d_a, d_z, d_z_a, d_phi, hidden)
    nets = {name: numeric.mlp_init(w, seed=seed + k)
            for k, (name, w) in enumerate(widths.items())}
    stack = EmbeddingStack(**nets, adam=None)
    stack.adam = numeric.adam_init(stack.flat, lr=lr)
    return stack


def encode_state(stack: EmbeddingStack, s: np.ndarray) -> np.ndarray:
    out, _ = numeric.forward(stack.f, s)
    return out


def encode_action(stack: EmbeddingStack, a: np.ndarray) -> np.ndarray:
    out, _ = numeric.forward(stack.g, a)
    return out


def joint_embed(stack: EmbeddingStack, z_s: np.ndarray, z_a: np.ndarray) -> np.ndarray:
    z_s = np.asarray(z_s, dtype=np.float64)
    z_a = np.asarray(z_a, dtype=np.float64)
    if z_s.shape[-1] != stack.d_z or z_a.shape[-1] != stack.d_z_a:
        raise ShapeError(
            f"joint_embed expects widths ({stack.d_z}, {stack.d_z_a}), "
            f"got ({z_s.shape[-1]}, {z_a.shape[-1]})"
        )
    if z_s.ndim != z_a.ndim:
        raise ShapeError("state and action embeddings must both be single or both batched")
    out, _ = numeric.forward(stack.j, np.concatenate([z_s, z_a], axis=-1))
    return out


def risk(stack: EmbeddingStack, phi: np.ndarray):
    """Scalar hazard estimate for a joint embedding (batched: one per row)."""
    out, _ = numeric.forward(stack.h, phi)
    if out.ndim == 1:
        return float(out[0])
    return out[:, 0]


def risk_of_pair(stack: EmbeddingStack, s: np.ndarray, a: np.ndarray):
    """Convenience composition: risk(j(f(s), g(a)))."""
    return risk(stack, joint_embed(stack, encode_state(stack, s), encode_action(stack, a)))


def normalize_returns(h_batch: np.ndarray) -> np.ndarray:
    """Training targets: negated z-scores of the return batch.

    Population standard deviation with a 1e-6 additive guard, so a constant
    batch maps to all-zero targets instead of dividing by zero.
    """
    h_batch = np.asarray(h_batch, dtype=np.float64)
    if h_batch.ndim != 1:
        raise ShapeError(f"expected a flat return batch, got shape {h_batch.shape}")
    if h_batch.size == 0:
        raise UsageError("cannot normalize an empty return batch")
    if h_batch.size == 1:
        warnings.warn("size-1 return batch carries no learning signal", stacklevel=2)
    mu = h_batch.mean()
    sigma = h_batch.std()
    return -(h_batch - mu) / (sigma + NORM_EPS)


def risk_loss_and_grads(stack: EmbeddingStack, states, actions, targets):
    """Mean squared error of the risk head and its end-to-end gradients.

    Gradients flow through the head into the joint embedder and both
    encoders; the returned gradient is one vector laid out like stack.flat.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if states.ndim != 2 or actions.ndim != 2:
        raise ShapeError("risk training expects batched states and actions")
    if not (states.shape[0] == actions.shape[0] == targets.shape[0]):
        raise ShapeError("states, actions, and targets must have equal batch size")
    grad = np.empty_like(stack.flat)
    outs = stack.split(grad)
    z_s, cache_f = numeric.forward(stack.f, states)
    z_a, cache_g = numeric.forward(stack.g, actions)
    loss, d_cat = _joint(stack, z_s, z_a, targets, outs)
    numeric.backward(stack.f, cache_f, d_cat[:, : stack.d_z], out=outs[0])
    numeric.backward(stack.g, cache_g, d_cat[:, stack.d_z:], out=outs[1])
    return loss, grad


def _joint(stack: EmbeddingStack, z_s, z_a, targets, outs: list):
    """Forward the joint embedder and the risk head, and backward them into
    their views of `outs` (stack.split of the gradient); returns (loss,
    gradient of the loss in the joined [z_s, z_a])."""
    phi, cache_j = numeric.forward(stack.j, np.concatenate([z_s, z_a], axis=1))
    pred, cache_h = numeric.forward(stack.h, phi)
    err = pred[:, 0] - targets
    loss = float(np.mean(err * err))
    d_pred = (2.0 / targets.shape[0]) * err[:, None]
    _, d_phi = numeric.backward(stack.h, cache_h, d_pred, out=outs[3])
    _, d_cat = numeric.backward(stack.j, cache_j, d_phi, out=outs[2])
    return loss, d_cat


def train_risk(
    stack: EmbeddingStack,
    states,
    actions,
    returns,
    epochs: int = 50,
    batch_size: int = 64,
    rng: np.random.Generator | None = None,
):
    """Fit the stack to negated normalized returns over shuffled minibatches.

    Returns the mean loss of the final epoch, or None (with a warning) when
    called with no data. Targets are re-normalized within every minibatch.
    Refuses `epochs` or `batch_size` below 1 and row counts that differ
    before it changes the stack. A fit of FORK_STEPS minibatch steps or
    more runs each step in two processes where `forking.processes(2)` gives
    it a second CPU (on x86), and leaves the same bytes.
    """
    if epochs < 1 or batch_size < 1:
        raise UsageError(f"train_risk needs epochs >= 1 and batch_size >= 1, "
                         f"got {epochs} and {batch_size}")
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64).reshape(-1)
    n = returns.shape[0]
    if states.shape[:1] != (n,) or actions.shape[:1] != (n,):
        raise ShapeError(f"train_risk needs one state and action row per return, got "
                         f"states {states.shape}, actions {actions.shape}, {n} returns")
    if n == 0:
        warnings.warn("train_risk called with empty data; skipping", stacklevel=2)
        return None
    if rng is None:
        rng = np.random.default_rng(0)

    steps = epochs * -(-n // batch_size)
    if steps < FORK_STEPS or not forking.can_pair():
        grad = np.empty_like(stack.flat)
        final = _fit(stack, states, _minibatches(rng, n, epochs, batch_size),
                     _ActionHalf(stack, actions, returns, stack.split(grad)),
                     grad, (slice(None),))
    else:
        final = _fit_beside(stack, states, actions, returns,
                            _minibatches(rng, n, epochs, batch_size), min(batch_size, n))
    stack.version += 1
    return final


def _minibatches(rng: np.random.Generator, n: int, epochs: int, batch_size: int):
    """Each epoch's minibatches (arrays of row indices), in training order."""
    for _ in range(epochs):
        order = rng.permutation(n)
        yield [order[start:start + batch_size] for start in range(0, n, batch_size)]


def _targets(returns: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A minibatch's targets: its returns normalized, or 0 for one row."""
    return normalize_returns(returns[idx]) if idx.size > 1 else np.zeros(idx.size)


class _ActionHalf:
    """The share of a step that `_fit` hands off: the minibatch's targets,
    and the action encoder g, forward and then backward into its view of
    `outs`."""

    def __init__(self, stack: EmbeddingStack, actions, returns, outs: list):
        self.stack, self.actions, self.returns, self.out = stack, actions, returns, outs[1]

    def forward(self, idx: np.ndarray) -> tuple:
        """(z_a, targets) of the minibatch `idx`."""
        return self.encode(idx), _targets(self.returns, idx)

    def encode(self, idx: np.ndarray) -> np.ndarray:
        z_a, self.cache = numeric.forward(self.stack.g, self.actions[idx])
        return z_a

    def backward(self, d_z_a: np.ndarray) -> None:
        numeric.backward(self.stack.g, self.cache, d_z_a, out=self.out)


def _adam(stack: EmbeddingStack, grad: np.ndarray, parts: tuple, t: int) -> None:
    """Adam step t on each slice of `parts` of the stack's vector. Adam is
    elementwise, so the parts of a step are that step on the whole vector,
    bit for bit."""
    adam = stack.adam
    for part in parts:
        state = numeric.AdamState(adam.m[part], adam.v[part], t - 1, adam.lr)
        numeric.adam_step(stack.flat[part], grad[part], state)


def _fit(stack: EmbeddingStack, states, epochs, acts, grad, own: tuple) -> float:
    """Run the steps of `epochs` (as `_minibatches` yields them) and return
    the last epoch's mean loss. Here run the state encoder f, the joint pass
    and Adam on the `own` parts of the vector; `acts` gives the targets and
    z_a and takes d z_a."""
    outs = stack.split(grad)
    for batches in epochs:
        losses = []
        for idx in batches:
            z_s, cache_f = numeric.forward(stack.f, states[idx])
            z_a, y = acts.forward(idx)
            loss, d_cat = _joint(stack, z_s, z_a, y, outs)
            if not np.isfinite(loss):
                raise TrainingError("risk loss diverged to NaN/Inf")
            acts.backward(d_cat[:, stack.d_z:])
            numeric.backward(stack.f, cache_f, d_cat[:, : stack.d_z], out=outs[0])
            t = stack.adam.t + 1
            _adam(stack, grad, own, t)
            stack.adam.t = t
            losses.append(loss)
    return float(np.mean(losses))


def _fit_beside(stack, states, actions, returns, epochs, batch_size: int) -> float:
    """`_fit`, with a helper forked through `forking.beside` that runs the
    `_ActionHalf` of each step and Adam on g and j, while this process runs
    Adam on f and h. Both see the stack's vector, Adam's moments, the
    gradient and each step's z_a, targets and d z_a on one shared mapping,
    and each draws the minibatches from its own copy of `epochs`. They meet
    twice a step: this process waits for z_a, which the helper posts after
    its Adam update of the last step, and the helper waits for d z_a, which
    this process posts after its joint pass. The helper works out the next
    targets during the joint pass. The stack gets its own arrays back,
    trained, also on an error."""
    p, d_z_a = stack.flat.size, stack.d_z_a
    shared = forking.Shared(flat=(p,), m=(p,), v=(p,), grad=(p,), z_a=(batch_size, d_z_a),
                            d_z_a=(batch_size, d_z_a), y=(batch_size,))
    flat, adam = stack.flat, stack.adam
    shared.flat[:], shared.m[:], shared.v[:] = flat, adam.m, adam.v
    stack.bind(shared.flat)
    stack.adam = numeric.AdamState(shared.m, shared.v, adam.t, adam.lr)
    g_at = stack.f.flat.size
    h_at = g_at + stack.g.flat.size + stack.j.flat.size
    caller = os.getpid()
    try:
        final, _ = forking.beside(
            lambda check: _fit(stack, states, epochs, _Beside(shared, stack.adam.t, check),
                               shared.grad, (slice(0, g_at), slice(h_at, None))),
            {"risk helper": lambda: _help(stack, actions, returns, epochs, shared,
                                          (slice(g_at, h_at),), caller)})
    finally:
        flat[:], adam.m[:], adam.v[:] = shared.flat, shared.m, shared.v
        adam.t = stack.adam.t
        stack.bind(flat)
        stack.adam = adam
    return final


class _Beside:
    """`_fit`'s `acts` while the helper runs them: forward waits for the
    helper's z_a and targets, backward posts d z_a to it."""

    def __init__(self, shared: forking.Shared, t: int, check):
        self.shared, self.t, self.check = shared, t, check

    def forward(self, idx: np.ndarray) -> tuple:
        self.t += 1
        forking.wait(self.shared.ready, _Z_A, self.t, self.check)
        return self.shared.z_a[:idx.size], self.shared.y[:idx.size]

    def backward(self, d_z_a: np.ndarray) -> None:
        self.shared.d_z_a[:d_z_a.shape[0]] = d_z_a
        self.shared.ready[_D_Z_A] = self.t


def _help(stack, actions, returns, epochs, shared: forking.Shared, own: tuple,
          caller: int) -> None:
    """The helper's side of `_fit_beside`. For each step: post z_a and the
    targets, work out the next step's targets, wait for d z_a, then
    backward g and run Adam on the `own` parts."""
    def check():
        if os.getppid() != caller:
            raise FemaError("the process training the risk stack exited")

    acts = _ActionHalf(stack, actions, returns, stack.split(shared.grad))
    steps = (idx for batches in epochs for idx in batches)
    idx, t = next(steps), stack.adam.t
    y = _targets(returns, idx)
    while idx is not None:
        t += 1
        shared.z_a[:idx.size], shared.y[:idx.size] = acts.encode(idx), y
        shared.ready[_Z_A] = t
        after = next(steps, None)
        if after is not None:
            y = _targets(returns, after)
        forking.wait(shared.ready, _D_Z_A, t, check)
        acts.backward(shared.d_z_a[:idx.size])
        _adam(stack, shared.grad, own, t)
        idx = after


_Z_A, _D_Z_A = 0, 8   # the two step counters, a cache line apart
