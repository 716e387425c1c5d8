"""Learned state/action embedding stack with a risk head.

Four small dense networks: a state encoder, an action encoder, a joint
embedder over their concatenated outputs, and a scalar risk head. The whole
stack trains end-to-end by regressing the risk output onto negated
z-score-normalized discounted returns of stored failure tails, so a higher
risk value means the pair resembles transitions that led to early
termination.

A training step has two shares: the state encoder, joint embedder and risk
head, and the action share (`_ActionHalf`: the minibatch's targets and the
action encoder), which meet three times a step (`_MEETINGS`). `train_risk`
runs both in the calling process, or, for a fit of FORK_STEPS minibatch
steps or more where `forking.can_pair()`, hands the action share and Adam
on the action encoder and joint embedder to a helper forked beside it.
Each side runs the array operations of the one-process step on the same
operands, and Adam is elementwise, so parameters, moments, losses and
every output byte are the same either way.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from . import forking, numeric
from .errors import ShapeError, TrainingError, UsageError

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
    more runs each step in two processes where `forking.can_pair()` gives
    it a second CPU, and leaves the same bytes.
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
    # the action share walks the same minibatches, drawn from a copy of rng
    theirs = _minibatches(copy.deepcopy(rng), n, epochs, batch_size)
    mine = _minibatches(rng, n, epochs, batch_size)
    if steps < FORK_STEPS or not forking.can_pair():
        grad = np.empty_like(stack.flat)
        acts = _ActionHalf(stack, actions, returns, theirs, grad, ())
        final = _fit(stack, states, mine, forking.InLine(acts, _MEETINGS), grad,
                     (slice(None),))
    else:
        final = _fit_beside(stack, states, actions, returns, mine, min(batch_size, n), theirs)
    stack.version += 1
    return final


def _minibatches(rng: np.random.Generator, n: int, epochs: int, batch_size: int):
    """Each epoch's minibatches (arrays of row indices), in training order."""
    for _ in range(epochs):
        order = rng.permutation(n)
        yield [order[start:start + batch_size] for start in range(0, n, batch_size)]


class _ActionHalf:
    """The action share of each step, as `_MEETINGS` meets it: the
    minibatch's targets, the action encoder g forward and then backward into
    its view of `grad`, and Adam step t on the `own` parts of the stack's
    vector, over the minibatches of `epochs`, its own iterator."""

    def __init__(self, stack: EmbeddingStack, actions, returns, epochs, grad, own: tuple):
        self.stack, self.actions, self.returns = stack, actions, returns
        self.grad, self.out, self.own = grad, stack.split(grad)[1], own
        self.steps = (idx for batches in epochs for idx in batches)
        self.t = stack.adam.t
        self.targets()

    def encode(self) -> tuple:
        """(z_a, targets) of this step; StopIteration after the last step."""
        if self.next is None:
            raise StopIteration
        self.idx = self.next
        z_a, self.cache = numeric.forward(self.stack.g, self.actions[self.idx])
        return z_a, self.y

    def targets(self) -> None:
        """The next step, and its targets: returns normalized, or 0 for one row."""
        idx = self.next = next(self.steps, None)
        if idx is not None:
            self.y = normalize_returns(self.returns[idx]) if idx.size > 1 else np.zeros(idx.size)

    def learn(self, d_z_a: np.ndarray) -> None:
        numeric.backward(self.stack.g, self.cache, d_z_a[:self.idx.size], out=self.out)
        self.t += 1
        _adam(self.stack, self.grad, self.own, self.t)


# A step's meetings (`forking.pair`), in order: the `_ActionHalf` step, the
# `Shared` slots of what the other share posts to it, and of its answer.
# The next targets are worked out during the other share's joint pass.
_MEETINGS = (("encode", (), ("z_a", "y")),
             ("targets", (), ()),
             ("learn", ("d_z_a",), ()))
_ENCODE, _TARGETS, _LEARN = range(3)


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
    and Adam on the `own` parts of the vector; `acts`, an end of the
    `_ActionHalf` handshake, gives the targets and z_a and takes d z_a."""
    outs = stack.split(grad)
    for batches in epochs:
        losses = []
        for idx in batches:
            z_s, cache_f = numeric.forward(stack.f, states[idx])
            z_a, y = acts.take(_ENCODE)
            loss, d_cat = _joint(stack, z_s, z_a[:idx.size], y[:idx.size], outs)
            if not np.isfinite(loss):
                raise TrainingError("risk loss diverged to NaN/Inf")
            acts.post(_LEARN, d_cat[:, stack.d_z:])
            numeric.backward(stack.f, cache_f, d_cat[:, : stack.d_z], out=outs[0])
            t = stack.adam.t + 1
            _adam(stack, grad, own, t)
            stack.adam.t = t
            losses.append(loss)
    return float(np.mean(losses))


def _fit_beside(stack, states, actions, returns, mine, batch_size: int, theirs) -> float:
    """`_fit` over `mine`, with the `_ActionHalf` over `theirs` (and Adam on
    g and j) in a helper forked through `forking.pair`, the stack's vector,
    moments and gradient on the shared mapping. The stack gets its own
    arrays back, trained, also on an error."""
    p, d_z_a = stack.flat.size, stack.d_z_a
    shared = forking.Shared(flat=(p,), m=(p,), v=(p,), grad=(p,), z_a=(batch_size, d_z_a),
                            d_z_a=(batch_size, d_z_a), y=(batch_size,))
    flat, adam = stack.flat, stack.adam
    shared.flat[:], shared.m[:], shared.v[:] = flat, adam.m, adam.v
    stack.bind(shared.flat)
    stack.adam = numeric.AdamState(shared.m, shared.v, adam.t, adam.lr)
    g_at = stack.f.flat.size
    h_at = g_at + stack.g.flat.size + stack.j.flat.size
    try:
        acts = _ActionHalf(stack, actions, returns, theirs, shared.grad, (slice(g_at, h_at),))
        return forking.pair(
            "risk helper", acts, _MEETINGS, shared,
            lambda away: _fit(stack, states, mine, away, shared.grad,
                              (slice(0, g_at), slice(h_at, None))))
    finally:
        flat[:], adam.m[:], adam.v[:] = shared.flat, shared.m, shared.v
        adam.t = stack.adam.t
        stack.bind(flat)
        stack.adam = adam
