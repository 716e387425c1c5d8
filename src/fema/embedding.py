"""Learned state/action embedding stack with a risk head.

Four small dense networks: a state encoder, an action encoder, a joint
embedder over their concatenated outputs, and a scalar risk head. The whole
stack trains end-to-end by regressing the risk output onto negated
z-score-normalized discounted returns of stored failure tails, so a higher
risk value means the pair resembles transitions that led to early
termination.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numeric, serialize
from .errors import SerializationError, ShapeError, TrainingError, UsageError

NORM_EPS = 1e-6


@dataclass
class EmbeddingStack:
    """State encoder, action encoder, joint embedder, risk head, shared Adam.

    The four nets become views of one parameter vector, `flat`, laid out f,
    g, j, h, so the stack trains as one array. `version` counts completed
    training rounds; consumers that cache embeddings compare it to decide
    whether a re-encode is due.
    """

    f: numeric.Mlp
    g: numeric.Mlp
    j: numeric.Mlp
    h: numeric.Mlp
    adam: numeric.AdamState
    d_s: int
    d_a: int
    d_z: int
    d_z_a: int
    d_phi: int
    version: int = 0
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nets = (self.f, self.g, self.j, self.h)
        self.flat = np.concatenate([net.flat for net in nets])
        self.f, self.g, self.j, self.h = (
            numeric.Mlp(net.widths, net.acts, view)
            for net, view in zip(nets, self.split(self.flat)))

    def params(self) -> list:
        """[flat]: the one parameter array (the vector itself, not a copy)."""
        return [self.flat]

    def split(self, vec: np.ndarray) -> list:
        """Views of `vec`, laid out like `flat`, one per net f, g, j, h."""
        views, off = [], 0
        for net in (self.f, self.g, self.j, self.h):
            views.append(vec[off:off + net.flat.size])
            off += net.flat.size
        return views


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
    """Build a fresh stack. Each net: two tanh hidden layers, linear output."""
    f = numeric.mlp_init([d_s, hidden, hidden, d_z], seed=seed)
    g = numeric.mlp_init([d_a, hidden, hidden, d_z_a], seed=seed + 1)
    j = numeric.mlp_init([d_z + d_z_a, hidden, hidden, d_phi], seed=seed + 2)
    h = numeric.mlp_init([d_phi, hidden, hidden, 1], seed=seed + 3)
    stack = EmbeddingStack(f=f, g=g, j=j, h=h, adam=None, d_s=d_s, d_a=d_a,
                           d_z=d_z, d_z_a=d_z_a, d_phi=d_phi)
    stack.adam = numeric.adam_init(stack.params(), lr=lr)
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
    encoders; the returned list, [one vector laid out like stack.flat],
    lines up with stack.params().
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if states.ndim != 2 or actions.ndim != 2:
        raise ShapeError("risk training expects batched states and actions")
    if not (states.shape[0] == actions.shape[0] == targets.shape[0]):
        raise ShapeError("states, actions, and targets must have equal batch size")
    batch = states.shape[0]

    z_s, cache_f = numeric.forward(stack.f, states)
    z_a, cache_g = numeric.forward(stack.g, actions)
    phi, cache_j = numeric.forward(stack.j, np.concatenate([z_s, z_a], axis=1))
    pred, cache_h = numeric.forward(stack.h, phi)
    err = pred[:, 0] - targets
    loss = float(np.mean(err * err))

    d_pred = (2.0 / batch) * err[:, None]
    grad = np.empty_like(stack.flat)
    out_f, out_g, out_j, out_h = stack.split(grad)
    _, d_phi = numeric.backward(stack.h, cache_h, d_pred, out=out_h)
    _, d_cat = numeric.backward(stack.j, cache_j, d_phi, out=out_j)
    numeric.backward(stack.f, cache_f, d_cat[:, : stack.d_z], out=out_f)
    numeric.backward(stack.g, cache_g, d_cat[:, stack.d_z:], out=out_g)
    return loss, [grad]


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
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64).reshape(-1)
    n = returns.shape[0]
    if n == 0:
        warnings.warn("train_risk called with empty data; skipping", stacklevel=2)
        return None
    if rng is None:
        rng = np.random.default_rng(0)

    final = 0.0
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            y = normalize_returns(returns[idx]) if idx.size > 1 else np.zeros(idx.size)
            loss, grads = risk_loss_and_grads(stack, states[idx], actions[idx], y)
            if not np.isfinite(loss):
                raise TrainingError("risk loss diverged to NaN/Inf")
            numeric.adam_step(stack.params(), grads, stack.adam)
            losses.append(loss)
        final = float(np.mean(losses))
    stack.version += 1
    return final


STACK_META_BLOB = "meta"
_NET_BLOBS = ("f", "g", "j", "h")


def stack_to_bytes(stack: EmbeddingStack) -> bytes:
    meta = {
        "d_s": stack.d_s, "d_a": stack.d_a, "d_z": stack.d_z,
        "d_z_a": stack.d_z_a, "d_phi": stack.d_phi,
        "version": stack.version, "lr": stack.adam.lr,
    }
    blobs = {STACK_META_BLOB: json.dumps(meta, sort_keys=True).encode("utf-8")}
    for name in _NET_BLOBS:
        blobs[name] = serialize.mlp_to_bytes(getattr(stack, name))
    return serialize.blobs_to_bytes(blobs)


def stack_from_bytes(data: bytes) -> EmbeddingStack:
    """Rebuild a stack snapshot. Optimizer moments are not persisted; the
    restored stack gets a fresh Adam state at the saved learning rate."""
    blobs = serialize.blobs_from_bytes(data)
    try:
        meta = json.loads(blobs[STACK_META_BLOB].decode("utf-8"))
        if not isinstance(meta, dict):
            raise SerializationError(f"embedding stack metadata is not an object: {meta!r}")
        dims = {k: meta[k] for k in ("d_s", "d_a", "d_z", "d_z_a", "d_phi", "version")}
        lr = meta["lr"]
        net_blobs = {name: blobs[name] for name in _NET_BLOBS}
    except (KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"unreadable embedding stack: {exc!r}") from exc
    if not all(type(v) is int for v in dims.values()):
        raise SerializationError(f"non-integer embedding stack widths: {dims}")
    if type(lr) not in (int, float) or not 0 < lr < math.inf:
        raise SerializationError(f"embedding stack lr must be finite and positive, got {lr!r}")
    nets = {name: serialize.mlp_from_bytes(b) for name, b in net_blobs.items()}
    d_z, d_z_a, d_phi = dims["d_z"], dims["d_z_a"], dims["d_phi"]
    for name, widths in (("f", (dims["d_s"], d_z)), ("g", (dims["d_a"], d_z_a)),
                         ("j", (d_z + d_z_a, d_phi)), ("h", (d_phi, 1))):
        serialize.expect_widths(nets[name], *widths, f"embedding net {name!r}")
    stack = EmbeddingStack(f=nets["f"], g=nets["g"], j=nets["j"], h=nets["h"],
                           adam=None, **dims)
    stack.adam = numeric.adam_init(stack.params(), lr=lr)
    return stack
