"""Training checkpoints: one sealed file of parameter vectors per run.

Format 2 is a sealed container (see `serialize`): a JSON `meta` blob and one
`<f8` blob per parameter vector. The meta names the learner (`algo`), env,
step and whether the failure memory is on (`fema_on`), and holds each width
once: `d_s`, `d_a`, the policy width `hidden`, the policy's `squash`,
`scale` and `state_dependent_std`, and with the memory on a `stack` object
of the embedding stack's `d_z`, `d_z_a`, `d_phi`, `version` and Adam `lr`.
The blobs are `policy.trunk`, `policy.mean`, `policy.logstd` (head or free
vector), each name in the learner's `saved_widths` in its order, and with
the memory on `stack.f`, `stack.g`, `stack.j`, `stack.h`; the policy's and
the stack's blobs are the views of their one parameter vectors.

The loader rebuilds each net over its own blob, with the widths the meta
and `saved_widths` give and the activations `policy_init`, `mlp_init` and
`stack_init` use (agents build the stack at the policy's width), so a blob
that does not fit is refused and no array is sized from the meta alone. It
ignores blobs it does not name and refuses format 1. A loaded stack gets a
fresh Adam state at the saved `lr`. The failure memory snapshots to its own
file next to the checkpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import embedding, numeric, serialize
from .agents import AGENTS
from .agents.policy import SQUASHES, GaussianPolicy
from .errors import CoherenceError, SerializationError, ShapeError

FORMAT_NAME = "fema-checkpoint"
FORMAT_VERSION = 2
STACK_NETS = ("f", "g", "j", "h")


@dataclass
class CheckpointData:
    algo: str
    env: str
    step: int
    fema_on: bool
    policy: GaussianPolicy
    nets: dict          # name -> Mlp, the learner's saved nets
    arrays: dict        # name -> float64 array, the learner's saved arrays
    stack: Optional[embedding.EmbeddingStack]


def save_checkpoint(path, agent, env_name: str, step: int) -> None:
    """Write the agent's learnable state to one file."""
    policy, stack = agent.policy, agent.stack
    meta = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "algo": agent.algo,
            "env": env_name, "step": int(step), "fema_on": agent.memory is not None,
            "d_s": policy.d_s, "d_a": policy.d_a, "hidden": policy.trunk.out_dim,
            "squash": policy.squash, "scale": policy.scale.tolist(),
            "state_dependent_std": policy.logstd_head is not None}
    vectors = dict(zip(("policy.trunk", "policy.mean", "policy.logstd"),
                       policy.split(policy.flat)))
    for name, widths in agent.saved_widths(policy.d_s, policy.d_a,
                                           policy.trunk.out_dim).items():
        value = getattr(agent, name)
        vectors[name] = value.flat if isinstance(widths, list) else value
    if stack is not None:
        meta["stack"] = {"d_z": stack.d_z, "d_z_a": stack.d_z_a,
                         "d_phi": stack.d_phi, "version": stack.version,
                         "lr": stack.adam.lr}
        vectors.update((f"stack.{name}", getattr(stack, name).flat)
                       for name in STACK_NETS)
    serialize.save_blobs(path, {
        "meta": json.dumps(meta, sort_keys=True).encode("utf-8"),
        **{name: np.ascontiguousarray(vec, "<f8") for name, vec in vectors.items()}})


def load_checkpoint(path) -> CheckpointData:
    blobs = serialize.load_blobs(path)
    meta = serialize.read_meta(blobs, FORMAT_NAME, FORMAT_VERSION)
    try:
        _check_meta(meta, any(f"stack.{name}" in blobs for name in STACK_NETS))
        d_s, d_a, hidden = meta["d_s"], meta["d_a"], meta["hidden"]
        dependent = meta["state_dependent_std"]
        policy = GaussianPolicy(
            trunk=_part(blobs, "policy.trunk", [d_s, hidden, hidden], ["tanh", "tanh"]),
            mean_head=_part(blobs, "policy.mean", [hidden, d_a]),
            logstd_head=_part(blobs, "policy.logstd", [hidden, d_a]) if dependent else None,
            logstd_vec=None if dependent else _part(blobs, "policy.logstd", d_a),
            squash=meta["squash"], scale=np.array(meta["scale"]))
        want = AGENTS[meta["algo"]].saved_widths(d_s, d_a, hidden)
        saved = {name: _part(blobs, name, widths) for name, widths in want.items()}
        stack = None
        if meta["fema_on"]:
            dims = meta["stack"]
            widths = embedding.stack_widths(d_s, d_a, dims["d_z"], dims["d_z_a"],
                                            dims["d_phi"], hidden)
            stack = embedding.EmbeddingStack(
                **{name: _part(blobs, f"stack.{name}", w) for name, w in widths.items()},
                adam=None, version=dims["version"])
            stack.adam = numeric.adam_init(stack.flat, lr=dims["lr"])
        return CheckpointData(
            algo=meta["algo"], env=meta["env"], step=meta["step"],
            fema_on=meta["fema_on"], policy=policy,
            nets={k: v for k, v in saved.items() if isinstance(want[k], list)},
            arrays={k: v for k, v in saved.items() if isinstance(want[k], int)},
            stack=stack)
    except KeyError as exc:
        raise SerializationError(f"checkpoint metadata lacks {exc}") from exc


def _check_meta(meta: dict, has_stack: bool) -> None:
    """Refuse metadata that describes no learner, step, env, policy or
    memory state."""
    algo, env, fema_on = meta["algo"], meta["env"], meta["fema_on"]
    if not (isinstance(algo, str) and algo in AGENTS):
        raise SerializationError(
            f"checkpoint algo {algo!r} is not a learner; choices: {sorted(AGENTS)}")
    if not isinstance(env, str):
        raise SerializationError(f"checkpoint env {env!r} is not a name")
    _check_int(meta, "step", 0)
    for key in ("d_s", "d_a", "hidden"):
        _check_int(meta, key, 1)
    if meta["squash"] not in SQUASHES:
        raise SerializationError(
            f"checkpoint squash {meta['squash']!r} is not a squashing convention")
    scale, d_a = meta["scale"], meta["d_a"]
    if not (isinstance(scale, list) and len(scale) == d_a
            and all(type(x) is float and 0 < x < math.inf for x in scale)):
        raise SerializationError(
            f"checkpoint scale {scale!r} is not d_a={d_a} positive finite floats")
    for key in ("fema_on", "state_dependent_std"):
        if not isinstance(meta[key], bool):
            raise SerializationError(f"checkpoint {key} {meta[key]!r} is not a bool")
    if fema_on != has_stack:
        raise SerializationError(
            f"checkpoint fema_on={fema_on} disagrees with its stack blobs "
            f"(present: {has_stack})")
    if fema_on:
        dims = meta["stack"]
        if not isinstance(dims, dict):
            raise SerializationError(
                f"checkpoint stack metadata is not an object: {dims!r}")
        for key in ("d_z", "d_z_a", "d_phi"):
            _check_int(dims, key, 1, "stack ")
        _check_int(dims, "version", 0, "stack ")
        lr = dims["lr"]
        if type(lr) not in (int, float) or not 0 < lr < math.inf:
            raise SerializationError(
                f"checkpoint stack lr must be finite and positive, got {lr!r}")


def _check_int(meta: dict, key: str, least: int, part: str = "") -> None:
    value = meta[key]
    if type(value) is not int or value < least:
        raise SerializationError(
            f"checkpoint {part}{key} {value!r} is not an integer >= {least}")


def _part(blobs: dict, name: str, widths, acts=None):
    """A copy of blob `name`: an `Mlp` over it for a list of layer `widths`
    (activations `acts`, by default `numeric.default_acts`), or a float64
    vector for an int, its length."""
    data = blobs.get(name)
    if data is None or len(data) % 8:
        raise SerializationError(
            f"checkpoint {name} blob is missing or not whole <f8 values")
    vec = np.frombuffer(data, "<f8").astype(np.float64)
    if isinstance(widths, int):
        if vec.shape != (widths,):
            raise SerializationError(
                f"checkpoint {name} blob holds {vec.size} floats, expected {widths}")
        return vec
    try:
        return numeric.Mlp(widths, acts or numeric.default_acts(len(widths) - 1), vec)
    except ShapeError as exc:
        raise SerializationError(
            f"checkpoint {name} blob does not fit widths {widths}: {exc}") from exc


def check_env_match(ckpt: CheckpointData, spec) -> None:
    """Reject evaluation against an env whose widths differ from training."""
    if ckpt.policy.d_s != spec.d_s or ckpt.policy.d_a != spec.d_a:
        raise CoherenceError(
            f"checkpoint expects d_s={ckpt.policy.d_s}, d_a={ckpt.policy.d_a}"
            f" but env {spec.name!r} has d_s={spec.d_s}, d_a={spec.d_a}")
