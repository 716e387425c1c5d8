"""Training checkpoints: one sealed container per run.

Bundles the policy, the networks and f8 arrays the learner class names in
`saved_nets` and `saved_arrays`, and the embedding stack when the failure
memory is on, as blobs of a sealed container (see `serialize`), whose CRC32
trailer is checked on load; a checkpoint written before files were sealed
is refused. The loader refuses a saved net or array whose shape differs
from the learner's `saved_widths` for the policy's widths, and ignores
blobs the learner does not name. The failure memory snapshots to its own
file next to the checkpoint; the metadata records whether one is expected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import embedding, serialize
from .agents import AGENTS
from .agents.policy import GaussianPolicy
from .errors import CoherenceError, SerializationError

FORMAT_NAME = "fema-checkpoint"
FORMAT_VERSION = 1


@dataclass
class CheckpointData:
    algo: str
    env: str
    step: int
    fema_on: bool
    policy: GaussianPolicy
    nets: dict          # name -> Mlp, the learner's `saved_nets`
    arrays: dict        # name -> float64 array, the learner's `saved_arrays`
    stack: Optional[embedding.EmbeddingStack]


def save_checkpoint(path, agent, env_name: str, step: int) -> None:
    """Write the agent's learnable state to one file."""
    blobs = {}
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "algo": agent.algo,
        "env": env_name,
        "step": int(step),
        "d_s": int(agent.spec.d_s),
        "d_a": int(agent.spec.d_a),
        "fema_on": agent.memory is not None,
    }
    blobs["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")
    blobs["policy"] = agent.policy.to_bytes()
    for name in agent.saved_nets:
        blobs[name] = serialize.mlp_to_bytes(getattr(agent, name))
    for name in agent.saved_arrays:
        blobs[name] = getattr(agent, name).astype("<f8").tobytes()
    if agent.stack is not None:
        blobs["stack"] = embedding.stack_to_bytes(agent.stack)
    serialize.save_blobs(path, blobs)


def load_checkpoint(path) -> CheckpointData:
    blobs = serialize.load_blobs(path)
    meta = serialize.read_meta(blobs, FORMAT_NAME, FORMAT_VERSION)
    try:
        _check_meta(meta, has_stack="stack" in blobs)
        learner = AGENTS[meta["algo"]]
        nets = {name: serialize.mlp_from_bytes(blobs[name])
                for name in learner.saved_nets}
        arrays = {name: np.frombuffer(blobs[name], dtype="<f8").copy()
                  for name in learner.saved_arrays}
        policy = GaussianPolicy.from_bytes(blobs["policy"])
        stack = None
        if "stack" in blobs:
            stack = embedding.stack_from_bytes(blobs["stack"])
        _check_widths(meta, policy, stack)
        _check_saved(learner, policy, nets, arrays)
        return CheckpointData(
            algo=meta["algo"],
            env=meta["env"],
            step=meta["step"],
            fema_on=meta["fema_on"],
            policy=policy,
            nets=nets,
            arrays=arrays,
            stack=stack,
        )
    except (KeyError, ValueError) as exc:
        raise SerializationError(
            f"unreadable checkpoint metadata or blob: {exc!r}") from exc


def _check_meta(meta: dict, has_stack: bool) -> None:
    """Refuse metadata that describes no learner, step, env or memory state."""
    algo, step, env, fema_on = (meta["algo"], meta["step"], meta["env"],
                                meta["fema_on"])
    if not (isinstance(algo, str) and algo in AGENTS):
        raise SerializationError(
            f"checkpoint algo {algo!r} is not a learner; choices: {sorted(AGENTS)}")
    if isinstance(step, bool) or not isinstance(step, int) or step < 0:
        raise SerializationError(
            f"checkpoint step {step!r} is not a non-negative integer")
    if not isinstance(env, str):
        raise SerializationError(f"checkpoint env {env!r} is not a name")
    if not isinstance(fema_on, bool):
        raise SerializationError(f"checkpoint fema_on {fema_on!r} is not a bool")
    if fema_on != has_stack:
        raise SerializationError(
            f"checkpoint fema_on={fema_on} disagrees with its stack blob "
            f"(present: {has_stack})")


def _check_widths(meta: dict, policy: GaussianPolicy, stack) -> None:
    """Refuse metadata or a stack whose env widths are not the policy's."""
    for key in ("d_s", "d_a"):
        want = getattr(policy, key)
        found = [("meta", meta[key])]
        if stack is not None:
            found.append(("stack", getattr(stack, key)))
        for part, width in found:
            if type(width) is not int or width != want:
                raise SerializationError(
                    f"checkpoint {part} {key}={width!r} is not the policy's "
                    f"{key}={want}")


def _check_saved(learner, policy: GaussianPolicy, nets: dict,
                 arrays: dict) -> None:
    """Refuse a saved net or array whose shape is not the one the learner
    declares for the policy's widths."""
    want = learner.saved_widths(policy.d_s, policy.d_a, policy.trunk.out_dim)
    for name, net in nets.items():
        if net.widths != want[name]:
            raise SerializationError(
                f"checkpoint {name} blob has widths {net.widths}, expected "
                f"{want[name]}")
    for name, arr in arrays.items():
        if arr.shape != (want[name],):
            raise SerializationError(
                f"checkpoint {name} blob holds {arr.size} floats, expected "
                f"{want[name]}")


def check_env_match(ckpt: CheckpointData, spec) -> None:
    """Reject evaluation against an env whose widths differ from training."""
    if ckpt.policy.d_s != spec.d_s or ckpt.policy.d_a != spec.d_a:
        raise CoherenceError(
            f"checkpoint expects d_s={ckpt.policy.d_s}, d_a={ckpt.policy.d_a}"
            f" but env {spec.name!r} has d_s={spec.d_s}, d_a={spec.d_a}")
