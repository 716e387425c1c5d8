"""Training checkpoints: one binary container per run.

Bundles the policy, the learner's auxiliary networks and the embedding stack
when the failure memory is on, all in the named-blob container format. The
failure memory itself snapshots to its own file next to the checkpoint; the
metadata records whether one is expected. Files from older writers may carry
an `rng` blob of generator states; loading ignores it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import embedding, serialize
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
    nets: dict          # name -> Mlp (critics / value net)
    log_alpha: Optional[np.ndarray]
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
    if agent.algo == "sac":
        for name in ("q1", "q2", "q1t", "q2t"):
            blobs[name] = serialize.mlp_to_bytes(getattr(agent, name))
        blobs["log_alpha"] = agent.log_alpha.astype("<f8").tobytes()
    else:
        blobs["vnet"] = serialize.mlp_to_bytes(agent.vnet)
    if agent.stack is not None:
        blobs["stack"] = embedding.stack_to_bytes(agent.stack)
    serialize.save_blobs(path, blobs)


def load_checkpoint(path) -> CheckpointData:
    blobs = serialize.load_blobs(path)
    try:
        meta = json.loads(blobs["meta"].decode("utf-8"))
        if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
            raise SerializationError(f"not a checkpoint file: {path}")
        if meta.get("version") != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported checkpoint version {meta.get('version')}")
        nets = {}
        log_alpha = None
        if meta["algo"] == "sac":
            for name in ("q1", "q2", "q1t", "q2t"):
                nets[name] = serialize.mlp_from_bytes(blobs[name])
            log_alpha = np.frombuffer(blobs["log_alpha"], dtype="<f8").copy()
        else:
            nets["vnet"] = serialize.mlp_from_bytes(blobs["vnet"])
        stack = None
        if "stack" in blobs:
            stack = embedding.stack_from_bytes(blobs["stack"])
        return CheckpointData(
            algo=meta["algo"],
            env=meta["env"],
            step=meta["step"],
            fema_on=meta["fema_on"],
            policy=GaussianPolicy.from_bytes(blobs["policy"]),
            nets=nets,
            log_alpha=log_alpha,
            stack=stack,
        )
    except (KeyError, ValueError) as exc:
        raise SerializationError(
            f"unreadable checkpoint metadata or blob: {exc!r}") from exc


def check_env_match(ckpt: CheckpointData, spec) -> None:
    """Reject evaluation against an env whose widths differ from training."""
    if ckpt.policy.d_s != spec.d_s or ckpt.policy.d_a != spec.d_a:
        raise CoherenceError(
            f"checkpoint expects d_s={ckpt.policy.d_s}, d_a={ckpt.policy.d_a}"
            f" but env {spec.name!r} has d_s={spec.d_s}, d_a={spec.d_a}")
