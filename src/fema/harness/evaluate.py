"""Deterministic checkpoint evaluation: mean policy, no failure memory."""

from __future__ import annotations

import numpy as np

from .. import checkpoint
from ..errors import UsageError
from ..envs import make
from ..envs.runner import eval_episode


def cmd_eval(ckpt_path, env_name: str, episodes: int, seed: int) -> list:
    """Roll out the checkpointed policy; returns per-episode rows."""
    if episodes < 1:
        raise UsageError(f"eval needs at least 1 episode, got {episodes}")
    if seed < 0:
        raise UsageError(f"eval needs a seed >= 0, got {seed}")
    data = checkpoint.load_checkpoint(ckpt_path)
    env = make(env_name, np.random.default_rng([seed, 5]))
    checkpoint.check_env_match(data, env.spec)
    rows = []
    for index in range(episodes):
        rec = eval_episode(data.policy, env)
        rows.append({"episode": index, "return": rec.return_,
                     "length": rec.length, "end": rec.end})
    return rows


def format_table(rows: list) -> str:
    lines = ["episode  return       length  end"]
    for row in rows:
        lines.append(f"{row['episode']:>7d}  {row['return']:>11.4f}  "
                     f"{row['length']:>6d}  {row['end']}")
    if rows:
        returns = np.array([row["return"] for row in rows])
        lengths = np.array([row["length"] for row in rows])
        lines.append(f"mean     {returns.mean():>11.4f}  "
                     f"{lengths.mean():>6.1f}")
    return "\n".join(lines)
