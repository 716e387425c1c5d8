"""Risk-aware action selection.

Each decision encodes the state and retrieves the remembered failure rows
near it. On a hit the policy runs once and draws a batch of candidate
actions in one go; each candidate is scored by how far its joint embedding
sits from the retrieved rows, minus a weighted risk estimate, and the
top-scoring candidate is executed. When nothing relevant is remembered one
plain policy draw passes through untouched, which keeps the agent
bit-identical to its baseline away from known hazards. The batch uses the
random stream exactly as the same number of plain draws would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embedding
from .errors import CoherenceError, UsageError
from .memory import AGGREGATORS, FailureMemory, FemaConfig, Generation


@dataclass
class ScoredCandidate:
    action: np.ndarray
    distance: float   # aggregated l2 gap to the retrieved embeddings
    risk: float       # risk head output for this candidate
    score: float      # distance - risk_weight * risk


@dataclass
class SelectionTrace:
    """What one decision did."""

    candidates: list  # ScoredCandidate per draw; empty on a fallback
    chosen: int       # index of the executed candidate (0 on a fallback)
    fallback: bool    # retrieval was empty, the plain draw passed through
    cold: bool        # nothing was published yet


def score_candidates(
    s: np.ndarray,
    candidates: list,
    records: Generation,
    stack: embedding.EmbeddingStack,
    risk_weight: float,
    aggregator: str = "mean",
) -> list:
    """Score candidate actions (a list, or an (n, d_a) array) against the
    retrieved failure rows."""
    if not records:
        raise UsageError("score_candidates requires a non-empty retrieval")
    if records.version != stack.version:
        raise CoherenceError(
            f"record embedding version {records.version} does not match "
            f"stack version {stack.version}"
        )
    if aggregator not in AGGREGATORS:
        raise UsageError(f"unknown aggregator {aggregator!r}")
    z_s = embedding.encode_state(stack, s)
    acts = np.asarray(candidates, dtype=np.float64)
    z_a = embedding.encode_action(stack, acts)
    phi = embedding.joint_embed(stack, np.tile(z_s, (len(candidates), 1)), z_a)
    rho = np.atleast_1d(embedding.risk(stack, phi))
    # gaps[i, j]: l2 distance from candidate i to retrieved row j
    gaps = np.sqrt(np.sum((records.phi[None, :, :] - phi[:, None, :]) ** 2, axis=2))
    dist = getattr(gaps, aggregator)(axis=1)
    score = dist - risk_weight * rho
    return [ScoredCandidate(*c) for c in
            zip(acts, dist.tolist(), rho.tolist(), score.tolist())]


def select(
    s: np.ndarray,
    policy,
    mem: FailureMemory,
    stack: embedding.EmbeddingStack,
    cfg: FemaConfig,
    rng: np.random.Generator,
):
    """Pick an action for state s, steering around remembered failures.

    Returns (action, SelectionTrace). On a hit the best of one batch of
    cfg.n_candidates policy draws is returned; with an empty or cold
    retrieval the single plain policy draw is returned unscored (fallback).
    """
    z_s = embedding.encode_state(stack, s)
    result = mem.retrieve(z_s, cfg)
    if not result.records:
        return policy.sample(s, rng), SelectionTrace(
            candidates=[], chosen=0, fallback=True, cold=result.cold)
    scored = score_candidates(s, policy.sample(s, rng, cfg.n_candidates),
                              result.records, stack, cfg.risk_weight, cfg.aggregator)
    chosen = int(np.argmax([c.score for c in scored]))  # lowest index on ties
    return scored[chosen].action, SelectionTrace(
        candidates=scored, chosen=chosen, fallback=False, cold=False)
