"""Risk-aware action selection.

At each decision the policy proposes several candidate actions. Remembered
failure rows near the current state pull up their joint embeddings; each
candidate is scored by how far its own embedding sits from those rows,
minus a weighted risk estimate. The top-scoring candidate is executed. When
nothing relevant is remembered the first plain policy draw passes through
untouched, which keeps the agent bit-identical to its baseline away from
known hazards.
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
    phi: np.ndarray
    distance: float   # aggregated l2 gap to the retrieved embeddings
    risk: float       # risk head output for this candidate
    score: float      # distance - risk_weight * risk


@dataclass
class SelectionTrace:
    """Per-decision diagnostics."""

    state: np.ndarray
    retrieved_ids: list
    candidates: list
    chosen: int
    fallback: bool
    cold: bool
    aggregator: str
    log_prob: float


def sample_candidates(policy, s: np.ndarray, n: int, rng: np.random.Generator) -> list:
    """Draw n independent actions from the policy at state s.

    Sequential draws, so n=1 consumes exactly the same random stream as the
    plain agent taking one step.
    """
    if n < 1:
        raise UsageError("candidate count must be >= 1")
    return [policy.sample(s, rng) for _ in range(n)]


def score_candidates(
    s: np.ndarray,
    candidates: list,
    records: Generation,
    stack: embedding.EmbeddingStack,
    risk_weight: float,
    aggregator: str = "mean",
) -> list:
    """Score each candidate action against the retrieved failure rows."""
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
    acts = np.stack([np.asarray(a, dtype=np.float64) for a in candidates])
    z_a = embedding.encode_action(stack, acts)
    phi = embedding.joint_embed(stack, np.tile(z_s, (len(candidates), 1)), z_a)
    rho = np.atleast_1d(embedding.risk(stack, phi))
    # gaps[i, j]: l2 distance from candidate i to retrieved row j
    gaps = np.sqrt(np.sum((records.phi[None, :, :] - phi[:, None, :]) ** 2, axis=2))
    dist = getattr(gaps, aggregator)(axis=1)
    score = dist - risk_weight * rho
    return [ScoredCandidate(*c) for c in
            zip(acts, phi, dist.tolist(), rho.tolist(), score.tolist())]


def select(
    s: np.ndarray,
    policy,
    mem: FailureMemory,
    stack: embedding.EmbeddingStack,
    cfg: FemaConfig,
    rng: np.random.Generator,
):
    """Pick an action for state s, steering around remembered failures.

    Returns (action, SelectionTrace). With an empty or cold retrieval the
    single plain policy draw is returned unscored (fallback).
    """
    z_s = embedding.encode_state(stack, s)
    result = mem.retrieve(z_s, cfg)
    scored, chosen = [], 0
    if result.records:
        candidates = sample_candidates(policy, s, cfg.n_candidates, rng)
        scored = score_candidates(s, candidates, result.records, stack,
                                  cfg.risk_weight, cfg.aggregator)
        # argmax takes the lowest index on ties
        chosen = int(np.argmax([c.score for c in scored]))
        action = scored[chosen].action
    else:
        action = policy.sample(s, rng)
    trace = SelectionTrace(
        state=s, retrieved_ids=result.ids(), candidates=scored, chosen=chosen,
        fallback=not result.records, cold=result.cold,
        aggregator=cfg.aggregator, log_prob=float(policy.log_prob(s, action)),
    )
    return action, trace
