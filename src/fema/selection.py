"""Risk-aware action selection.

Each decision encodes the state and retrieves the remembered failure rows
near it, as row indices into the published generation. On a hit the policy
draws a batch of candidate actions in one go; `candidate_scores` scores
each by how far its joint embedding sits from the retrieved rows, minus a
weighted risk estimate, on arrays, and the top-scoring candidate is
executed. `ScoredCandidate` objects are built only where `score_candidates`
is called or a `SelectionTrace`'s candidates are read. When nothing
relevant is remembered one plain policy draw passes through untouched,
which keeps the agent bit-identical to its baseline away from known
hazards. The batch uses the random stream exactly as the same number of
plain draws would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _candidates(acts, dist, rho, score) -> list:
    return [ScoredCandidate(*c) for c in
            zip(acts, dist.tolist(), rho.tolist(), score.tolist())]


@dataclass
class SelectionTrace:
    """What one decision did."""

    chosen: int       # index of the executed candidate (0 on a fallback)
    fallback: bool    # retrieval was empty, the plain draw passed through
    cold: bool        # nothing was published yet
    scored: tuple = ()  # `candidate_scores` of the draws; () on a fallback

    @cached_property
    def candidates(self) -> list:
        """ScoredCandidate per draw; empty on a fallback."""
        return _candidates(*self.scored) if self.scored else []


def candidate_scores(z_s, acts, phi, version, stack, risk_weight, aggregator) -> tuple:
    """(acts, distance, risk, score) of candidate actions `acts` (n, d_a) at
    a state of embedding z_s, against retrieved rows' joint embeddings
    `phi`, which the stack made at `version`."""
    if version != stack.version:
        raise CoherenceError(f"record embedding version {version} does not match "
                             f"stack version {stack.version}")
    if aggregator not in AGGREGATORS:
        raise UsageError(f"unknown aggregator {aggregator!r}")
    z_a = embedding.encode_action(stack, acts)
    joint = embedding.joint_embed(stack, np.tile(z_s, (len(acts), 1)), z_a)
    rho = np.atleast_1d(embedding.risk(stack, joint))
    # gaps[i, j]: l2 distance from candidate i to retrieved row j
    gaps = np.sqrt(np.sum((phi[None, :, :] - joint[:, None, :]) ** 2, axis=2))
    dist = getattr(gaps, aggregator)(axis=1)
    return acts, dist, rho, dist - risk_weight * rho


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
    return _candidates(*candidate_scores(
        embedding.encode_state(stack, s), np.asarray(candidates, dtype=np.float64),
        records.phi, records.version, stack, risk_weight, aggregator))


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
    if not result.rows.size:
        return policy.sample(s, rng), SelectionTrace(chosen=0, fallback=True,
                                                     cold=result.cold)
    acts = np.asarray(policy.sample(s, rng, cfg.n_candidates), dtype=np.float64)
    scored = candidate_scores(z_s, acts, result.gen.phi[result.rows], result.gen.version,
                              stack, cfg.risk_weight, cfg.aggregator)
    chosen = int(np.argmax(scored[3]))  # lowest index on ties
    return acts[chosen], SelectionTrace(chosen=chosen, fallback=False, cold=False,
                                        scored=scored)
