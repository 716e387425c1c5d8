"""Risk-aware action selection.

A decision has two halves. The lookup (`lookup`) encodes the state and
retrieves the remembered failure rows near it, as row indices into the
published generation. It depends only on the state, the stack and the
generation, so a caller may keep it while those stay frozen and hand it
back. The decision (`select`) draws and scores. On a hit the policy draws a
batch of candidate actions in one go; `candidate_scores` scores each by the
mean distance from its joint embedding to those of the retrieved rows, minus
a weighted risk estimate, on arrays, and the top-scoring candidate is executed.
`ScoredCandidate` objects are built only where `score_candidates` is called
or a `SelectionTrace`'s candidates are read. When nothing relevant is
remembered one plain policy draw passes through untouched, which keeps the
agent bit-identical to its baseline away from known hazards. The batch uses
the random stream exactly as the same number of plain draws would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import embedding
from .errors import CoherenceError, UsageError
from .memory import FailureMemory, FemaConfig, Generation


@dataclass
class ScoredCandidate:
    action: np.ndarray
    distance: float   # mean l2 gap to the retrieved embeddings
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


def candidate_scores(z_s, acts, phi, version, stack, risk_weight) -> tuple:
    """(acts, distance, risk, score) of candidate actions `acts` (n, d_a) at
    a state of embedding z_s, against retrieved rows' joint embeddings
    `phi`, which the stack made at `version`."""
    if version != stack.version:
        raise CoherenceError(f"record embedding version {version} does not match "
                             f"stack version {stack.version}")
    z_a = embedding.encode_action(stack, acts)
    joint = embedding.joint_embed(stack, np.tile(z_s, (len(acts), 1)), z_a)
    rho = np.atleast_1d(embedding.risk(stack, joint))
    # gaps[i, j]: l2 distance from candidate i to retrieved row j
    gaps = np.sqrt(np.sum((phi[None, :, :] - joint[:, None, :]) ** 2, axis=2))
    dist = gaps.mean(axis=1)
    return acts, dist, rho, dist - risk_weight * rho


def score_candidates(s: np.ndarray, candidates: list, records: Generation,
                     stack: embedding.EmbeddingStack, risk_weight: float) -> list:
    """Score candidate actions (a list, or an (n, d_a) array) against the
    retrieved failure rows."""
    if not records:
        raise UsageError("score_candidates requires a non-empty retrieval")
    return _candidates(*candidate_scores(
        embedding.encode_state(stack, s), np.asarray(candidates, dtype=np.float64),
        records.phi, records.version, stack, risk_weight))


def lookup(s: np.ndarray, mem: FailureMemory, stack: embedding.EmbeddingStack,
           cfg: FemaConfig) -> tuple:
    """(z_s, RetrievalResult): the embedding of state s and the remembered
    failure rows near it. A pure function of s, the stack and the published
    generation."""
    z_s = embedding.encode_state(stack, s)
    return z_s, mem.retrieve(z_s, cfg)


def select(
    s: np.ndarray,
    policy,
    mem: FailureMemory,
    stack: embedding.EmbeddingStack,
    cfg: FemaConfig,
    rng: np.random.Generator,
    found: tuple | None = None,
):
    """Pick an action for state s, steering around remembered failures.

    `found` is `lookup(s, mem, stack, cfg)` when the caller already holds
    it; otherwise select looks s up itself. Returns (action,
    SelectionTrace). On a hit the best of one batch of cfg.n_candidates
    policy draws is returned; with an empty or cold retrieval the single
    plain policy draw is returned unscored (fallback).
    """
    z_s, result = lookup(s, mem, stack, cfg) if found is None else found
    if not result.rows.size:
        return policy.sample(s, rng), SelectionTrace(chosen=0, fallback=True,
                                                     cold=result.cold)
    acts = np.asarray(policy.sample(s, rng, cfg.n_candidates), dtype=np.float64)
    scored = candidate_scores(z_s, acts, result.gen.phi[result.rows], result.gen.version,
                              stack, cfg.risk_weight)
    chosen = int(np.argmax(scored[3]))  # lowest index on ties
    return acts[chosen], SelectionTrace(chosen=chosen, fallback=False, cold=False,
                                        scored=scored)
