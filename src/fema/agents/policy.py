"""Diagonal Gaussian policy with a shared trunk and two head variants.

The trunk maps the state to a tanh feature vector; a linear mean head sits
on top. The log-std is either a second linear head (state-dependent, used by
the off-policy learner) or a free learned vector (state-independent, used by
the on-policy learner). The parts are views of one parameter vector,
`flat`, laid out trunk, mean head, log-std head or vector, so a learner
steps the policy as one array. Squashing conventions:

  "tanh": actions are scale * tanh(u) for the Gaussian draw u (the
          off-policy learner computes their density in `sac._squashed_sample`);
  "clip": raw Gaussian actions, clipped later by the environment;
          `Gaussian.density` is their plain Gaussian log-density, which
          the on-policy learner's act path calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .. import numeric
from ..errors import ConfigError, ShapeError

LOGSTD_MIN = -5.0
LOGSTD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)
SQUASHES = ("tanh", "clip")


class Gaussian(NamedTuple):
    """The policy's action distribution at one state, from one forward pass;
    `sample` ignores its state, so the selector draws from it as from the policy."""

    mu: np.ndarray
    sigma: np.ndarray
    squash: str
    scale: np.ndarray

    def sample(self, s, rng: np.random.Generator, n: Optional[int] = None) -> np.ndarray:
        """One action; with n, an (n, d_a) batch from one normal draw that
        uses the random stream exactly as n single draws."""
        return self._draw(rng, n)

    def _draw(self, rng: np.random.Generator, n: Optional[int]) -> np.ndarray:
        """The draw behind both `sample`s; a traced run sees one per draw."""
        mu = self.mu
        u = mu + self.sigma * rng.standard_normal(mu.shape if n is None else (n,) + mu.shape)
        return self.scale * np.tanh(u) if self.squash == "tanh" else u

    def density(self, a) -> float:
        """Log-density of the unsquashed action a (scalar for one state)."""
        a = np.asarray(a, dtype=np.float64)
        if a.shape != self.mu.shape:
            raise ShapeError(f"action shape {a.shape} does not match {self.mu.shape}")
        out = np.sum(-np.log(self.sigma) - 0.5 * LOG_2PI
                     - 0.5 * ((a - self.mu) / self.sigma) ** 2, axis=-1)
        return float(out) if out.ndim == 0 else out


@dataclass
class GaussianPolicy(numeric.OneVector):
    trunk: numeric.Mlp
    mean_head: numeric.Mlp
    logstd_head: Optional[numeric.Mlp]
    logstd_vec: Optional[np.ndarray]
    squash: str
    scale: np.ndarray

    def _part_names(self) -> tuple:
        return "trunk", "mean_head", "logstd_head" if self.logstd_vec is None else "logstd_vec"

    @property
    def d_s(self) -> int:
        return self.trunk.in_dim

    @property
    def d_a(self) -> int:
        return self.mean_head.out_dim

    # -- forward ----------------------------------------------------------

    def heads(self, s: np.ndarray):
        """(mu, raw logstd, caches) for one state or a batch."""
        feat, cache_t = numeric.forward(self.trunk, s)
        mu, cache_m = numeric.forward(self.mean_head, feat)
        if self.logstd_head is not None:
            ls, cache_l = numeric.forward(self.logstd_head, feat)
        else:
            ls = np.empty_like(mu)
            ls[...] = self.logstd_vec
            cache_l = None
        return mu, ls, (cache_t, cache_m, cache_l)

    def mean_std(self, s: np.ndarray):
        mu, ls, _ = self.heads(s)
        return mu, np.exp(np.clip(ls, LOGSTD_MIN, LOGSTD_MAX))

    def at(self, s: np.ndarray) -> Gaussian:
        """The action distribution at state s (or a batch of states)."""
        return Gaussian(*self.mean_std(s), self.squash, self.scale)

    def sample(self, s: np.ndarray, rng: np.random.Generator,
               n: Optional[int] = None) -> np.ndarray:
        """One action; with n, an (n, d_a) batch (see `Gaussian.sample`)."""
        return self.at(s)._draw(rng, n)

    def det_action(self, s: np.ndarray) -> np.ndarray:
        mu, _ = self.mean_std(s)
        if self.squash == "tanh":
            return self.scale * np.tanh(mu)
        return np.clip(mu, -self.scale, self.scale)


def policy_init(
    d_s: int,
    d_a: int,
    scale,
    squash: str,
    state_dependent_std: bool,
    seed: int,
    hidden: int = 64,
    init_logstd: float = -0.5,
) -> GaussianPolicy:
    if squash not in SQUASHES:
        raise ConfigError(f"unknown squashing convention {squash!r}")
    scale = np.asarray(scale, dtype=np.float64) * np.ones(d_a)
    if not np.all(np.isfinite(scale) & (scale > 0)):
        raise ConfigError("action scale must be positive and finite")
    trunk = numeric.mlp_init([d_s, hidden, hidden], seed=seed, acts=["tanh", "tanh"])
    mean_head = numeric.mlp_init([hidden, d_a], seed=seed + 1, acts=["identity"])
    logstd_head = logstd_vec = None
    if state_dependent_std:
        logstd_head = numeric.mlp_init([hidden, d_a], seed=seed + 2, acts=["identity"])
    else:
        logstd_vec = np.full(d_a, init_logstd, dtype=np.float64)
    return GaussianPolicy(trunk=trunk, mean_head=mean_head, logstd_head=logstd_head,
                          logstd_vec=logstd_vec, squash=squash, scale=scale)
