"""Diagonal Gaussian policy with a shared trunk and two head variants.

The trunk maps the state to a tanh feature vector; a linear mean head sits
on top. The log-std is either a second linear head (state-dependent, used by
the off-policy learner) or a free learned vector (state-independent, used by
the on-policy learner). Squashing conventions:

  "tanh": actions are scale * tanh(u) for the Gaussian draw u (the
          off-policy learner computes their density in `sac._squashed_sample`);
  "clip": raw Gaussian actions, clipped later by the environment; `log_prob`
          is their plain Gaussian log-density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import numeric
from ..errors import ConfigError, ShapeError, UsageError

LOGSTD_MIN = -5.0
LOGSTD_MAX = 2.0
SQUASH_EPS = 1e-6
LOG_2PI = math.log(2.0 * math.pi)
SQUASHES = ("tanh", "clip")


@dataclass
class GaussianPolicy:
    trunk: numeric.Mlp
    mean_head: numeric.Mlp
    logstd_head: Optional[numeric.Mlp]
    logstd_vec: Optional[np.ndarray]
    squash: str
    scale: np.ndarray

    @property
    def d_s(self) -> int:
        return self.trunk.in_dim

    @property
    def d_a(self) -> int:
        return self.mean_head.out_dim

    def params(self) -> list:
        """[trunk, mean head, log-std head or vector]: one array each."""
        tail = self.logstd_vec if self.logstd_head is None else self.logstd_head.flat
        return [self.trunk.flat, self.mean_head.flat, tail]

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

    def sample(self, s: np.ndarray, rng: np.random.Generator,
               n: Optional[int] = None) -> np.ndarray:
        """One action; with n, an (n, d_a) batch from one forward and one
        normal draw that uses the random stream exactly as n single draws."""
        mu, sigma = self.mean_std(s)
        u = mu + sigma * rng.standard_normal(mu.shape if n is None else (n,) + mu.shape)
        if self.squash == "tanh":
            return self.scale * np.tanh(u)
        return u

    def det_action(self, s: np.ndarray) -> np.ndarray:
        mu, _ = self.mean_std(s)
        if self.squash == "tanh":
            return self.scale * np.tanh(mu)
        return np.clip(mu, -self.scale, self.scale)

    def log_prob(self, s: np.ndarray, a: np.ndarray):
        """Log-density of the unsquashed action a at state s (scalar for
        single inputs); a "clip" policy only."""
        if self.squash != "clip":
            raise UsageError(f"log_prob is the density of a clip policy, not {self.squash!r}")
        mu, sigma = self.mean_std(s)
        a = np.asarray(a, dtype=np.float64)
        if a.shape != mu.shape:
            raise ShapeError(f"action shape {a.shape} does not match {mu.shape}")
        out = np.sum(
            -np.log(sigma) - 0.5 * LOG_2PI - 0.5 * ((a - mu) / sigma) ** 2,
            axis=-1,
        )
        return float(out) if out.ndim == 0 else out


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
