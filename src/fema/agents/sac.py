"""Compact soft actor-critic with the failure-memory hook.

Twin critics with Polyak-averaged targets, a tanh-squashed Gaussian actor,
and a learned entropy temperature. All gradients are assembled by hand on
top of the dense-network engine, so every loss here is checkable against
finite differences.

The hook itself lives in `HookedAgent`. SAC adds uniform warmup actions
and publishes the memory as soon as a staged failure fills its update
quota.
"""

from __future__ import annotations

import math

import numpy as np

from .. import numeric
from ..errors import TrainingError
# The benchmark's tracer self-test looks the capture function up here.
from ..memory import END_HAZARD, FemaConfig, capture_failure  # noqa: F401
from .buffers import ReplayBuffer
from .common import AgentConfig, HookedAgent
from .policy import (
    LOG_2PI,
    LOGSTD_MAX,
    LOGSTD_MIN,
    GaussianPolicy,
    policy_init,
)

SQUASH_EPS = 1e-6  # keeps the squashed density's log finite where tanh saturates


def _squashed_sample(policy: GaussianPolicy, s: np.ndarray, noise: np.ndarray):
    """Deterministic squashed draw given fixed noise; returns the pieces the
    gradient path needs: (a, u, tanh(u), clipped logstd, sigma, logp, caches)."""
    mu, ls_raw, caches = policy.heads(s)
    ls = np.clip(ls_raw, LOGSTD_MIN, LOGSTD_MAX)
    sigma = np.exp(ls)
    u = mu + sigma * noise
    t = np.tanh(u)
    a = policy.scale * t
    base = np.sum(-ls - 0.5 * LOG_2PI - 0.5 * noise * noise, axis=-1)
    corr = np.sum(np.log(policy.scale * (1.0 - t * t) + SQUASH_EPS), axis=-1)
    return a, u, t, ls_raw, ls, sigma, base - corr, caches


def compute_targets(
    policy: GaussianPolicy,
    q1t: numeric.Mlp,
    q2t: numeric.Mlp,
    log_alpha: np.ndarray,
    batch: dict,
    gamma: float,
    noise_next: np.ndarray,
) -> np.ndarray:
    """Soft Bellman backup values; no gradients flow from here."""
    a2, *_, logp2, _ = _squashed_sample(policy, batch["s_next"], noise_next)
    x2 = np.concatenate([batch["s_next"], a2], axis=1)
    q1v, _ = numeric.forward(q1t, x2)
    q2v, _ = numeric.forward(q2t, x2)
    qmin = np.minimum(q1v[:, 0], q2v[:, 0])
    alpha = math.exp(float(log_alpha[0]))
    return batch["r"] + gamma * (1.0 - batch["done"]) * (qmin - alpha * logp2)


def critic_loss_and_grads(q1: numeric.Mlp, q2: numeric.Mlp, s, a, y):
    """Summed twin MSE against fixed targets; grads follow q1 then q2 params."""
    x = np.concatenate([s, a], axis=1)
    batch = x.shape[0]
    q1v, c1 = numeric.forward(q1, x)
    q2v, c2 = numeric.forward(q2, x)
    e1 = q1v[:, 0] - y
    e2 = q2v[:, 0] - y
    l1 = float(np.mean(e1 * e1))
    l2 = float(np.mean(e2 * e2))
    g1, _ = numeric.backward(q1, c1, (2.0 / batch) * e1[:, None])
    g2, _ = numeric.backward(q2, c2, (2.0 / batch) * e2[:, None])
    return l1, l2, g1 + g2


def actor_loss_and_grads(
    policy: GaussianPolicy,
    q1: numeric.Mlp,
    q2: numeric.Mlp,
    log_alpha: np.ndarray,
    s: np.ndarray,
    noise: np.ndarray,
):
    """Reparameterized actor objective mean(alpha*logp - min Q) and its
    gradients w.r.t. policy parameters (critics and temperature frozen)."""
    a, u, t, ls_raw, ls, sigma, logp, caches = _squashed_sample(policy, s, noise)
    cache_t, cache_m, cache_l = caches
    batch = s.shape[0]
    alpha = math.exp(float(log_alpha[0]))

    x = np.concatenate([s, a], axis=1)
    qa1, ca1 = numeric.forward(q1, x)
    qa2, ca2 = numeric.forward(q2, x)
    take1 = qa1[:, 0] <= qa2[:, 0]
    qmin = np.where(take1, qa1[:, 0], qa2[:, 0])
    loss = float(np.mean(alpha * logp - qmin))

    # Q path: d loss / d action via the active critic's input gradient.
    d_s = s.shape[1]
    _, gin1 = numeric.backward(q1, ca1, (-take1.astype(np.float64) / batch)[:, None])
    _, gin2 = numeric.backward(q2, ca2, (-(~take1).astype(np.float64) / batch)[:, None])
    d_a_grad = gin1[:, d_s:] + gin2[:, d_s:]

    one_m_t2 = 1.0 - t * t
    dlogp_du = 2.0 * policy.scale * t * one_m_t2 / (policy.scale * one_m_t2 + SQUASH_EPS)
    d_u = (alpha / batch) * dlogp_du + d_a_grad * policy.scale * one_m_t2
    d_mu = d_u
    d_ls = d_u * sigma * noise - (alpha / batch)
    d_ls = d_ls * ((ls_raw > LOGSTD_MIN) & (ls_raw < LOGSTD_MAX))

    g_mean, d_feat_m = numeric.backward(policy.mean_head, cache_m, d_mu)
    g_ls, d_feat_l = numeric.backward(policy.logstd_head, cache_l, d_ls)
    g_trunk, _ = numeric.backward(policy.trunk, cache_t, d_feat_m + d_feat_l)
    return loss, g_trunk + g_mean + g_ls, logp


def temperature_loss_and_grad(log_alpha: np.ndarray, logp: np.ndarray,
                              target_entropy: float):
    """Temperature moves to keep policy entropy near the target."""
    gap = float(np.mean(logp + target_entropy))
    loss = -float(log_alpha[0]) * gap
    return loss, np.array([-gap])


def polyak(src: numeric.Mlp, dst: numeric.Mlp, tau: float) -> None:
    dst.flat *= 1.0 - tau
    dst.flat += tau * src.flat


class SacAgent(HookedAgent):
    algo = "sac"
    stack_slot = 3

    @staticmethod
    def saved_widths(d_s: int, d_a: int, hidden: int) -> dict:
        q = [d_s + d_a, hidden, hidden, 1]
        return {"q1": q, "q2": q, "q1t": q, "q2t": q, "log_alpha": 1}

    def __init__(self, env_spec, cfg: AgentConfig, seed: int,
                 fema_cfg: FemaConfig | None = None):
        super().__init__(env_spec, cfg, seed, fema_cfg)
        sub = self.sub_seeds
        d_s, d_a, h = env_spec.d_s, env_spec.d_a, cfg.hidden
        self.policy = policy_init(d_s, d_a, self.scale, "tanh", True,
                                  seed=int(sub[0]), hidden=h)
        widths = self.saved_widths(d_s, d_a, h)
        self.q1 = numeric.mlp_init(widths["q1"], seed=int(sub[1]))
        self.q2 = numeric.mlp_init(widths["q2"], seed=int(sub[2]))
        self.q1t = self.q1.copy()
        self.q2t = self.q2.copy()
        self.log_alpha = np.array([math.log(cfg.init_temp)])
        self.policy_adam = numeric.adam_init(self.policy.params(), lr=cfg.policy_lr)
        self.critic_adam = numeric.adam_init(self.q1.params() + self.q2.params(),
                                             lr=cfg.critic_lr)
        self.temp_adam = numeric.adam_init([self.log_alpha], lr=cfg.temp_lr)
        self.target_entropy = -float(d_a)
        self.buffer = ReplayBuffer(cfg.buffer_capacity, d_s, d_a)

    # -- acting ------------------------------------------------------------

    def act_train(self, s, rng, worker: int = 0):
        if self.steps_seen < self.cfg.warmup_steps:
            return rng.uniform(-1.0, 1.0, size=self.spec.d_a) * self.scale
        a, overridden = self._act(s, rng, self.policy)
        self._count(overridden)
        return a

    # -- learning ----------------------------------------------------------

    def observe(self, tr, worker: int = 0, step: int = 0) -> None:
        self.buffer.add(tr.s, tr.a, tr.r, tr.s_next, tr.end == END_HAZARD)
        if self._track(tr, worker, step):
            self.memory.maybe_update(self.stack)
        ready = (self.steps_seen >= self.cfg.warmup_steps
                 and len(self.buffer) >= self.cfg.batch_size)
        if ready and step % self.cfg.update_interval == 0:
            self.update()

    def update(self) -> dict:
        cfg = self.cfg
        batch = self.buffer.sample(cfg.batch_size, self.learn_rng)
        d_a = self.spec.d_a
        noise_next = self.learn_rng.standard_normal((cfg.batch_size, d_a))
        noise_actor = self.learn_rng.standard_normal((cfg.batch_size, d_a))

        y = compute_targets(self.policy, self.q1t, self.q2t, self.log_alpha,
                            batch, cfg.discount, noise_next)
        l1, l2, g_critic = critic_loss_and_grads(self.q1, self.q2,
                                                 batch["s"], batch["a"], y)
        numeric.adam_step(self.q1.params() + self.q2.params(), g_critic,
                          self.critic_adam)

        l_actor, g_actor, logp = actor_loss_and_grads(
            self.policy, self.q1, self.q2, self.log_alpha, batch["s"], noise_actor
        )
        numeric.adam_step(self.policy.params(), g_actor, self.policy_adam)

        l_temp = 0.0
        if cfg.learn_temp:
            l_temp, g_temp = temperature_loss_and_grad(
                self.log_alpha, logp, self.target_entropy
            )
            numeric.adam_step([self.log_alpha], [g_temp], self.temp_adam)

        polyak(self.q1, self.q1t, cfg.tau)
        polyak(self.q2, self.q2t, cfg.tau)

        losses = {
            "q1_loss": l1, "q2_loss": l2, "actor_loss": l_actor,
            "temp_loss": l_temp, "alpha": math.exp(float(self.log_alpha[0])),
            "entropy_est": -float(np.mean(logp)),
        }
        for name, val in losses.items():
            if not math.isfinite(val):
                raise TrainingError(
                    f"non-finite {name} at step {self.steps_seen}: {losses}"
                )
        self.last_losses = losses
        return losses
