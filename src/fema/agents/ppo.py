"""Compact clipped-surrogate policy optimization with the failure-memory hook.

Unsquashed Gaussian policy (the environment clips), state-independent
learned log-std, a separate value network, generalized advantage estimation,
and KL-based early stopping. Gradients are hand-assembled and
finite-difference checkable.

The hook itself lives in `HookedAgent`. PPO stores the log-probability of
the executed action, so the surrogate ratio stays well-defined when the
selector overrides the plain draw. A step runs the policy once per
distinct state per phase: the policy, value net, stack and published
generation are frozen within a phase, so `act_train` keeps, per state,
`policy.at(s)`, the state's value and the selector's `lookup`. The plain
draw or the selector's candidates come from that `Gaussian`, whose
`density` then gives the executed action's log-probability. Overridden
decisions can be excluded from the policy surrogate via the
importance-correction flag, since their behavior density is intractable;
they always contribute to the value target. In the gap between phases,
`end_phase` runs the learner update and then the memory publish, the only
time PPO publishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import numeric, selection
from ..errors import TrainingError, UsageError
from ..memory import END_HAZARD, END_NONE, FemaConfig
from .common import AgentConfig, HookedAgent
from .policy import LOG_2PI, LOGSTD_MAX, LOGSTD_MIN, GaussianPolicy, policy_init

ADV_EPS = 1e-8


@dataclass
class RolloutBatch:
    """Flattened phase data ready for minibatch updates."""

    s: np.ndarray
    a: np.ndarray
    logp_old: np.ndarray
    adv: np.ndarray
    ret: np.ndarray
    mask: np.ndarray   # rows eligible for the policy surrogate


@dataclass
class _Row:
    s: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray
    end: str
    logp: float
    value: float
    overridden: bool


def gae_segment(rows: list, value_fn, gamma: float, lam: float):
    """Advantages and return targets for one worker's contiguous rows.

    Hazard ends bootstrap with zero; time-limit ends and the trailing
    partial episode bootstrap with the value of the successor state. The
    advantage chain resets across every episode boundary.
    """
    n = len(rows)
    adv = np.zeros(n)
    carry = 0.0
    for i in range(n - 1, -1, -1):
        row = rows[i]
        if row.end == END_HAZARD:
            v_next, carry = 0.0, 0.0
        elif row.end != END_NONE:
            v_next, carry = float(value_fn(row.s_next)), 0.0
        elif i == n - 1:
            v_next = float(value_fn(row.s_next))
        else:
            v_next = rows[i + 1].value
        delta = row.r + gamma * v_next - row.value
        carry = delta + gamma * lam * carry
        adv[i] = carry
    ret = adv + np.array([row.value for row in rows])
    return adv, ret


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    return (adv - adv.mean()) / (adv.std() + ADV_EPS)


def policy_log_probs(policy: GaussianPolicy, s: np.ndarray, a: np.ndarray):
    """Batch Gaussian log-densities plus the pieces the gradient path needs."""
    mu, ls_raw, caches = policy.heads(s)
    ls = np.clip(ls_raw, LOGSTD_MIN, LOGSTD_MAX)
    sigma = np.exp(ls)
    z = (a - mu) / sigma
    lp = np.sum(-ls - 0.5 * LOG_2PI - 0.5 * z * z, axis=1)
    return lp, z, sigma, ls_raw, caches


def surrogate_loss_and_grads(
    policy: GaussianPolicy,
    s: np.ndarray,
    a: np.ndarray,
    logp_old: np.ndarray,
    adv: np.ndarray,
    mask: np.ndarray,
    clip_ratio: float,
    ent_coef: float,
):
    """Clipped surrogate (negated, so lower is better) with entropy bonus."""
    if policy.logstd_vec is None:
        raise UsageError("surrogate gradients assume a shared log-std vector")
    lp, z, sigma, ls_raw, caches = policy_log_probs(policy, s, a)
    cache_t, cache_m, _ = caches
    n_eff = float(mask.sum())
    if n_eff == 0.0:
        return 0.0, [np.zeros_like(p) for p in policy.params()], lp
    ratio = np.exp(lp - logp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * adv
    surr = np.minimum(unclipped, clipped)
    ls = np.clip(ls_raw, LOGSTD_MIN, LOGSTD_MAX)
    ent = np.sum(ls + 0.5 * (LOG_2PI + 1.0), axis=1)
    loss = float(-np.sum(mask * surr) / n_eff - ent_coef * np.sum(mask * ent) / n_eff)

    active = unclipped <= clipped
    d_lp = np.where(active, -ratio * adv, 0.0) * mask / n_eff
    d_mu = d_lp[:, None] * z / sigma
    d_ls = d_lp[:, None] * (z * z - 1.0) - (ent_coef / n_eff) * mask[:, None]
    d_ls = d_ls * ((ls_raw > LOGSTD_MIN) & (ls_raw < LOGSTD_MAX))

    g_mean, d_feat = numeric.backward(policy.mean_head, cache_m, d_mu)
    g_trunk, _ = numeric.backward(policy.trunk, cache_t, d_feat)
    return loss, g_trunk + g_mean + [d_ls.sum(axis=0)], lp


def value_loss_and_grads(vnet: numeric.Mlp, s: np.ndarray, ret: np.ndarray):
    out, cache = numeric.forward(vnet, s)
    err = out[:, 0] - ret
    loss = float(np.mean(err * err))
    grads, _ = numeric.backward(vnet, cache, (2.0 / s.shape[0]) * err[:, None])
    return loss, grads


def approx_kl(policy: GaussianPolicy, s, a, logp_old) -> float:
    lp, *_ = policy_log_probs(policy, s, a)
    return float(np.mean(logp_old - lp))


class PpoAgent(HookedAgent):
    algo = "ppo"
    stack_slot = 2

    @staticmethod
    def saved_widths(d_s: int, d_a: int, hidden: int) -> dict:
        return {"vnet": [d_s, hidden, hidden, 1]}

    def __init__(self, env_spec, cfg: AgentConfig, seed: int,
                 fema_cfg: FemaConfig | None = None):
        super().__init__(env_spec, cfg, seed, fema_cfg)
        self.n_workers = cfg.n_workers
        self.phase_steps = cfg.rollout_steps
        sub = self.sub_seeds
        d_s, d_a, h = env_spec.d_s, env_spec.d_a, cfg.hidden
        self.policy = policy_init(d_s, d_a, self.scale, "clip", False,
                                  seed=int(sub[0]), hidden=h,
                                  init_logstd=cfg.init_logstd)
        self.vnet = numeric.mlp_init(self.saved_widths(d_s, d_a, h)["vnet"],
                                     seed=int(sub[1]))
        self.policy_adam = numeric.adam_init(self.policy.params(), lr=cfg.policy_lr)
        self.value_adam = numeric.adam_init(self.vnet.params(), lr=cfg.critic_lr)
        self.pending = {}           # worker -> (logp, value, overridden)
        self._rows = {}             # worker -> rows of the current phase
        self._memo = {}             # state bytes -> `_at` of that state
        self._memo_version = None   # the memory version `_memo` was filled at

    def value_of(self, s) -> float:
        out, _ = numeric.forward(self.vnet, np.asarray(s, dtype=np.float64))
        return float(out[0])

    # -- acting ------------------------------------------------------------

    def act_train(self, s, rng, worker: int = 0):
        """Action for one step; its record waits in `pending[worker]`. The
        distribution the action is drawn from, plain or by the selector,
        also gives the action's log-density."""
        s = np.asarray(s, dtype=np.float64)
        dist, value, found = self._at(s)
        a, overridden = self._act(s, rng, dist, found)
        self.pending[worker] = (dist.density(a), value, overridden)
        return a

    def _at(self, s: np.ndarray) -> tuple:
        """(policy.at(s), value_of(s), the selector's lookup at s or None),
        kept until `update_phase` or a publish changes what it reads. Every
        repeat of s shares the same arrays, so nothing may write to them."""
        version = None if self.memory is None else self.memory.version
        if version != self._memo_version:
            self._memo, self._memo_version = {}, version
        key = s.tobytes()
        if key not in self._memo:
            found = None if self.memory is None else selection.lookup(
                s, self.memory, self.stack, self.fema_cfg)
            self._memo[key] = (self.policy.at(s), self.value_of(s), found)
        return self._memo[key]

    # -- collection ---------------------------------------------------------

    def observe(self, tr, worker: int = 0, step: int = 0) -> None:
        if worker not in self.pending:
            raise UsageError("observe() without a matching act_train()")
        logp, value, overridden = self.pending.pop(worker)
        self._count(overridden)
        self._rows.setdefault(worker, []).append(_Row(
            s=tr.s, a=tr.a, r=tr.r, s_next=tr.s_next, end=tr.end,
            logp=logp, value=value, overridden=overridden,
        ))
        self._track(tr, worker, step)  # publishing waits for the phase gap

    def collected_steps(self) -> int:
        """Rows gathered since the last phase update."""
        return sum(len(rows) for rows in self._rows.values())

    def build_batch(self) -> RolloutBatch:
        cfg = self.cfg
        all_rows = []
        adv_parts, ret_parts = [], []
        for worker in sorted(self._rows):
            rows = self._rows[worker]
            if not rows:
                continue
            adv, ret = gae_segment(rows, self.value_of, cfg.discount, cfg.gae_lambda)
            all_rows.extend(rows)
            adv_parts.append(adv)
            ret_parts.append(ret)
        if not all_rows:
            raise UsageError("no collected rollout rows to update from")
        adv = normalize_advantages(np.concatenate(adv_parts))
        mask = np.ones(len(all_rows))
        if cfg.importance_correction:
            mask = np.array([0.0 if r.overridden else 1.0 for r in all_rows])
        return RolloutBatch(
            s=np.stack([r.s for r in all_rows]),
            a=np.stack([r.a for r in all_rows]),
            logp_old=np.array([r.logp for r in all_rows]),
            adv=adv, ret=np.concatenate(ret_parts), mask=mask,
        )

    # -- learning ----------------------------------------------------------

    def update_phase(self) -> dict:
        cfg = self.cfg
        batch = self.build_batch()
        self._rows, self._memo = {}, {}   # the policy and value net change
        n = batch.s.shape[0]
        pi_loss = v_loss = kl = 0.0
        epochs_run = 0
        for _ in range(cfg.ppo_epochs):
            order = self.learn_rng.permutation(n)
            for start in range(0, n, cfg.minibatch):
                idx = order[start:start + cfg.minibatch]
                pi_loss, g_pi, _ = surrogate_loss_and_grads(
                    self.policy, batch.s[idx], batch.a[idx],
                    batch.logp_old[idx], batch.adv[idx], batch.mask[idx],
                    cfg.clip_ratio, cfg.ent_coef,
                )
                numeric.adam_step(self.policy.params(), g_pi, self.policy_adam)
                v_loss, g_v = value_loss_and_grads(self.vnet, batch.s[idx],
                                                   batch.ret[idx])
                numeric.adam_step(self.vnet.params(), g_v, self.value_adam)
            epochs_run += 1
            kl = approx_kl(self.policy, batch.s, batch.a, batch.logp_old)
            if kl > cfg.kl_stop:
                break
        losses = {
            "pi_loss": pi_loss, "v_loss": v_loss, "approx_kl": kl,
            "epochs_run": float(epochs_run),
            "masked_fraction": float(1.0 - batch.mask.mean()),
        }
        for name, val in losses.items():
            if not math.isfinite(val):
                raise TrainingError(f"non-finite {name}: {losses}")
        self.last_losses = losses
        return losses

    def between_phases(self) -> None:
        """Memory generation swap, allowed only in the collection gap."""
        if self.memory is not None:
            self.memory.maybe_update(self.stack)

    def end_phase(self) -> dict:
        """update_phase(), then between_phases(); returns the losses."""
        losses = self.update_phase()
        self.between_phases()
        return losses
