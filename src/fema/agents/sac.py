"""Compact soft actor-critic with the failure-memory hook.

Twin critics with Polyak-averaged targets, a tanh-squashed Gaussian actor,
and a learned entropy temperature. All gradients are assembled by hand on
top of the dense-network engine, so every loss here is checkable against
finite differences.

An update is composed from per-critic shares (`_Critic`): each critic runs
its own target forward, its own loss, backward, Adam step (on its slice of
the critic moments) and Polyak step, and its own pass at the actor's
actions. The twins meet only where their outputs meet: at the target's
min, at the actor's min and in the actor's action gradient. The second
side's share (`_Second`) also draws the target actions, the policy's draw
at the next states that both target critics read, while the first side
draws the actor's. The sides meet four times an update (`_MEETINGS`) in
one process, or, through `SacAgent.run_beside`, with the share in a helper
process for a whole run where the batch size pays for one and a second CPU
is free. Each side runs the array operations of the one-process update on
the same operands, and Adam is elementwise, so every parameter, moment,
loss and output byte is the same either way.

The hook itself lives in `HookedAgent`. SAC adds uniform warmup actions
and publishes the memory as soon as a staged failure fills its update
quota.
"""

from __future__ import annotations

import math

import numpy as np

from .. import forking, numeric
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
# Smallest batch_size whose runs hand the second side of each update to a
# helper process (`SacAgent.run_beside`). On a 2-core x86 VM an update in two
# processes ran 1.2-1.4x as fast as in one at batch 32-128 and widths 16-64
# (medians of 5-7 runs), and 1.2-1.3x at batch 16, where it saves about 100
# us; below 32 that does not buy the second core that a helper takes
# during the updates.
FORK_BATCH = 32


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


def _value(q: numeric.Mlp, x: np.ndarray) -> np.ndarray:
    out, _ = numeric.forward(q, x)
    return out[:, 0]


def _target_input(policy: GaussianPolicy, s_next: np.ndarray, noise_next: np.ndarray):
    """(the target critics' input [s', a'] for the policy's draw a' at the
    next states, log pi(a'|s'))."""
    a2, *_, logp2, _ = _squashed_sample(policy, s_next, noise_next)
    return np.concatenate([s_next, a2], axis=1), logp2


def _backup(batch: dict, gamma: float, q1v, q2v, alpha: float, logp2) -> np.ndarray:
    """Soft Bellman backup from the two target critics' values."""
    qmin = np.minimum(q1v, q2v)
    return batch["r"] + gamma * (1.0 - batch["done"]) * (qmin - alpha * logp2)


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
    x2, logp2 = _target_input(policy, batch["s_next"], noise_next)
    return _backup(batch, gamma, _value(q1t, x2), _value(q2t, x2),
                   math.exp(float(log_alpha[0])), logp2)


def _critic_loss(q: numeric.Mlp, x: np.ndarray, y: np.ndarray):
    """One critic's MSE against fixed targets, and its gradient vector."""
    qv, cache = numeric.forward(q, x)
    e = qv[:, 0] - y
    grad, _ = numeric.backward(q, cache, (2.0 / x.shape[0]) * e[:, None])
    return float(np.mean(e * e)), grad


def critic_loss_and_grads(q1: numeric.Mlp, q2: numeric.Mlp, s, a, y):
    """Each twin's MSE against fixed targets, and their gradients (q1's, q2's)."""
    x = np.concatenate([s, a], axis=1)
    l1, g1 = _critic_loss(q1, x, y)
    l2, g2 = _critic_loss(q2, x, y)
    return l1, l2, (g1, g2)


def _min_weights(take1: np.ndarray) -> tuple:
    """Per-row weights of each critic's value in -mean(min Q), given where
    q1 is the min: d loss / d Q for q1, then for q2."""
    batch = take1.shape[0]
    return -take1.astype(np.float64) / batch, -(~take1).astype(np.float64) / batch


def _actor_step(policy: GaussianPolicy, draw: tuple, noise: np.ndarray, alpha: float,
                qmin: np.ndarray, d_a_grad: np.ndarray):
    """The actor's loss mean(alpha*logp - min Q) and its policy gradient,
    from its squashed draw and the critics' min value and action gradient."""
    a, u, t, ls_raw, ls, sigma, logp, caches = draw
    cache_t, cache_m, cache_l = caches
    batch = a.shape[0]
    loss = float(np.mean(alpha * logp - qmin))

    one_m_t2 = 1.0 - t * t
    dlogp_du = 2.0 * policy.scale * t * one_m_t2 / (policy.scale * one_m_t2 + SQUASH_EPS)
    d_u = (alpha / batch) * dlogp_du + d_a_grad * policy.scale * one_m_t2
    d_mu = d_u
    d_ls = d_u * sigma * noise - (alpha / batch)
    d_ls = d_ls * ((ls_raw > LOGSTD_MIN) & (ls_raw < LOGSTD_MAX))

    grad = np.empty_like(policy.flat)
    g_trunk, g_mean, g_ls = policy.split(grad)
    _, d_feat_m = numeric.backward(policy.mean_head, cache_m, d_mu, out=g_mean)
    _, d_feat_l = numeric.backward(policy.logstd_head, cache_l, d_ls, out=g_ls)
    numeric.backward(policy.trunk, cache_t, d_feat_m + d_feat_l, out=g_trunk)
    return loss, grad


def actor_loss_and_grads(
    policy: GaussianPolicy,
    q1: numeric.Mlp,
    q2: numeric.Mlp,
    log_alpha: np.ndarray,
    s: np.ndarray,
    noise: np.ndarray,
):
    """Reparameterized actor objective mean(alpha*logp - min Q) and its
    gradient w.r.t. policy.flat (critics and temperature frozen)."""
    draw = _squashed_sample(policy, s, noise)
    x = np.concatenate([s, draw[0]], axis=1)
    c1, c2 = _Critic(q1, s.shape[1]), _Critic(q2, s.shape[1])
    qa1, qa2 = c1.value(x), c2.value(x)
    take1 = qa1 <= qa2
    w1, w2 = _min_weights(take1)
    loss, grads = _actor_step(policy, draw, noise, math.exp(float(log_alpha[0])),
                              np.where(take1, qa1, qa2),
                              c1.action_grad(w1) + c2.action_grad(w2))
    return loss, grads, draw[6]


def temperature_loss_and_grad(log_alpha: np.ndarray, logp: np.ndarray,
                              target_entropy: float):
    """Temperature moves to keep policy entropy near the target."""
    gap = float(np.mean(logp + target_entropy))
    loss = -float(log_alpha[0]) * gap
    return loss, np.array([-gap])


def polyak(src: numeric.Mlp, dst: numeric.Mlp, tau: float) -> None:
    dst.flat *= 1.0 - tau
    dst.flat += tau * src.flat


class _Critic:
    """One critic of the twin pair, for input [s, a] with d_s state
    columns; with its target qt and its slices m, v of the critic Adam
    moments (step size lr), it can also `fit`."""

    def __init__(self, q: numeric.Mlp, d_s: int, qt=None, m=None, v=None, lr=None):
        self.q, self.d_s, self.qt, self.m, self.v, self.lr = q, d_s, qt, m, v, lr

    def target(self, x2: np.ndarray) -> np.ndarray:
        """The target critic's values at the backup's input."""
        return _value(self.qt, x2)

    def fit(self, x: np.ndarray, y: np.ndarray, t: int, tau: float) -> float:
        """Loss against the backup y, backward, critic Adam step t on this
        critic's slice, then Polyak into its target; returns the loss."""
        loss, grad = _critic_loss(self.q, x, y)
        numeric.adam_step(self.q.flat, grad, numeric.AdamState(self.m, self.v, t - 1, self.lr))
        polyak(self.q, self.qt, tau)
        return loss

    def value(self, xa: np.ndarray) -> np.ndarray:
        """Values at the actor's input, kept for `action_grad`."""
        qa, self.cache = numeric.forward(self.q, xa)
        return qa[:, 0]

    def action_grad(self, weights: np.ndarray) -> np.ndarray:
        """d sum(weights * values) / d action, at the last `value` pass."""
        return numeric.input_grad(self.q, self.cache, weights[:, None])[:, self.d_s:]


class _Second:
    """The second side's share of each update, as `_MEETINGS` meets it: the
    policy's draw at the next states, and the second critic's steps. It
    counts the critic Adam steps from t."""

    def __init__(self, policy: GaussianPolicy, critic: _Critic, t: int, tau: float):
        self.policy, self.critic, self.t, self.tau = policy, critic, t, tau

    def draw(self, s_next: np.ndarray, noise_next: np.ndarray, x: np.ndarray) -> tuple:
        self.x = x
        self.x2, logp2 = _target_input(self.policy, s_next, noise_next)
        return self.x2, logp2

    def targets(self) -> tuple:
        return (self.critic.target(self.x2),)

    def values(self, y: np.ndarray, xa: np.ndarray) -> tuple:
        self.t += 1
        loss = self.critic.fit(self.x, y, self.t, self.tau)
        return self.critic.value(xa), np.full(1, loss)

    def grads(self, weights: np.ndarray) -> tuple:
        return (self.critic.action_grad(weights),)


# An update's meetings (`forking.pair`): the next states and their noise,
# answered with the policy's draw there (the backup's input, log-density);
# with no post, q2t's values at that input; the backup and the actor's
# input, answered after q2's Adam and Polyak steps with its loss and values
# there; and q2's weights in the actor's min, answered with its action grad.
_MEETINGS = (("draw", ("s_next", "noise_next", "x"), ("x2", "logp2")),
             ("targets", (), ("q2v",)),
             ("values", ("y", "xa"), ("qa2", "l2")),
             ("grads", ("w2",), ("gin2",)))
_DRAW, _TARGETS, _VALUES, _GRADS = range(4)


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
        self.policy_adam = numeric.adam_init(self.policy.flat, lr=cfg.policy_lr)
        self.critic_adam = numeric.adam_init(np.concatenate([self.q1.flat, self.q2.flat]),
                                             lr=cfg.critic_lr)   # sliced per critic
        self.temp_adam = numeric.adam_init(self.log_alpha, lr=cfg.temp_lr)
        self.target_entropy = -float(d_a)
        self.buffer = ReplayBuffer(cfg.buffer_capacity, d_s, d_a)
        self._away = None   # this side's end of the handshake, in run_beside

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
                 and self.buffer.size >= self.cfg.batch_size)
        if ready and step % self.cfg.update_interval == 0:
            self.update()

    def update(self) -> dict:
        """One gradient round on a replay batch: the critics, the actor, the
        temperature. The second side's share (the target draw and the
        second critic) runs here, or in the helper while `run_beside` runs
        one."""
        cfg = self.cfg
        batch = self.buffer.sample(cfg.batch_size, self.learn_rng)
        d_a = self.spec.d_a
        noise_next = self.learn_rng.standard_normal((cfg.batch_size, d_a))
        noise_actor = self.learn_rng.standard_normal((cfg.batch_size, d_a))
        alpha = math.exp(float(self.log_alpha[0]))
        first = self._critic(0)
        second = self._away or forking.InLine(
            _Second(self.policy, self._critic(1), self.critic_adam.t, cfg.tau), _MEETINGS)

        x = np.concatenate([batch["s"], batch["a"]], axis=1)
        second.post(_DRAW, batch["s_next"], noise_next, x)
        draw = _squashed_sample(self.policy, batch["s"], noise_actor)
        xa = np.concatenate([batch["s"], draw[0]], axis=1)
        x2, logp2 = second.take(_DRAW)
        q1v = first.target(x2)
        (q2v,) = second.take(_TARGETS)
        y = _backup(batch, cfg.discount, q1v, q2v, alpha, logp2)

        second.post(_VALUES, y, xa)
        self.critic_adam.t += 1
        l1 = first.fit(x, y, self.critic_adam.t, cfg.tau)
        qa1 = first.value(xa)
        qa2, l2 = second.take(_VALUES)
        take1 = qa1 <= qa2
        w1, w2 = _min_weights(take1)
        second.post(_GRADS, w2)
        gin1 = first.action_grad(w1)
        (gin2,) = second.take(_GRADS)

        logp = draw[6]
        l_actor, g_actor = _actor_step(self.policy, draw, noise_actor, alpha,
                                       np.where(take1, qa1, qa2), gin1 + gin2)
        numeric.adam_step(self.policy.flat, g_actor, self.policy_adam)

        l_temp = 0.0
        if cfg.learn_temp:
            l_temp, g_temp = temperature_loss_and_grad(
                self.log_alpha, logp, self.target_entropy
            )
            numeric.adam_step(self.log_alpha, g_temp, self.temp_adam)

        losses = {
            "q1_loss": l1, "q2_loss": float(l2[0]), "actor_loss": l_actor,
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

    def _critic(self, k: int) -> _Critic:
        """Critic k (0: q1, 1: q2) with its target and Adam slice."""
        adam = self.critic_adam
        q, qt = (self.q1, self.q1t) if k == 0 else (self.q2, self.q2t)
        part = slice(k * q.flat.size, (k + 1) * q.flat.size)
        return _Critic(q, self.spec.d_s, qt, adam.m[part], adam.v[part], adam.lr)

    def run_beside(self, loop, steps: int):
        """loop(), the run's first `steps` env steps, with the second side's
        share of every update in one helper forked through
        `forking.pair`: where the run updates (steps > warmup_steps), its
        batches hold FORK_BATCH rows or more, and `forking.can_pair()`.

        The helper owns q2, q2t and their slices of the critic Adam moments
        on a `forking.Shared` mapping; this process keeps learn_rng, the
        batch draw, q1, q1t, the temperature and the losses. The policy's
        vector is bound onto a slot of the mapping for the loop, so that the
        helper draws with the weights of this process's last Adam step.
        Between updates the helper waits, blocked on a pipe once the gap
        outlasts `forking.wait`'s polls of it, and a publish
        forks its own risk helper. q2, q2t, their moments and the policy's
        vector are copied back into the agent's own arrays after the
        loop, also on an error."""
        cfg = self.cfg
        if (steps <= cfg.warmup_steps or cfg.batch_size < FORK_BATCH
                or not forking.can_pair()):
            return loop()
        b, d_s, d_a = cfg.batch_size, self.spec.d_s, self.spec.d_a
        d_x, p = d_s + d_a, self.q2.flat.size
        pol, flat = self.policy, self.policy.flat
        shared = forking.Shared(q=(2 * p,), m=(p,), v=(p,), policy=flat.shape,
                                s_next=(b, d_s), noise_next=(b, d_a), x=(b, d_x),
                                x2=(b, d_x), logp2=(b,), q2v=(b,), y=(b,), xa=(b, d_x),
                                qa2=(b,), l2=(1,), w2=(b,), gin2=(b, d_a))
        adam = self.critic_adam
        q, qt = numeric.bind((self.q2, self.q2t), shared.q)
        own = (self.q2.flat, self.q2t.flat, adam.m[p:], adam.v[p:], flat)
        away = (q.flat, qt.flat, shared.m, shared.v, shared.policy)
        for dst, src in zip(away, own):
            dst[:] = src
        second = _Second(pol, _Critic(q, d_s, qt, shared.m, shared.v, adam.lr),
                         adam.t, cfg.tau)

        def lead(end):
            self._away = end
            try:
                return loop()
            finally:
                self._away = None

        pol.bind(shared.policy)
        try:
            return forking.pair("critic helper", second, _MEETINGS, shared, lead)
        finally:
            for dst, src in zip(own, away):
                dst[:] = src
            pol.bind(flat)
