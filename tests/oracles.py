"""Independent oracles used to derive expected values in tests.

Everything here is deliberately written as straightforward, loop-based
reference code that shares no machinery with the package under test.
"""

import math

import numpy as np


def forward_oracle(layers, x):
    """Reference MLP forward pass: plain per-layer dot products.

    layers: list of (w, b, act) with w shaped (out, in).
    """
    h = np.array(x, dtype=np.float64)
    for w, b, act in layers:
        z = np.array([np.dot(row, h) for row in w]) + b
        if act == "tanh":
            h = np.tanh(z)
        elif act == "identity":
            h = z
        else:
            raise ValueError(act)
    return h


def forward_out_of_place(layers, x):
    """The dense forward pass as plain out-of-place expressions.

    layers: list of (w, b, act). Returns (output, inputs, outputs), the
    per-layer inputs and post-activations that backward needs.
    """
    inputs, outputs = [], []
    for w, b, act in layers:
        inputs.append(x)
        x = x @ w.T + b
        if act == "tanh":
            x = np.tanh(x)
        outputs.append(x)
    return x, inputs, outputs


def backward_out_of_place(layers, inputs, outputs, g):
    """Backpropagation of `g` as plain out-of-place expressions.

    Returns (flat, input_grad): flat holds each layer's W gradient
    (row-major) then its b gradient, first layer first.
    """
    parts = []
    for (w, b, act), x_in, a in zip(layers[::-1], inputs[::-1], outputs[::-1]):
        if act == "tanh":
            g = g * (1.0 - a * a)
        parts.append(np.add.reduce(g, axis=0))
        parts.append((g.T @ x_in).ravel())
        g = g @ w
    return np.concatenate(parts[::-1]), g


def adam_out_of_place(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t (1-based) as plain out-of-place expressions, on copies.

    Returns (params, m, v) after the step.
    """
    params, m, v = ([a.copy() for a in arrays] for arrays in (params, m, v))
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, mk, vk in zip(params, grads, m, v):
        mk *= beta1
        mk += (1.0 - beta1) * g
        vk *= beta2
        vk += (1.0 - beta2) * g * g
        p -= lr * (mk / c1) / (np.sqrt(vk / c2) + eps)
    return params, m, v


def train_risk_one_loop(stack, states, actions, returns, epochs, batch_size, rng):
    """`embedding.train_risk` as one process ran it before it split its
    steps: per minibatch, the whole loss-and-gradient pass, then one Adam
    step on the whole vector. It runs on the package's `numeric` engine,
    which the oracles above pin, so it checks the step's split and order,
    not the engine. Returns the final epoch's mean loss."""
    from fema import embedding, numeric
    from fema.errors import TrainingError

    n = returns.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            y = (embedding.normalize_returns(returns[idx]) if idx.size > 1
                 else np.zeros(idx.size))
            z_s, cache_f = numeric.forward(stack.f, states[idx])
            z_a, cache_g = numeric.forward(stack.g, actions[idx])
            phi, cache_j = numeric.forward(stack.j, np.concatenate([z_s, z_a], axis=1))
            pred, cache_h = numeric.forward(stack.h, phi)
            err = pred[:, 0] - y
            loss = float(np.mean(err * err))
            grad = np.empty_like(stack.flat)
            out_f, out_g, out_j, out_h = stack.split(grad)
            _, d_phi = numeric.backward(stack.h, cache_h, (2.0 / idx.size) * err[:, None],
                                        out=out_h)
            _, d_cat = numeric.backward(stack.j, cache_j, d_phi, out=out_j)
            numeric.backward(stack.f, cache_f, d_cat[:, :stack.d_z], out=out_f)
            numeric.backward(stack.g, cache_g, d_cat[:, stack.d_z:], out=out_g)
            if not np.isfinite(loss):
                raise TrainingError("risk loss diverged to NaN/Inf")
            numeric.adam_step(stack.flat, grad, stack.adam)
            losses.append(loss)
        final = float(np.mean(losses))
    stack.version += 1
    return final


def sac_update_one_loop(agent):
    """`SacAgent.update` as one process ran it before it split the twin
    critics into shares: the targets, the summed twin critic loss and one
    Adam step on both critics, the actor, the temperature, then both Polyak
    steps. It runs on the public `sac` functions, so it checks the split
    and order of the update, not those functions. Returns the losses."""
    from fema import numeric
    from fema.agents import sac
    from fema.errors import TrainingError

    cfg = agent.cfg
    batch = agent.buffer.sample(cfg.batch_size, agent.learn_rng)
    d_a = agent.spec.d_a
    noise_next = agent.learn_rng.standard_normal((cfg.batch_size, d_a))
    noise_actor = agent.learn_rng.standard_normal((cfg.batch_size, d_a))

    y = sac.compute_targets(agent.policy, agent.q1t, agent.q2t, agent.log_alpha,
                            batch, cfg.discount, noise_next)
    l1, l2, g_critic = sac.critic_loss_and_grads(agent.q1, agent.q2,
                                                 batch["s"], batch["a"], y)
    critics = np.concatenate([agent.q1.flat, agent.q2.flat])
    numeric.adam_step(critics, np.concatenate(g_critic), agent.critic_adam)
    agent.q1.flat[:], agent.q2.flat[:] = np.split(critics, [agent.q1.flat.size])

    l_actor, g_actor, logp = sac.actor_loss_and_grads(
        agent.policy, agent.q1, agent.q2, agent.log_alpha, batch["s"], noise_actor)
    numeric.adam_step(agent.policy.flat, g_actor, agent.policy_adam)

    l_temp = 0.0
    if cfg.learn_temp:
        l_temp, g_temp = sac.temperature_loss_and_grad(agent.log_alpha, logp,
                                                       agent.target_entropy)
        numeric.adam_step(agent.log_alpha, g_temp, agent.temp_adam)

    sac.polyak(agent.q1, agent.q1t, cfg.tau)
    sac.polyak(agent.q2, agent.q2t, cfg.tau)

    losses = {
        "q1_loss": l1, "q2_loss": l2, "actor_loss": l_actor,
        "temp_loss": l_temp, "alpha": math.exp(float(agent.log_alpha[0])),
        "entropy_est": -float(np.mean(logp)),
    }
    for name, val in losses.items():
        if not math.isfinite(val):
            raise TrainingError(f"non-finite {name} at step {agent.steps_seen}: {losses}")
    agent.last_losses = losses
    return losses


def fd_grads(fn, arrays, h=1e-5):
    """Central finite-difference gradients of scalar fn w.r.t. each array."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn()
            flat[i] = orig - h
            down = fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    """max |a - n| / max(|a|, |n|, floor) over all parameter arrays.

    The floor sets where the comparison switches from relative to absolute.
    Central differences at h = 1e-5 on float64 carry roughly |f|*eps/h ~ 1e-11
    of roundoff noise, so gradient entries below ~1e-7 are indistinguishable
    from zero to the probe; 1e-6 keeps those entries on an absolute scale
    while anything a real backprop defect could produce (1e-10 and up in
    absolute terms) still registers.
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def mc_return_direct(rewards, gamma):
    """H_t = sum_{n=t}^{T-1} gamma^(n-t) r_n by explicit double loop."""
    T = len(rewards)
    out = []
    for t in range(T):
        acc = 0.0
        for n in range(t, T):
            acc += (gamma ** (n - t)) * rewards[n]
        out.append(acc)
    return np.array(out, dtype=np.float64)


def linear_scan_retrieve(entries, z_query, eps, top_o):
    """Brute-force retrieval: entries is a list of (index, z_s, H).

    Keeps entries with ||z_s - z_query||_2 <= eps, sorts by (H, index)
    ascending, returns the first top_o indices. Plain Python floats summed
    left to right: for widths below 8 that is the order numpy sums a row
    in, so distances on the radius boundary decide the same way.
    """
    q = np.asarray(z_query, dtype=np.float64).tolist()
    hits = []
    for idx, z, h_val in entries:
        acc = 0.0
        for zi, qi in zip(np.asarray(z, dtype=np.float64).tolist(), q):
            d = zi - qi
            acc += d * d
        if math.sqrt(acc) <= eps:
            hits.append((h_val, idx))
    hits.sort()
    return [idx for _, idx in hits[:top_o]]


def _ranks(values):
    """Average ranks (1-based), ties shared."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = 0.5 * (i + j) + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(x, y):
    rx, ry = _ranks(x), _ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float(np.sum(rx * rx)) * float(np.sum(ry * ry)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(rx * ry)) / denom


def gaussian_logpdf(x, mu, sigma):
    """Closed-form diagonal Gaussian log-density."""
    x, mu, sigma = (np.asarray(v, dtype=np.float64) for v in (x, mu, sigma))
    return float(
        np.sum(-np.log(sigma) - 0.5 * math.log(2.0 * math.pi) - 0.5 * ((x - mu) / sigma) ** 2)
    )
