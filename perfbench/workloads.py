"""The benchmark's workloads: what one job runs, times and checks.

A job is one closed loop driven by one caller, in its own process. It sets
up (imports, generated config or inputs), runs its timed operations, checks
their outputs, and returns a plain dict. `job.py` is the process entry point;
`run.py` schedules jobs and aggregates their dicts.

Training jobs run `fema.harness.train.run_seed` on a shipped config with a
shortened budget; the workload seed picks the training seed. The store job
drives `FailureMemory` and `selection.select` directly at the library-default
`FemaConfig`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from statistics import median

# Per workload: kind, inputs, the work one job does, and `jobs`, the number
# of jobs (each on its own seed) in a run of REFERENCE_SECONDS. Runs of other
# lengths scale the job count; the inputs never depend on the measured speed.
# Job counts are set so that a run takes 20 to 30 seconds on a 2-core x86 box
# with BLAS pinned to one thread.
WORKLOADS = {
    "sac_cliff_memory": {
        "kind": "train",
        "config": "configs/cliff_sac_memory.txt",
        "overrides": {"total_steps": 3000, "warmup_steps": 1000,
                      "loss_log_every": 1000},
        "memory": True,
        "jobs": 5,
    },
    "sac_cliff_plain": {
        "kind": "train",
        "config": "configs/cliff_sac_baseline.txt",
        "overrides": {"total_steps": 3000, "warmup_steps": 1000,
                      "loss_log_every": 1000},
        "memory": False,
        "jobs": 6,
    },
    "ppo_grid_memory": {
        "kind": "train",
        "config": "configs/grid_hazard_ppo_demo.txt",
        "overrides": {"total_steps": 4000},
        "memory": True,
        "jobs": 5,
    },
    "memory_store_16k": {
        "kind": "store",
        "tails": 2000,
        "queries": 2000,
        "exact_sample": 200,
        "rounds": 3,
        "jobs": 1,
        # One job per run: a longer reference loop, so that its own noise
        # does not outweigh the drift it corrects.
        "ref_iters": 8000,
    },
}

# Miniature sizes for the benchmark's self-tests.
MINI = {
    "sac_cliff_memory": {"overrides": {"total_steps": 400, "warmup_steps": 150,
                                       "loss_log_every": 100,
                                       "batch_size": 32, "update_every": 5}},
    "sac_cliff_plain": {"overrides": {"total_steps": 400, "warmup_steps": 150,
                                      "loss_log_every": 100,
                                      "batch_size": 32}},
    "ppo_grid_memory": {"overrides": {"total_steps": 400,
                                      "rollout_steps": 200,
                                      "update_every": 5}},
    "memory_store_16k": {"tails": 40, "queries": 40, "exact_sample": 20,
                         "rounds": 2},
}

# Where each override lives in the config file's sections.
_SECTION = {"total_steps": "RUN", "loss_log_every": "RUN",
            "warmup_steps": "AGENT", "batch_size": "AGENT",
            "rollout_steps": "AGENT", "update_every": "FEMA"}

REFERENCE_SECONDS = 25
REF_ITERS = 1000      # reference-loop iterations, ~0.12 s on a 2-core x86 box
SNAPSHOT_ROUNDS_TRAIN = 3
NEAR_NOISE = 1e-4     # state perturbation of a near query
FAR_OFFSET = 25.0     # x offset of a far query, beyond any stored state


def workload_spec(name: str, mini: bool = False) -> dict:
    spec = json.loads(json.dumps(WORKLOADS[name]))
    if mini:
        for key, value in MINI[name].items():
            spec[key] = value
    spec["name"] = name
    return spec


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_loop(iters: int = REF_ITERS) -> float:
    """Seconds for a fixed amount of work that uses no fema code: small dense
    forward and backward passes plus single-row forwards, the mix that
    dominates the workloads. `bracketed` times it just before and just after
    a job's timed operation, so it follows the machine's speed while that
    operation ran."""
    import numpy as np
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-0.3, 0.3, (64, 6))
    w2 = rng.uniform(-0.1, 0.1, (64, 64))
    w3 = rng.uniform(-0.1, 0.1, (1, 64))
    x = rng.standard_normal((128, 6))
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(iters):
        h1 = np.tanh(x @ w1.T)
        h2 = np.tanh(h1 @ w2.T)
        g2 = ((h2 @ w3.T) @ w3) * (1.0 - h2 * h2)
        g1 = (g2 @ w2) * (1.0 - h1 * h1)
        acc += float((g1.T @ x).sum() + (g2.T @ h1).sum())
        for _ in range(8):
            h = np.tanh(x[0] @ w1.T)
            acc += float((np.tanh(h @ w2.T) @ w3.T)[0])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference loop produced a non-finite sum")
    return elapsed


def bracketed(fn, ref_iters: int):
    """Run fn() between two reference loops; returns (result, seconds of
    fn, ref_s). ref_s is the reference time per REF_ITERS iterations,
    averaged over the loops just before and just after fn."""
    before = reference_loop(ref_iters)
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    after = reference_loop(ref_iters)
    return result, elapsed, 0.5 * (before + after) * REF_ITERS / ref_iters


# -- training workloads ---------------------------------------------------------


def check_metrics_log(path, total_steps: int, memory: bool) -> list:
    """Output checks on one run's metrics.jsonl; returns failure messages."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            records.append(json.loads(line))
    errors = []
    episodes = [r for r in records if r["kind"] == "episode"]
    length_sum = sum(r["length"] for r in episodes)
    if length_sum != total_steps:
        errors.append(f"episode lengths sum to {length_sum}, "
                      f"not total_steps={total_steps}")
    losses = [r for r in records if r["kind"] == "loss"]
    if not losses:
        errors.append("no loss records")
    for rec in losses:
        for key, value in rec.items():
            if key != "kind" and not math.isfinite(value):
                errors.append(f"non-finite {key} at step {rec['step']}")
    if memory:
        last = episodes[-1] if episodes else {}
        if not last.get("memory_records", 0) > 0:
            errors.append("memory never published (memory_records == 0)")
        if not last.get("fallback_rate", 1.0) < 1.0:
            errors.append("selector always fell back (fallback_rate == 1)")
    return errors


def train_setup(spec: dict, root: str, seed: int, run_dir: str):
    """Generated config for one seed; parsing it is part of set-up."""
    from fema.harness.config import parse_config
    environ = {"FEMA_RUN__SEEDS": str(seed), "FEMA_RUN__OUT_DIR": run_dir}
    for key, value in spec["overrides"].items():
        environ[f"FEMA_{_SECTION[key]}__{key.upper()}"] = str(value)
    return parse_config(os.path.join(root, spec["config"]), environ=environ)


def train_run(spec: dict, rc, seed: int, run_dir: str) -> dict:
    """The timed run_seed call, its output checks and snapshot round trips."""
    from fema import checkpoint
    from fema.harness import train
    from fema.memory import FailureMemory

    built = []
    build_agent = train.build_agent

    def capture(*args, **kwargs):
        agent = build_agent(*args, **kwargs)
        built.append(agent)
        return agent

    train.build_agent = capture
    try:
        row, wall, ref_s = bracketed(
            lambda: train.run_seed(rc, seed, run_dir),
            spec.get("ref_iters", REF_ITERS))
    finally:
        train.build_agent = build_agent
    agent = built[0]

    metrics_path = os.path.join(run_dir, "metrics.jsonl")
    errors = check_metrics_log(metrics_path, rc.total_steps, spec["memory"])
    if spec["memory"] and not row["memory_records"] > 0:
        errors.append("summary reports an empty memory")

    ckpt_path = os.path.join(run_dir, "bench_checkpoint.bin")
    mem_path = os.path.join(run_dir, "bench_memory.bin")
    writes, loads = [], []
    mem_bytes = agent.memory.to_bytes() if agent.memory is not None else None
    for _ in range(SNAPSHOT_ROUNDS_TRAIN):
        t0 = time.perf_counter()
        checkpoint.save_checkpoint(ckpt_path, agent, rc.env_kind,
                                   rc.total_steps)
        if agent.memory is not None:
            agent.memory.snapshot(mem_path)
        t1 = time.perf_counter()
        ckpt = checkpoint.load_checkpoint(ckpt_path)
        mem = FailureMemory.load(mem_path) if mem_bytes is not None else None
        t2 = time.perf_counter()
        writes.append(t1 - t0)
        loads.append(t2 - t1)
    if ckpt.step != rc.total_steps:
        errors.append("checkpoint round trip lost the step count")
    if mem is not None and mem.to_bytes() != mem_bytes:
        errors.append("memory snapshot does not round-trip byte for byte")
    return {
        "ops": rc.total_steps,
        "timed_s": wall,
        "ref_s": ref_s,
        "digest": sha256_file(metrics_path),
        "errors": errors,
        "snapshot_write_s": median(writes),
        "snapshot_load_s": median(loads),
        "summary": {k: row[k] for k in ("episodes", "hazard_episodes",
                                        "memory_records", "fallback_rate")},
    }


# -- memory store workload --------------------------------------------------------


def make_tails(cfg, n_tails: int, seed: int) -> list:
    """Hazard tails of uniform-random cliff_corridor episodes."""
    import numpy as np
    from fema.envs import make
    from fema.memory import END_NONE, Transition, capture_failure

    env = make("cliff_corridor", np.random.default_rng([seed, 2]))
    act_rng = np.random.default_rng([seed, 1])
    tails = []
    episode_id = 0
    step = 0
    while len(tails) < n_tails:
        s = env.reset()
        episode = []
        while True:
            a = act_rng.uniform(-1.0, 1.0, size=env.spec.d_a)
            res = env.step(a)
            step += 1
            episode.append(Transition(s=s, a=a, r=float(res.reward),
                                      s_next=res.state, end=res.end))
            if res.end != END_NONE:
                break
            s = res.state
        episode_id += 1
        event = capture_failure(episode, cfg, episode_id=episode_id,
                                capture_step=step)
        if event is not None:
            tails.append(event)
    return tails


def make_queries(tails: list, n: int, seed: int):
    """Alternating near and far query states (near first)."""
    import numpy as np
    rng = np.random.default_rng([seed, 6])
    states = np.concatenate([[t.s for t in e.transitions] for e in tails])
    queries = []
    for i in range(n):
        base = states[rng.integers(states.shape[0])]
        if i % 2 == 0:
            queries.append(base + NEAR_NOISE * rng.standard_normal(base.shape))
        else:
            far = base.copy()
            far[0] += FAR_OFFSET
            queries.append(far)
    return queries


def store_setup(spec: dict, seed: int) -> dict:
    """Default-config memory with every tail staged, plus the query stream."""
    import numpy as np
    from fema import embedding
    from fema.agents.policy import policy_init
    from fema.envs.cliff_corridor import SPEC
    from fema.memory import FailureMemory, FemaConfig

    cfg = FemaConfig()
    tails = make_tails(cfg, spec["tails"], seed)
    stack = embedding.stack_init(SPEC.d_s, SPEC.d_a, seed=seed)
    mem = FailureMemory(cfg, rng=np.random.default_rng([seed, 4]))
    for event in tails:
        mem.stage(event)
    scale = np.asarray(SPEC.action_high, dtype=np.float64)
    policy = policy_init(SPEC.d_s, SPEC.d_a, scale, "tanh", True,
                         seed=seed + 11, hidden=64)
    return {
        "cfg": cfg, "mem": mem, "stack": stack, "policy": policy,
        "queries": make_queries(tails, spec["queries"], seed),
        "n_records": sum(len(e.transitions) for e in tails),
        "select_rng": np.random.default_rng([seed, 7]),
    }


def brute_force_ids(records: list, z_query, radius: float, max_matches: int):
    """Reference retrieval written from the definition: records whose state
    embedding lies within `radius` (sqrt of the summed squares), lowest
    tail return first, then earliest insertion."""
    import numpy as np
    z = np.stack([r.z_s for r in records])
    dist = np.sqrt(np.sum((z - z_query) ** 2, axis=1))
    hits = [i for i in range(len(records)) if dist[i] <= radius]
    hits.sort(key=lambda i: (records[i].mc_return, i))
    return [(records[i].event_seq, records[i].step_idx)
            for i in hits[:max_matches]]


def decide_stats(hit_ms: list, miss_ms: list) -> dict:
    """Median per path and the tail over all decisions: the highest
    percentile with at least ten samples beyond it."""
    every = sorted(hit_ms + miss_ms)
    n = len(every)
    beyond = min(10, n - 1)
    pct = 100.0 * (n - beyond) / n
    return {
        "hit_p50_ms": median(hit_ms) if hit_ms else 0.0,
        "miss_p50_ms": median(miss_ms) if miss_ms else 0.0,
        "tail_ms": every[n - beyond - 1],
        "tail_pct": pct,
        "n": n,
    }


def store_run(spec: dict, st: dict, run_dir: str) -> dict:
    """Timed publish, read stream and snapshot round trips, then checks."""
    from fema import embedding, selection
    from fema.memory import FailureMemory

    cfg, mem, stack, policy = st["cfg"], st["mem"], st["stack"], st["policy"]
    published, publish_s, ref_s = bracketed(
        lambda: mem.update(stack), spec.get("ref_iters", REF_ITERS))

    hit_ms, miss_ms = [], []
    overrides = 0
    h = hashlib.sha256()
    clock = time.perf_counter
    for s in st["queries"]:
        t0 = clock()
        action, trace = selection.select(s, policy, mem, stack, cfg,
                                         st["select_rng"])
        dt = 1000.0 * (clock() - t0)
        h.update(action.tobytes())
        if trace.fallback:
            miss_ms.append(dt)
        else:
            hit_ms.append(dt)
            overrides += trace.chosen != 0

    path = os.path.join(run_dir, "memory.bin")
    writes, loads = [], []
    for _ in range(spec["rounds"]):
        t0 = time.perf_counter()
        mem.snapshot(path)
        t1 = time.perf_counter()
        loaded = FailureMemory.load(path)
        t2 = time.perf_counter()
        writes.append(t1 - t0)
        loads.append(t2 - t1)

    errors = []
    if published != st["n_records"] or len(mem.records) != st["n_records"]:
        errors.append(f"published {published} records, expected "
                      f"{st['n_records']}")
    if not hit_ms:
        errors.append("no query hit the store (fallback rate 1)")
    for s in st["queries"][:spec["exact_sample"]]:
        z = embedding.encode_state(stack, s)
        got = mem.retrieve(z).ids()
        want = brute_force_ids(mem.records, z, cfg.match_radius,
                               cfg.max_matches)
        if got != want:
            errors.append(f"retrieve returned {got[:3]}..., brute force "
                          f"{want[:3]}...")
            break
    with open(path, "rb") as fh:
        written = fh.read()
    if loaded.to_bytes() != written:
        errors.append("memory snapshot does not round-trip byte for byte")

    for rec in mem.records:
        h.update(rec.z_s.tobytes())
        h.update(rec.phi.tobytes())
    h.update(written)
    return {
        "ops": published,
        "timed_s": publish_s,
        "ref_s": ref_s,
        "digest": h.hexdigest(),
        "errors": errors,
        "snapshot_write_s": median(writes),
        "snapshot_load_s": median(loads),
        "decide": decide_stats(hit_ms, miss_ms),
        "summary": {"records": published, "hits": len(hit_ms),
                    "misses": len(miss_ms), "overrides": overrides},
    }
