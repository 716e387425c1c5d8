"""Training driver: one deterministic run per seed, logged as JSONL.

Log contents per run: one record per completed episode (kind "episode"),
loss records (kind "loss") where a learner phase ends, or every
loss_log_every steps for a learner without phases, optional deterministic
evaluation records (kind "eval"), and one trailing END_NONE-ended episode
record per worker still mid-episode when the step budget runs out, so
episode lengths always sum to total_steps. A phase that the budget cut
short is closed, and its losses logged, after the final eval.

The learner owns this schedule: the harness steps `agent.n_workers` env
workers round-robin, one `runner.step()` at a time, and calls
`agent.end_phase()` every `agent.phase_steps` steps. An episode is logged
at the step that ends it, so its line records the memory state
(`memory_records`, `memory_version`) and the cumulative `fallback_rate` at
that episode's end. The run's last phase gap runs `agent.update_phase()`
instead: it logs the losses but publishes no memory generation, which no
decision would read, so the last phase's failures stay pending in
memory.bin. The step loop runs through `agent.run_beside`, beside whatever
helper process the learner offers (SAC's second critic, where a CPU is
free; PPO none), and the checkpoint is saved after it returns, from the
agent's own arrays.
Before it trains, `run_seed` has the process keep its freed heap mapped
(`forking.keep_freed_heap`), which spares each SAC update the page faults
of a heap top handed back to the kernel after the last one.

`run_seeds` trains (config, seed) runs in parallel: it deals them
round-robin over `forking.processes(len(runs))` processes, this one and
children forked through one `forking.beside` call; each process trains its
runs one after another and, before each, re-raises a failed child's error.
A seed draws only from its own streams, so each seed's files are
byte-identical to a run of that seed alone. `run_config` runs a config's
seeds so, and `summary.json` lists them in config order.

Random streams per seed: [seed, 0] agent init, [seed, 1, w] actions,
[seed, 2, w] env noise, [seed, 3] learner batches, [seed, 4] memory
training, [seed, 5] evaluation env.
"""

from __future__ import annotations

import json
import os
from collections import deque
from functools import partial

import numpy as np

from .. import checkpoint, forking, serialize
from ..agents import AGENTS
from ..envs import REGISTRY, make
from ..envs.runner import VecRunner, eval_episode
from ..errors import UsageError
from ..memory import END_HAZARD, END_NONE
from . import jsonl
from .config import RunConfig, parse_config, render_config

ROLLING_WINDOW = 20


def build_agent(rc: RunConfig, spec, seed: int):
    return AGENTS[rc.agent_kind](spec, rc.agent, seed,
                                 fema_cfg=rc.fema if rc.fema_enabled else None)


def _echo_comments(seed: int, spec) -> tuple:
    return (
        "run configuration echo (re-parses to the same settings)",
        f"seed = {seed}",
        "env spec: " + json.dumps(spec.to_dict(), sort_keys=True),
    )


class _RunLog:
    """Rolling episode statistics plus the JSONL emit path."""

    def __init__(self, fh):
        self.fh = fh
        self.returns = deque(maxlen=ROLLING_WINDOW)
        self.lengths = deque(maxlen=ROLLING_WINDOW)
        self.episodes = 0
        self.hazards = 0

    def _emit(self, step, worker, return_, length, end, agent) -> None:
        mem = agent.memory
        jsonl.append_record(self.fh, {
            "kind": "episode",
            "step": step,
            "episode": self.episodes,
            "worker": worker,
            "return": return_,
            "length": length,
            "end": end,
            "mean_return": float(np.mean(self.returns)) if self.returns else 0.0,
            "mean_length": float(np.mean(self.lengths)) if self.lengths else 0.0,
            "memory_records": len(mem.records) if mem is not None else 0,
            "memory_version": mem.version if mem is not None else -1,
            "fallback_rate": agent.fallback_rate(),
        })

    def episode(self, rec, agent) -> None:
        self.episodes += 1
        self.hazards += rec.end == END_HAZARD
        self.returns.append(rec.return_)
        self.lengths.append(rec.length)
        self._emit(rec.end_step, rec.worker, rec.return_, rec.length,
                   rec.end, agent)

    def partial(self, step, worker, return_, length, agent) -> None:
        """Unfinished episode at budget end; excluded from rolling means."""
        self.episodes += 1
        self._emit(step, worker, return_, length, END_NONE, agent)

    def loss(self, step: int, losses: dict) -> None:
        if not losses:
            return
        record = {"kind": "loss", "step": step}
        record.update(losses)
        jsonl.append_record(self.fh, record)

    def eval(self, step: int, records: list) -> None:
        jsonl.append_record(self.fh, {
            "kind": "eval",
            "step": step,
            "episodes": len(records),
            "mean_return": float(np.mean([r.return_ for r in records])),
            "mean_length": float(np.mean([r.length for r in records])),
        })


def run_seed(rc: RunConfig, seed: int, run_dir) -> dict:
    """Train one seed to completion; returns the run's summary row."""
    forking.keep_freed_heap()
    os.makedirs(run_dir, exist_ok=True)
    spec = REGISTRY[rc.env_kind].spec
    serialize.write_atomic(
        os.path.join(run_dir, "config.txt"),
        render_config(rc, comments=_echo_comments(seed, spec)).encode("utf-8"))

    agent = build_agent(rc, spec, seed)
    envs = [make(rc.env_kind, np.random.default_rng([seed, 2, w]))
            for w in range(agent.n_workers)]
    action_rngs = [np.random.default_rng([seed, 1, w])
                   for w in range(agent.n_workers)]
    runner = VecRunner(envs, agent, action_rngs)
    eval_env = None
    if rc.eval_every > 0:
        eval_env = make(rc.env_kind, np.random.default_rng([seed, 5]))

    period = agent.phase_steps or rc.loss_log_every

    metrics_path = os.path.join(run_dir, "metrics.jsonl")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        log = _RunLog(fh)

        def loop() -> None:
            for step in range(1, rc.total_steps + 1):
                rec = runner.step()
                if rec is not None:
                    log.episode(rec, agent)
                if step % period == 0:
                    last = agent.phase_steps and step == rc.total_steps
                    log.loss(step, agent.update_phase() if last else agent.end_phase())
                if rc.eval_every > 0 and step % rc.eval_every == 0:
                    evals = [eval_episode(agent.policy, eval_env)
                             for _ in range(rc.eval_episodes)]
                    log.eval(step, evals)
            if agent.phase_steps and rc.total_steps % period:
                log.loss(rc.total_steps, agent.update_phase())

        agent.run_beside(loop, rc.total_steps)
        for w in range(agent.n_workers):
            if runner.ep_length[w] > 0:
                log.partial(rc.total_steps, w, runner.ep_return[w],
                            runner.ep_length[w], agent)

    checkpoint.save_checkpoint(os.path.join(run_dir, "checkpoint.bin"), agent,
                               rc.env_kind, rc.total_steps)
    if agent.memory is not None:
        agent.memory.snapshot(os.path.join(run_dir, "memory.bin"))

    return {
        "seed": seed,
        "dir": os.path.basename(os.path.normpath(run_dir)),
        "episodes": log.episodes,
        "hazard_episodes": log.hazards,
        "final_mean_return": float(np.mean(log.returns)) if log.returns else 0.0,
        "final_mean_length": float(np.mean(log.lengths)) if log.lengths else 0.0,
        "memory_records": (len(agent.memory.records)
                           if agent.memory is not None else 0),
        "fallback_rate": agent.fallback_rate(),
    }


def run_seeds(root: str, runs: list) -> list:
    """Train each (RunConfig, seed) of `runs` into <out_dir>/seed<seed>;
    returns their summary rows in `runs` order. A child is named by its
    runs' directories relative to `root`."""
    runs = [(rc, seed, os.path.join(rc.out_dir, f"seed{seed}")) for rc, seed in runs]
    n = forking.processes(len(runs))
    parts = [runs[k::n] for k in range(n)]

    def run_part(part: list, check=lambda: None) -> list:
        rows = []
        for run in part:
            check()
            rows.append(run_seed(*run))
        return rows

    def name(part: list) -> str:
        return f"runs [{', '.join(os.path.relpath(d, root) for *_, d in part)}]"

    here, there = forking.beside(
        partial(run_part, parts[0]),
        {name(part): partial(run_part, part) for part in parts[1:]})
    done = [here, *there]
    return [done[i % n][i // n] for i in range(len(runs))]


def write_summary(rc: RunConfig, rows: list, seed_offset: int = 0) -> None:
    """<out_dir>/summary.json of a config whose seeds gave `rows`."""
    summary = {
        "agent": rc.agent_kind,
        "env": rc.env_kind,
        "fema_enabled": rc.fema_enabled,
        "total_steps": rc.total_steps,
        "seed_offset": seed_offset,
        "runs": rows,
    }
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    serialize.write_atomic(os.path.join(rc.out_dir, "summary.json"),
                           text.encode("utf-8"))


def run_config(rc: RunConfig, seed_offset: int = 0) -> str:
    if min(rc.seeds) + seed_offset < 0:
        raise UsageError(f"seed offset {seed_offset} makes seed "
                         f"{min(rc.seeds) + seed_offset} negative")
    os.makedirs(rc.out_dir, exist_ok=True)
    rows = run_seeds(rc.out_dir, [(rc, seed + seed_offset) for seed in rc.seeds])
    write_summary(rc, rows, seed_offset)
    return rc.out_dir


def cmd_train(config_path, seed_offset: int = 0,
              environ: dict | None = None) -> str:
    """Run every seed of a config; returns the output directory."""
    rc = parse_config(config_path, environ=environ)
    return run_config(rc, seed_offset)
