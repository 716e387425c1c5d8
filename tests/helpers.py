"""Test-only helpers built on the package: zero networks, an episode driver,
a count of the transitions an agent still holds, checkpoints of chosen
state and their edited copies, the digest of a run's output files that pins
compare, the one patch point through which tests choose the CPUs
`fema.forking` sees and count what it forks, whether a process it forked
still runs, and a wait for such processes that kills those left running."""

import contextlib
import gc
import hashlib
import json
import os
import signal
import tempfile
import time
import weakref

import numpy as np
import pytest

from fema import forking, serialize
from fema.agents import AGENTS, AgentConfig
from fema.checkpoint import load_checkpoint, save_checkpoint
from fema.envs.base import EnvSpec
from fema.envs.runner import EpisodeRecord
from fema.memory import END_NONE, FailureMemory, FemaConfig, Transition
from fema.numeric import Mlp, default_acts


def mlp_zeros(widths, acts=None) -> Mlp:
    """All-zero parameters, for zero-case tests."""
    if acts is None:
        acts = default_acts(len(widths) - 1)
    n = sum((n_in + 1) * n_out for n_in, n_out in zip(widths, widths[1:]))
    return Mlp(widths, acts, np.zeros(n))


def run_episode(agent, env, action_rng, start_step: int = 0,
                worker: int = 0) -> EpisodeRecord:
    """Drive one full episode with the agent's training-time behavior.

    Steps the environment until it reports a terminal tag, feeding every
    transition back through agent.observe. Returns the finished episode's
    record; the global step counter resumes from start_step.
    """
    s = env.reset()
    total = 0.0
    step = start_step
    while True:
        a = agent.act_train(s, action_rng, worker)
        res = env.step(a)
        step += 1
        tr = Transition(s=np.array(s, dtype=np.float64),
                        a=np.array(a, dtype=np.float64),
                        r=float(res.reward),
                        s_next=np.array(res.state, dtype=np.float64),
                        end=res.end)
        agent.observe(tr, worker, step)
        total += float(res.reward)
        if res.end != END_NONE:
            return EpisodeRecord(return_=total, length=step - start_step,
                                 end=res.end, end_step=step, worker=worker)
        s = res.state


def held_transitions(agent, steps: int, workers: int = 2) -> int:
    """Feed `steps` non-terminal transitions per worker through act_train and
    observe, round-robin, then count how many of them the agent still holds."""
    rng = np.random.default_rng(0)
    refs = []
    for step in range(1, steps * workers + 1):
        w = step % workers
        s = rng.standard_normal(agent.spec.d_s)
        a = np.asarray(agent.act_train(s, rng, w), dtype=np.float64)
        tr = Transition(s=s, a=a, r=0.0, s_next=s.copy(), end=END_NONE)
        agent.observe(tr, w, step)
        refs.append(weakref.ref(tr))
    del tr
    gc.collect()
    return sum(ref() is not None for ref in refs)


def save_agent(path, algo: str, d_s: int, d_a: int, hidden: int, fema=False,
               **state):
    """Checkpoint a fresh `algo` agent, for an env of widths d_s and d_a at
    policy width `hidden`, to `path` after setting the attributes in
    `state` (a policy, a stack); returns the agent."""
    spec = EnvSpec(name="probe", d_s=d_s, d_a=d_a, action_low=(-1.0,) * d_a,
                   action_high=(1.0,) * d_a, max_steps=10, hazard="none")
    agent = AGENTS[algo](spec, AgentConfig(hidden=hidden), seed=0,
                         fema_cfg=FemaConfig() if fema else None)
    for name, value in state.items():
        setattr(agent, name, value)
    save_checkpoint(path, agent, "probe", 0)
    return agent


def edit_checkpoint(path, meta=(), blobs=()) -> None:
    """Seal the checkpoint at `path` again with the fields in `meta` set in
    its meta blob and the blobs in `blobs` set (None: removed)."""
    parts = serialize.load_blobs(path)
    parts["meta"] = json.dumps({**json.loads(parts["meta"]), **dict(meta)}).encode()
    parts.update(blobs)
    serialize.save_blobs(path, {k: v for k, v in parts.items() if v is not None})


def checkpoint_content(path) -> bytes:
    """What the checkpoint at `path` holds, as `load_checkpoint` returns it:
    its meta fields, then every parameter vector (the policy's, the
    learner's saved nets and arrays in order, and the stack's)."""
    ckpt = load_checkpoint(path)
    policy, stack = ckpt.policy, ckpt.stack
    head = [ckpt.algo, ckpt.env, ckpt.step, ckpt.fema_on, policy.d_s, policy.d_a,
            policy.trunk.out_dim, policy.squash, policy.scale.tolist(),
            policy.logstd_head is not None, list(ckpt.nets), list(ckpt.arrays)]
    vectors = [policy.flat, *(net.flat for net in ckpt.nets.values()),
               *ckpt.arrays.values()]
    if stack is not None:
        head += [stack.d_z, stack.d_z_a, stack.d_phi, stack.version, stack.adam.lr]
        vectors.append(stack.flat)
    return json.dumps(head).encode("utf-8") + b"".join(v.tobytes() for v in vectors)


def pin_digest(name: str, data: bytes) -> str:
    """The 16-hex-digit sha256 prefix that pins the run output file `name`.

    `metrics.jsonl` is hashed as is. A `checkpoint.bin` is hashed by
    `checkpoint_content`, and a `memory.bin` by what it holds (config,
    generation version, next seq, each tail's seq, states, actions and
    returns, and the generation's arrays), so that neither pin depends on
    the file format.
    """
    if name == "checkpoint.bin":
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(data)
            data = checkpoint_content(path)
    elif name == "memory.bin":
        mem = FailureMemory.from_bytes(data)
        gen = mem.records
        head = json.dumps([mem.cfg.to_dict(), mem.version, mem.next_seq], sort_keys=True)
        parts = [head.encode("utf-8")]
        for tail in [*mem.events, *mem.pending]:
            parts += [np.int64(tail.seq).tobytes(), tail.s.tobytes(), tail.a.tobytes(),
                      tail.returns.tobytes()]
        parts += [x.tobytes() for x in (gen.z_s, gen.phi, gen.mc_return, gen.event_seq,
                                        gen.step_idx)]
        data = b"".join(parts)
    return hashlib.sha256(data).hexdigest()[:16]


def count_forks(monkeypatch, cpus: int) -> list:
    """Let `forking` see `cpus` usable CPUs, and record each
    `forking.beside` call as the list of the work names it forks; returns
    the list those records land in."""
    forks = []
    beside = forking.beside

    def counted(here, away):
        forks.append(list(away))
        return beside(here, away)

    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(forking, "beside", counted)
    return forks


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def process_state(pid: int) -> str:
    """The state letter of process `pid` in /proc ("R" running, "S"
    sleeping, ...); "" once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return ""


def running(pid: int) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has)."""
    return process_state(pid) not in ("", "Z", "X")


def left_running(pids, deadline: float) -> list:
    """Those of `pids` still running once all have exited or
    time.monotonic() has passed `deadline`. Each of them is SIGKILLed
    before this returns, so that a failed test leaves no orphan holding the
    test run's output open."""
    try:
        while time.monotonic() < deadline and any(map(running, pids)):
            time.sleep(0.01)
        return [pid for pid in pids if running(pid)]
    finally:
        for pid in pids:
            if running(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
