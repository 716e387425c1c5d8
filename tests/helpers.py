"""Test-only helpers built on the package: zero networks, an episode driver,
a count of the transitions an agent still holds, the digest of a run's
output files that pins compare, and the one patch point through which
tests choose the CPUs `fema.forking` sees and count what it forks."""

import gc
import hashlib
import json
import os
import weakref
import zlib

import numpy as np
import pytest

from fema import forking
from fema.envs.runner import EpisodeRecord
from fema.memory import END_NONE, FailureMemory, Transition
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


def pin_digest(name: str, data: bytes) -> str:
    """The 16-hex-digit sha256 prefix that pins the run output file `name`.

    `metrics.jsonl` is hashed as is. A `checkpoint.bin` is hashed without
    its 4-byte CRC32 trailer, which is checked, so the pin covers the
    container body alone. A `memory.bin` is hashed by what it holds (config,
    generation version, next seq, each tail's seq, states, actions and
    returns, and the generation's arrays), so that the pin does not depend
    on the snapshot format.
    """
    if name == "checkpoint.bin":
        data, trailer = data[:-4], data[-4:]
        assert zlib.crc32(data).to_bytes(4, "little") == trailer
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
