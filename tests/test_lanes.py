"""PPO's run bytes: pinned digests of whole `run_seed` runs.

A PPO run steps its workers one at a time, round-robin, in the calling
process, whatever the CPUs that `forking` sees (`helpers.count_forks` sets
them). A publish forks a risk helper only where a CPU is free and it trains
for `embedding.FORK_STEPS` minibatch steps or more; the pinned runs'
publishes are smaller, so they fork nothing. Their output files must keep
the bytes pinned below, and a run whose publishes fork must give the bytes
of the same run at 1 CPU. The run's last phase gap trains no memory
generation.
"""

import hashlib
import json
import os

import pytest

from fema.agents.ppo import PpoAgent
from fema.harness.config import parse_text
from fema.harness.train import run_seed
from fema.memory import FailureMemory

from helpers import assert_no_children, count_forks, pin_digest

PPO_RUN = """\
[run]
agent = ppo
env = {env}
seeds = 0
total_steps = {total}
out_dir = unused
eval_every = {eval_every}
eval_episodes = 1

[agent]
hidden = 16
rollout_steps = 60
n_workers = {workers}
ppo_epochs = 2
minibatch = 16

[fema]
enabled = true
suffix_len = 3
update_every = 3
capacity = 16
train_epochs = {epochs}
train_batch = 8
n_candidates = 3
max_matches = 2
"""

# `helpers.pin_digest` of metrics.jsonl, checkpoint.bin and memory.bin of
# seed 7, written by a runner that stepped one worker at a time (x86-64,
# numpy 2.4.6, scipy-openblas 0.3.31); the checkpoint and memory columns
# hash the files' content, so they hold across file formats (the checkpoint
# column was re-derived from the format-1 files, read with the format-1
# loader). A budget of 200 ends mid-phase; an eval_every of 50
# splits phases and the budget of 170 ends mid-phase too. The first three
# columns were re-pinned when the last phase gap stopped publishing. The
# metrics.jsonl and `settled_digest` columns were re-pinned again when each
# episode line came to read the cumulative fallback rate at the episode's
# own end rather than at the end of its phase or eval block; the checkpoint
# and memory columns held, and so did every other field of every line.
PINNED = {
    ("grid_hazard", 2, 200, 0):
        ("5f4ffea667d573ef", "e0f7dc428779d3ba", "fecb0b0297bfe4d5",
         "80962f689b0da4d2"),
    ("grid_hazard", 2, 170, 50):
        ("9160e69987dcf45a", "2efd8d8b382d448b", "22fd79f23c833982",
         "412584c3c236edeb"),
    ("grid_hazard", 3, 200, 0):
        ("247bfc45496f3461", "c30c66b4a23079d1", "f3ce3e6d14243780",
         "560d1287d0b7e631"),
    ("grid_hazard", 3, 170, 50):
        ("353738952309876c", "a5036c14a29521d1", "f0a85232440293cb",
         "3a3ba0cd1d205508"),
    ("cliff_corridor", 2, 200, 0):
        ("94cc72b5f50d18a2", "04246900ed196c3b", "61a4b53cbb3b776b",
         "f7d909de540b0dc2"),
    ("cliff_corridor", 2, 170, 50):
        ("4cf954be9ebd244f", "d30f96d99273b9e4", "0c6dd6d714d0f895",
         "7f09546482478655"),
    ("cliff_corridor", 3, 200, 0):
        ("517d4f28165abff8", "993bba3ec237e6d5", "818af214e5481c58",
         "809b9a8c242e9fec"),
    ("cliff_corridor", 3, 170, 50):
        ("b4414d7f9483bed4", "e1f3a7a7e7fde4d7", "3dd47f8e0711ce84",
         "2cdc9fb667277f6b"),
}


def settled_digest(metrics: bytes) -> str:
    """16-hex-digit sha256 prefix of metrics.jsonl without the trailing
    records of episodes the budget cut off (end "none")."""
    kept = b"".join(line for line in metrics.splitlines(keepends=True)
                    if json.loads(line).get("end") != "none")
    return hashlib.sha256(kept).hexdigest()[:16]


def ppo_run(env="grid_hazard", workers=2, total=200, eval_every=0, epochs=2):
    return parse_text(PPO_RUN.format(env=env, workers=workers, total=total,
                                     eval_every=eval_every, epochs=epochs))


class TestLaneIdentity:
    # The ids date from when 8 CPUs acted PPO's workers in forked lanes.
    @pytest.mark.parametrize("cpus", [1, 8], ids=["sequential", "lanes"])
    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_outputs_match_round_robin(self, tmp_path, monkeypatch, case, cpus):
        """At 1 and at 8 CPUs the run gives the pinned bytes, and its
        publishes, below the fork size, fork nothing."""
        env, workers, total, eval_every = case
        forks = count_forks(monkeypatch, cpus)
        run_seed(ppo_run(env, workers, total, eval_every), 7, tmp_path)
        got = tuple(pin_digest(name, (tmp_path / name).read_bytes())
                    for name in ("metrics.jsonl", "checkpoint.bin", "memory.bin"))
        settled = settled_digest((tmp_path / "metrics.jsonl").read_bytes())
        assert (*got, settled) == PINNED[case]
        assert forks == []


class TestRiskHelper:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the risk helper needs os.fork")
    def test_forking_publishes_keep_the_bytes(self, tmp_path, monkeypatch):
        """With 16 times the pinned runs' training epochs, the last two of
        the three publishes reach the fork size and fork the risk helper at
        2 CPUs, and the three files are the bytes of the run at 1 CPU."""
        rc = ppo_run(epochs=32)
        files, recorded = [], []
        for cpus in (2, 1):
            with monkeypatch.context() as patch:
                forks = count_forks(patch, cpus)
                run_seed(rc, 7, tmp_path / str(cpus))
            files.append([(tmp_path / str(cpus) / name).read_bytes()
                          for name in ("metrics.jsonl", "checkpoint.bin", "memory.bin")])
            recorded.append(forks)
        assert files[0] == files[1]
        assert recorded == [[["risk helper"]] * 2, []]
        assert_no_children()


class TestLastGap:
    # 180 ends on a phase gap, 200 cuts the fourth phase short.
    @pytest.mark.parametrize("total, n_gaps", [(180, 3), (200, 4)])
    def test_publishes_at_every_due_gap_but_the_last(self, tmp_path,
                                                     monkeypatch, total, n_gaps):
        """Each gap but the last publishes exactly when a publish is due;
        the last gap, due here too, publishes nothing."""
        events = []
        update, update_phase = FailureMemory.update, PpoAgent.update_phase

        def counted_update(memory, stack):
            events.append("publish")
            return update(memory, stack)

        def counted_gap(agent):
            events.append(("gap", agent.memory.publish_due()))
            return update_phase(agent)

        monkeypatch.setattr(FailureMemory, "update", counted_update)
        monkeypatch.setattr(PpoAgent, "update_phase", counted_gap)
        run_seed(ppo_run(total=total), 7, tmp_path)
        gaps = [due for event, due in (e for e in events if e != "publish")]
        want = []
        for due in gaps[:-1]:
            want += [("gap", due)] + ["publish"] * due
        assert events == want + [("gap", gaps[-1])]
        assert len(gaps) == n_gaps and gaps[-1] and sum(gaps[:-1]) >= 2
