"""PPO's run bytes: pinned digests of whole `run_seed` runs.

A PPO run steps its workers one at a time, round-robin, in the calling
process, and forks nothing, whatever the CPUs that `forking` sees
(`helpers.count_forks` sets them). Its output files must keep the bytes
pinned below.
"""

import pytest

from fema.harness.config import parse_text
from fema.harness.train import run_seed

from helpers import count_forks, pin_digest

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
train_epochs = 2
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
# splits phases and the budget of 170 ends mid-phase too.
PINNED = {
    ("grid_hazard", 2, 200, 0):
        ("18626af3f1399961", "f96a844889301e82", "fefd8f28349de12c"),
    ("grid_hazard", 2, 170, 50):
        ("035a2f43148f603f", "ddbe10c0fc910a27", "c3909ff86d9414cf"),
    ("grid_hazard", 3, 200, 0):
        ("694fcf814a35b448", "893fa99d3db2aed4", "956dc0d7bc70ff25"),
    ("grid_hazard", 3, 170, 50):
        ("d4e0ee18d5442309", "c1ed564a250ffc5d", "2cce68012aaf773d"),
    ("cliff_corridor", 2, 200, 0):
        ("7f67d2d122877d35", "04246900ed196c3b", "61a4b53cbb3b776b"),
    ("cliff_corridor", 2, 170, 50):
        ("d488866e5d9fb485", "cb0745551ea89858", "61a4b53cbb3b776b"),
    ("cliff_corridor", 3, 200, 0):
        ("517d4f28165abff8", "993bba3ec237e6d5", "818af214e5481c58"),
    ("cliff_corridor", 3, 170, 50):
        ("7f270e8b35413acc", "1223fe422a074867", "13960acb71543600"),
}


class TestLaneIdentity:
    # The ids date from when 8 CPUs acted PPO's workers in forked lanes.
    @pytest.mark.parametrize("cpus", [1, 8], ids=["sequential", "lanes"])
    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_outputs_match_round_robin(self, tmp_path, monkeypatch, case, cpus):
        """At 1 and at 8 CPUs the run forks nothing and gives the pinned
        bytes."""
        env, workers, total, eval_every = case
        forks = count_forks(monkeypatch, cpus)
        rc = parse_text(PPO_RUN.format(env=env, workers=workers, total=total,
                                       eval_every=eval_every))
        run_seed(rc, 7, tmp_path)
        got = tuple(pin_digest(name, (tmp_path / name).read_bytes())
                    for name in ("metrics.jsonl", "checkpoint.bin", "memory.bin"))
        assert got == PINNED[case]
        assert forks == []
