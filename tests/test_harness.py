import hashlib
import json
import os
import re
import time
import warnings

import numpy as np
import pytest

from fema import checkpoint, embedding, forking, numeric, serialize
from fema.agents import AGENTS, sac
from fema.agents.common import AgentConfig
from fema.agents.ppo import PpoAgent
from fema.agents.sac import SacAgent
from fema.envs import make
from fema.errors import (
    CoherenceError,
    ConfigError,
    FemaError,
    SerializationError,
    UsageError,
)
from fema.harness import jsonl, train
from fema.harness.ablate import cmd_ablate, derive_cell
from fema.harness.cli import main
from fema.harness.config import (
    RunConfig,
    SchemaWarning,
    parse_config,
    parse_text,
    render_config,
)
from fema.harness.evaluate import cmd_eval, format_table
from fema.harness.report import (
    SeedSeries,
    cmd_report,
    curve_rows,
    length_window_rows,
    load_run_dir,
    max_mean_return,
    report_run,
    smooth,
    steps_to_threshold,
    step_grid,
    value_at,
)
from fema.harness.train import build_agent, cmd_train, run_config, run_seed

from helpers import assert_no_children, count_forks, edit_checkpoint, pin_digest

MINIMAL = """\
[run]
agent = sac
env = grid_hazard
seeds = 0
total_steps = 10
out_dir = {out_dir}

[fema]
n_candidates = 1
"""

# Small-everything settings so a full training run costs well under a second.
TINY_SAC = """\
[run]
agent = sac
env = grid_hazard
seeds = 0, 1
total_steps = 90
out_dir = {out_dir}
loss_log_every = 30
eval_every = 45
eval_episodes = 2
threshold_return = -10.0

[agent]
hidden = 16
batch_size = 16
buffer_capacity = 500
warmup_steps = 40
update_interval = 4

[fema]
enabled = true
suffix_len = 3
update_every = 2
capacity = 16
train_epochs = 2
train_batch = 8
n_candidates = 3
max_matches = 2
"""

TINY_PPO = """\
[run]
agent = ppo
env = grid_hazard
seeds = 0
total_steps = 90
out_dir = {out_dir}

[agent]
hidden = 16
rollout_steps = 45
n_workers = 2
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


def write_config(tmp_path, text, out_name="run", **extra):
    path = tmp_path / "config.txt"
    path.write_text(text.format(out_dir=tmp_path / out_name, **extra))
    return path


def read_jsonl_kinds(run_dir, seed):
    records = jsonl.read_records(os.path.join(run_dir, f"seed{seed}",
                                              "metrics.jsonl"))
    return records, {r["kind"] for r in records}


class TestConfigParsing:
    def test_typed_values(self, tmp_path):
        rc = parse_text(TINY_SAC.format(out_dir=tmp_path))
        assert rc.agent_kind == "sac"
        assert rc.env_kind == "grid_hazard"
        assert rc.seeds == (0, 1)
        assert isinstance(rc.total_steps, int) and rc.total_steps == 90
        assert rc.threshold_return == -10.0
        assert rc.fema_enabled is True
        assert rc.fema.update_every == 2
        assert rc.agent.hidden == 16
        agent = build_agent(rc, make(rc.env_kind, np.random.default_rng(0)).spec, 0)
        assert type(agent) is SacAgent
        assert agent.memory is not None

    def test_defaults_fill_unset_fields(self, tmp_path):
        rc = parse_text(MINIMAL.format(out_dir=tmp_path))
        assert rc.loss_log_every == 1000
        assert rc.eval_every == 0
        assert rc.threshold_return is None
        assert rc.sweep_axis == "none"
        assert rc.fema_enabled is False
        assert rc.agent == AgentConfig()

    def test_unknown_section_with_line(self):
        text = "[run]\nagent = sac\n[bogus]\nx = 1\n"
        with pytest.raises(ConfigError, match=r"<config>:3: unknown section"):
            parse_text(text)

    def test_unknown_field_with_line(self, tmp_path):
        text = MINIMAL.format(out_dir=tmp_path) + "[agent]\nlearning_rate = 1\n"
        with pytest.raises(ConfigError,
                           match=r":\d+: unknown field 'agent.learning_rate'"):
            parse_text(text)

    def test_duplicate_field_rejected(self, tmp_path):
        text = MINIMAL.format(out_dir=tmp_path) + "[run]\nagent = ppo\n"
        with pytest.raises(ConfigError,
                           match=r":\d+: duplicate field 'run.agent'"):
            parse_text(text)

    def test_missing_required_field(self):
        text = "[run]\nagent = sac\nenv = grid_hazard\nseeds = 0\n"
        with pytest.raises(ConfigError,
                           match="missing required field 'run.total_steps'"):
            parse_text(text)

    def test_bad_int_value_diagnostic(self, tmp_path):
        text = MINIMAL.format(out_dir=tmp_path).replace(
            "total_steps = 10", "total_steps = ten")
        with pytest.raises(ConfigError,
                           match=r":\d+: field 'run.total_steps': bad int"):
            parse_text(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="key outside any"):
            parse_text("agent = sac\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_text("[run]\njust words\n")

    def test_duplicate_seeds_rejected(self, tmp_path):
        text = MINIMAL.format(out_dir=tmp_path).replace(
            "seeds = 0", "seeds = 0, 0")
        with pytest.raises(ConfigError, match="distinct"):
            parse_text(text)

    def test_negative_seed_rejected(self, tmp_path):
        text = MINIMAL.format(out_dir=tmp_path).replace(
            "seeds = 0", "seeds = 2, -1")
        with pytest.raises(ConfigError, match="seeds must be >= 0, got -1"):
            parse_text(text)

    def test_eval_cadence_needs_episodes(self, tmp_path):
        text = MINIMAL.format(out_dir=tmp_path).replace(
            "[fema]", "eval_every = 5\n\n[fema]")
        with pytest.raises(ConfigError, match="eval_episodes"):
            parse_text(text)

    def test_buffer_smaller_than_batch_rejected(self, tmp_path):
        """A replay buffer that never holds one batch would never update."""
        text = MINIMAL.format(out_dir=tmp_path).replace(
            "[fema]", "[agent]\nbuffer_capacity = 10\n\n[fema]")
        with pytest.raises(ConfigError,
                           match=r"buffer_capacity \(10\) .* batch_size \(128\)"):
            parse_text(text)

    def test_unknown_env_kind(self, tmp_path):
        text = MINIMAL.format(out_dir=tmp_path).replace(
            "env = grid_hazard", "env = lava_lake")
        with pytest.raises(ConfigError, match="unknown env kind"):
            parse_text(text)

    def test_schema_warning_inert_candidates(self, tmp_path):
        text = MINIMAL.format(out_dir=tmp_path).replace(
            "n_candidates = 1", "n_candidates = 4")
        with pytest.warns(SchemaWarning, match="n_candidates"):
            rc = parse_text(text)
        assert rc.fema.n_candidates == 4 and not rc.fema_enabled

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# leading note\n\n" + MINIMAL.format(out_dir=tmp_path)
        assert parse_text(text) == parse_text(MINIMAL.format(out_dir=tmp_path))

    def test_render_round_trip(self, tmp_path):
        rc = parse_text(TINY_SAC.format(out_dir=tmp_path))
        assert parse_text(render_config(rc)) == rc

    def test_render_round_trip_with_comments(self, tmp_path):
        rc = parse_text(TINY_PPO.format(out_dir=tmp_path))
        text = render_config(rc, comments=("one", "two = three"))
        assert text.startswith("# one\n# two = three\n")
        assert parse_text(text) == rc

    def test_env_override_typed(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        rc = parse_config(path, environ={
            "FEMA_RUN__TOTAL_STEPS": "777",
            "FEMA_RUN__SEEDS": "4, 5",
            "FEMA_AGENT__HIDDEN": "8",
            "PATH": "/usr/bin",
            "FEMA_NOT_AN_OVERRIDE": "ignored",
        })
        assert rc.total_steps == 777
        assert rc.seeds == (4, 5)
        assert rc.agent.hidden == 8

    def test_env_override_unknown_field(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError,
                           match="env:FEMA_RUN__BOGUS: no config field"):
            parse_config(path, environ={"FEMA_RUN__BOGUS": "1"})

    def test_env_override_bad_value(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError,
                           match="env:FEMA_RUN__TOTAL_STEPS.*bad int"):
            parse_config(path, environ={"FEMA_RUN__TOTAL_STEPS": "many"})

    def test_env_override_flips_memory_switch(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        rc = parse_config(path, environ={"FEMA_FEMA__ENABLED": "true"})
        assert rc.fema_enabled is True
        agent = build_agent(rc, make(rc.env_kind, np.random.default_rng(0)).spec, 0)
        assert type(agent) is SacAgent
        assert agent.memory is not None

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [
        "discount", "policy_lr", "critic_lr", "temp_lr", "tau", "init_temp",
        "clip_ratio", "gae_lambda", "ent_coef", "kl_stop", "init_logstd"])
    def test_non_finite_agent_float_rejected(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            AgentConfig(**{field: float(value)}).validate()
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match=field):
            parse_config(path, environ={f"FEMA_AGENT__{field.upper()}": value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_return_rejected(self, tmp_path, value):
        text = MINIMAL.replace("[fema]", f"threshold_return = {value}\n\n[fema]")
        with pytest.raises(ConfigError, match="threshold_return"):
            parse_config(write_config(tmp_path, text))
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="threshold_return"):
            parse_config(path, environ={"FEMA_RUN__THRESHOLD_RETURN": value})
        assert parse_config(path, environ={
            "FEMA_RUN__THRESHOLD_RETURN": "none"}).threshold_return is None

    def test_unknown_agent_kind_via_dataclass(self, tmp_path):
        rc = parse_text(MINIMAL.format(out_dir=tmp_path))
        from dataclasses import replace
        with pytest.raises(ConfigError, match="unknown agent kind"):
            replace(rc, agent_kind="dqn").validate()

    # sha256 of each shipped config's canonical rendering; a schema change
    # that moves a key, a default or a number format changes these bytes
    @pytest.mark.parametrize("name,digest", [
        ("cliff_radius_sweep.txt",
         "eb10d94594338487baa4765992934acaf468843e4dcd50ca5a40d424042eed37"),
        ("cliff_sac_baseline.txt",
         "de6f3a17143a2028725bdc72cf2b2aff83beba540b58d9350b046702b38895b8"),
        ("cliff_sac_memory.txt",
         "2391e6210ae704eed3c6ba327022d122c421b49018793c51bc30b0cdeae8aa6d"),
        ("grid_hazard_ppo_demo.txt",
         "c1140eabb7d09e46ff70767705937b5caaf1e76f938e9ea17fcfaab365395438"),
        ("tilt_pole_sac_demo.txt",
         "4a47bd86874102bac2380fffa7b8c242ff3a6448643d8f332f41d3d3b55a845e"),
    ])
    def test_shipped_config_renders_unchanged(self, name, digest):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        text = render_config(parse_config(path))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestJsonl:
    def test_numpy_values_become_plain_json(self, tmp_path):
        path = tmp_path / "log.jsonl"
        record = {
            "f": np.float64(1.5),
            "i": np.int64(4),
            "b": np.bool_(True),
            "v": np.array([1.0, 2.0]),
            "nested": {"x": np.int32(7)},
            "items": [np.float32(0.5)],
        }
        with open(path, "w") as fh:
            jsonl.append_record(fh, record)
        back = jsonl.read_records(path)
        assert back == [{"f": 1.5, "i": 4, "b": True, "v": [1.0, 2.0],
                         "nested": {"x": 7}, "items": [0.5]}]

    def test_compact_sorted_encoding(self):
        line = jsonl.dump_record({"b": 1, "a": 2})
        assert line == '{"a":2,"b":1}'

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"kind":"episode"}\nnot json\n')
        with pytest.raises(SerializationError, match=r"log\.jsonl:2"):
            jsonl.read_records(path)


# one JSON value of each kind, and edge values of the numeric ones
ODD_JSON = [None, True, False, -1, 0, 1, 2**70, 1.5, float("nan"),
            float("inf"), "x", [], {}, [1.0], {"d_z": 1}]


def same_policy(a, b) -> bool:
    """Two policies of one squash, scale, std kind and parameter vectors."""
    return ((a.squash, a.scale.tobytes(), a.logstd_head is None)
            == (b.squash, b.scale.tobytes(), b.logstd_head is None)
            and a.flat.tobytes() == b.flat.tobytes())


class TestCheckpoint:
    def make_agent(self, algo, fema=True):
        env = make("tilt_pole", np.random.default_rng(0))
        cfg = AgentConfig(hidden=16)
        fema_cfg = None
        if fema:
            from fema.memory import FemaConfig
            fema_cfg = FemaConfig(suffix_len=3, update_every=2, capacity=8,
                                  train_epochs=2, train_batch=8)
        return AGENTS[algo](env.spec, cfg, seed=5, fema_cfg=fema_cfg), env

    def test_sac_round_trip_bit_exact(self, tmp_path):
        agent, _ = self.make_agent("sac")
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 123)
        data = checkpoint.load_checkpoint(path)
        assert (data.algo, data.env, data.step) == ("sac", "tilt_pole", 123)
        assert data.fema_on is True
        assert same_policy(data.policy, agent.policy)
        for name in ("q1", "q2", "q1t", "q2t"):
            assert data.nets[name].widths == getattr(agent, name).widths
            assert data.nets[name].flat.tobytes() == getattr(agent, name).flat.tobytes()
        np.testing.assert_array_equal(data.arrays["log_alpha"], agent.log_alpha)
        for key in ("d_s", "d_a", "d_z", "d_z_a", "d_phi", "version"):
            assert getattr(data.stack, key) == getattr(agent.stack, key)
        assert data.stack.adam.lr == agent.stack.adam.lr
        assert data.stack.flat.tobytes() == agent.stack.flat.tobytes()

    def test_ppo_round_trip_without_memory(self, tmp_path):
        agent, _ = self.make_agent("ppo", fema=False)
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 7)
        data = checkpoint.load_checkpoint(path)
        assert data.algo == "ppo"
        assert data.fema_on is False
        assert data.arrays == {}
        assert data.stack is None
        assert set(data.nets) == {"vnet"}
        assert data.nets["vnet"].flat.tobytes() == agent.vnet.flat.tobytes()
        assert same_policy(data.policy, agent.policy)

    def test_ppo_from_default_agent_config_round_trip(self, tmp_path):
        env = make("tilt_pole", np.random.default_rng(0))
        agent = PpoAgent(env.spec, AgentConfig(hidden=8), seed=1)
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 0)
        data = checkpoint.load_checkpoint(path)
        assert data.algo == "ppo"
        assert data.nets["vnet"].flat.tobytes() == agent.vnet.flat.tobytes()

    def test_older_file_with_rng_blob_loads(self, tmp_path):
        """Blobs the loader does not name are ignored."""
        agent, _ = self.make_agent("sac")
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 3)
        assert "rng" not in serialize.load_blobs(path)
        edit_checkpoint(path, blobs={
            "rng": b'{"learner": {"bit_generator": "PCG64"}}',
            "stack.x": b"\x00", "policy.extra": b"\x01"})
        data = checkpoint.load_checkpoint(path)
        assert data.step == 3
        assert same_policy(data.policy, agent.policy)

    def test_env_mismatch_refused(self, tmp_path):
        agent, _ = self.make_agent("sac", fema=False)
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 1)
        data = checkpoint.load_checkpoint(path)
        grid = make("grid_hazard", np.random.default_rng(0))
        with pytest.raises(CoherenceError, match="d_a=1.*d_a=2"):
            checkpoint.check_env_match(data, grid.spec)

    def test_wrong_format_refused(self, tmp_path):
        path = tmp_path / "other.bin"
        meta = json.dumps({"format": "something-else", "version": 1})
        serialize.save_blobs(path, {"meta": meta.encode()})
        with pytest.raises(SerializationError, match="not a checkpoint"):
            checkpoint.load_checkpoint(path)

    def test_wrong_version_refused(self, tmp_path):
        path = tmp_path / "versioned.bin"
        meta = json.dumps({"format": "fema-checkpoint", "version": 99})
        serialize.save_blobs(path, {"meta": meta.encode()})
        with pytest.raises(SerializationError, match="version 99"):
            checkpoint.load_checkpoint(path)

    def test_format_1_refused(self, tmp_path):
        """A format-1 file (a policy and a stack blob nesting FNET nets) is
        refused by its version."""
        path = tmp_path / "format1.bin"
        meta = {"format": "fema-checkpoint", "version": 1, "algo": "ppo",
                "env": "tilt_pole", "step": 0, "d_s": 2, "d_a": 1, "fema_on": False}
        serialize.save_blobs(path, {"meta": json.dumps(meta).encode(),
                                    "policy": b"FEMC", "vnet": b"FNET"})
        with pytest.raises(SerializationError, match="unsupported checkpoint version 1"):
            checkpoint.load_checkpoint(path)

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        agent, _ = self.make_agent("sac")
        path = tmp_path / "checkpoint.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 1)
        before = path.read_bytes()

        def disk_full(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError, match="no space"):
            checkpoint.save_checkpoint(path, agent, "tilt_pole", 2)
        with pytest.raises(OSError, match="no space"):
            serialize.write_atomic(tmp_path / "summary.json", b"{}")
        with pytest.raises(OSError, match="no space"):
            agent.memory.snapshot(tmp_path / "memory.bin")
        assert path.read_bytes() == before
        assert checkpoint.load_checkpoint(path).step == 1
        assert os.listdir(tmp_path) == ["checkpoint.bin"]

    def test_missing_meta_refused(self, tmp_path):
        path = tmp_path / "empty.bin"
        serialize.save_blobs(path, {"policy": b"xx"})
        with pytest.raises(SerializationError, match="metadata"):
            checkpoint.load_checkpoint(path)

    # a width stored wrong in the meta makes the first blob it sizes not fit
    @pytest.mark.parametrize("fema, key, value, match", [
        (False, "algo", "dqn", "algo"),
        (False, "algo", 7, "algo"),
        (False, "step", "x", "step"),
        (False, "step", -3, "step"),
        (False, "step", True, "step"),
        (False, "env", ["a"], "env"),
        (False, "env", 5, "env"),
        (False, "fema_on", True, "fema_on"),
        (False, "fema_on", "yes", "fema_on"),
        (True, "fema_on", False, "fema_on"),
        (False, "d_s", 7, r"policy.trunk blob does not fit widths \[7, 16, 16\]"),
        (False, "d_s", "x", "d_s"),
        (False, "d_s", None, "d_s"),
        (False, "d_a", True, "d_a"),
        (False, "d_a", 2, r"scale \[4.0\] is not d_a=2 positive"),
        (False, "hidden", 8, r"policy.trunk blob does not fit widths \[2, 8, 8\]"),
        (False, "hidden", 0, "hidden"),
        (False, "hidden", 16.0, "hidden"),
        (False, "squash", None, "squash"),
        (False, "state_dependent_std", True, r"policy.logstd blob does not fit"),
        (False, "state_dependent_std", 0, "state_dependent_std"),
        (True, "stack", None, "stack metadata"),
        (True, "stack", {}, "lacks 'd_z'"),
        (False, "algo", None, "algo"),
    ], ids=["algo_dqn", "algo_int", "step_str", "step_negative", "step_bool",
            "env_list", "env_int", "fema_on_without_stack", "fema_on_str",
            "stack_without_fema_on", "d_s_wrong", "d_s_str", "d_s_null",
            "d_a_bool", "d_a_wrong", "hidden_wrong", "hidden_zero",
            "hidden_float", "squash_null", "std_flag_wrong", "std_flag_int",
            "stack_null", "stack_empty", "algo_null"])
    def test_meta_that_describes_no_learner_refused(self, tmp_path, fema,
                                                    key, value, match):
        agent, _ = self.make_agent("ppo", fema=fema)
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 5)
        edit_checkpoint(path, {key: value})
        with pytest.raises(SerializationError, match=match):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("algo", ["sac", "ppo"])
    def test_any_meta_value_loads_or_is_refused(self, tmp_path, algo):
        """Each meta field, the stack's too, set to each kind of JSON value
        either loads or raises a SerializationError, nothing else."""
        agent, _ = self.make_agent(algo)
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 5)
        good = path.read_bytes()
        meta = json.loads(serialize.load_blobs(path)["meta"])
        edits = [{key: value} for key in meta for value in ODD_JSON]
        edits += [{"stack": {**meta["stack"], key: value}}
                  for key in meta["stack"] for value in ODD_JSON]
        for edit in edits:
            path.write_bytes(good)
            edit_checkpoint(path, edit)
            try:
                checkpoint.load_checkpoint(path)
            except SerializationError:
                pass

    @pytest.mark.parametrize("d_s, d_a, key", [(5, 3, "d_s"), (2, 3, "d_a")])
    def test_stack_widths_that_differ_from_policy_refused(self, tmp_path,
                                                          d_s, d_a, key):
        """Stack blobs saved for other env widths do not fit the policy's."""
        from fema import embedding
        agent, _ = self.make_agent("sac")
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 5)
        other = embedding.stack_init(d_s=d_s, d_a=d_a, seed=0, hidden=16)
        edit_checkpoint(path, blobs={f"stack.{name}": getattr(other, name).flat.tobytes()
                                     for name in "fgjh"})
        net = {"d_s": "f", "d_a": "g"}[key]
        with pytest.raises(SerializationError, match=f"stack.{net} blob does not fit"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("algo, name, blob, message", [
        ("sac", "q1", lambda: numeric.mlp_init([9, 16, 16, 1], seed=0).flat.tobytes(),
         r"q1 blob does not fit widths \[3, 16, 16, 1\]"),
        ("sac", "log_alpha", lambda: np.zeros(3).astype("<f8").tobytes(),
         "log_alpha blob holds 3 floats, expected 1"),
        ("ppo", "vnet", lambda: numeric.mlp_init([2, 8, 8, 1], seed=0).flat.tobytes(),
         r"vnet blob does not fit widths \[2, 16, 16, 1\]"),
        ("ppo", "policy.trunk", lambda: bytes(8 * 337),
         r"policy.trunk blob does not fit widths \[2, 16, 16\]"),
        ("sac", "q2t", lambda: bytes(12), "q2t blob is missing or not whole"),
        ("sac", "q1t", lambda: None, "q1t blob is missing"),
        ("sac", "stack.j", lambda: None, "stack.j blob is missing"),
    ], ids=["sac_q1_inputs", "sac_log_alpha_length", "ppo_vnet_width",
            "ppo_trunk_size", "sac_partial_float", "sac_missing_net",
            "sac_missing_stack_net"])
    def test_saved_blob_of_wrong_shape_refused(self, tmp_path, algo, name,
                                               blob, message):
        agent, _ = self.make_agent(algo)
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 5)
        edit_checkpoint(path, blobs={name: blob()})
        with pytest.raises(SerializationError, match=message):
            checkpoint.load_checkpoint(path)

    # `helpers.pin_digest` of the files written below: each hashes what the
    # checkpoint holds, re-derived from the format-1 files that pinned the
    # container body byte for byte, read with the format-1 loader
    LAYOUT_SHA256 = {
        ("tilt_pole", "ppo", False): "cef6f3b1a5311149",
        ("tilt_pole", "ppo", True): "6d52d7d317f5a965",
        ("tilt_pole", "sac", False): "5f077df90d80072c",
        ("tilt_pole", "sac", True): "c8c0dee50679a3d4",
        ("grid_hazard", "ppo", False): "760d8be0d14f5591",
        ("grid_hazard", "ppo", True): "b989663815d257ff",
        ("grid_hazard", "sac", False): "87e85401fdbc43fa",
        ("grid_hazard", "sac", True): "b666991e65ad2b1a",
    }

    LAYOUTS = pytest.mark.parametrize(
        "env_name, algo, fema",
        [(env_name, algo, fema) for env_name in ("tilt_pole", "grid_hazard")
         for algo in sorted(AGENTS) for fema in (False, True)])

    def save_layout_agent(self, tmp_path, env_name, algo, fema):
        from fema.memory import FemaConfig
        spec = make(env_name, np.random.default_rng(0)).spec
        agent = AGENTS[algo](spec, AgentConfig(hidden=8), seed=3,
                             fema_cfg=FemaConfig() if fema else None)
        path = tmp_path / "ckpt.bin"
        checkpoint.save_checkpoint(path, agent, env_name, 11)
        return agent, path

    @LAYOUTS
    def test_checkpoint_bytes_pinned(self, tmp_path, env_name, algo, fema):
        _, path = self.save_layout_agent(tmp_path, env_name, algo, fema)
        digest = pin_digest("checkpoint.bin", path.read_bytes())
        assert digest == self.LAYOUT_SHA256[env_name, algo, fema]

    @LAYOUTS
    def test_learner_layout_round_trip(self, tmp_path, env_name, algo, fema):
        agent, path = self.save_layout_agent(tmp_path, env_name, algo, fema)
        saved = agent.saved_widths(agent.spec.d_s, agent.spec.d_a, 8)
        nets = [name for name, widths in saved.items() if isinstance(widths, list)]
        arrays = [name for name, size in saved.items() if isinstance(size, int)]
        assert sorted(nets + arrays) == sorted(saved) and nets
        blobs = serialize.load_blobs(path)
        assert list(blobs) == (
            ["meta", "policy.trunk", "policy.mean", "policy.logstd", *saved]
            + ["stack.f", "stack.g", "stack.j", "stack.h"] * fema)
        vectors = [agent.policy.flat, *(getattr(agent, name).flat for name in nets),
                   *(getattr(agent, name) for name in arrays)]
        if fema:
            vectors.append(agent.stack.flat)
        assert b"".join(list(blobs.values())[1:]) == b"".join(
            v.astype("<f8").tobytes() for v in vectors)
        data = checkpoint.load_checkpoint(path)
        assert (data.algo, data.env, data.step) == (algo, env_name, 11)
        assert same_policy(data.policy, agent.policy)
        assert list(data.nets) == nets
        for name in nets:
            assert data.nets[name].widths == saved[name]
            assert data.nets[name].flat.tobytes() == getattr(agent, name).flat.tobytes()
        assert list(data.arrays) == arrays
        for name in arrays:
            assert data.arrays[name].dtype == np.float64
            assert data.arrays[name].tobytes() == getattr(agent, name).tobytes()
        assert (data.stack is not None) == fema

    def test_learner_under_a_new_name_saves_its_state(self, tmp_path,
                                                      monkeypatch):
        built = []

        class Alias(SacAgent):
            algo = "sac_alias"

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setitem(AGENTS, "sac_alias", Alias)
        rc = parse_text(TINY_SAC.format(out_dir=tmp_path).replace(
            "agent = sac", "agent = sac_alias"))
        run_seed(rc, 0, tmp_path / "seed0")
        data = checkpoint.load_checkpoint(tmp_path / "seed0" / "checkpoint.bin")
        (agent,) = built
        assert data.algo == "sac_alias"
        assert data.step == rc.total_steps
        for name in ("q1", "q2", "q1t", "q2t"):
            assert data.nets[name].flat.tobytes() == getattr(agent, name).flat.tobytes()
        assert data.arrays["log_alpha"].tobytes() == agent.log_alpha.tobytes()


@pytest.fixture(scope="module")
def sac_run(tmp_path_factory):
    """One tiny SAC training run shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("sac_run")
    path = root / "config.txt"
    path.write_text(TINY_SAC.format(out_dir=root / "run"))
    out_dir = cmd_train(path)
    return {"config": path, "out": out_dir}


class TestTrain:
    def test_layout_and_summary(self, sac_run):
        out = sac_run["out"]
        for seed in (0, 1):
            seed_dir = os.path.join(out, f"seed{seed}")
            names = set(os.listdir(seed_dir))
            assert {"config.txt", "metrics.jsonl", "checkpoint.bin",
                    "memory.bin"} <= names
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["agent"] == "sac"
        assert summary["fema_enabled"] is True
        assert summary["seed_offset"] == 0
        assert [row["seed"] for row in summary["runs"]] == [0, 1]
        for row in summary["runs"]:
            assert row["episodes"] > 0
            assert 0.0 <= row["fallback_rate"] <= 1.0

    def test_episode_lengths_sum_to_budget(self, sac_run):
        records, kinds = read_jsonl_kinds(sac_run["out"], 0)
        assert kinds == {"episode", "loss", "eval"}
        episodes = [r for r in records if r["kind"] == "episode"]
        assert sum(r["length"] for r in episodes) == 90
        assert [r["episode"] for r in episodes] == list(
            range(1, len(episodes) + 1))
        steps = [r["step"] for r in episodes]
        assert steps == sorted(steps)
        assert all(r["end"] in ("hazard", "time_limit", "none")
                   for r in episodes)

    def test_partial_episode_is_tagged_none(self, sac_run):
        records, _ = read_jsonl_kinds(sac_run["out"], 0)
        episodes = [r for r in records if r["kind"] == "episode"]
        trailing = [r for r in episodes if r["end"] == "none"]
        for r in trailing:
            assert r["step"] == 90
        finished = [r for r in episodes if r["end"] != "none"]
        # rolling means never include the unfinished trailing episode
        if trailing and finished:
            assert trailing[-1]["mean_return"] == finished[-1]["mean_return"]

    def test_eval_records_on_cadence(self, sac_run):
        records, _ = read_jsonl_kinds(sac_run["out"], 0)
        evals = [r for r in records if r["kind"] == "eval"]
        assert [r["step"] for r in evals] == [45, 90]
        assert all(r["episodes"] == 2 for r in evals)

    def test_loss_records_after_warmup(self, sac_run):
        records, _ = read_jsonl_kinds(sac_run["out"], 0)
        losses = [r for r in records if r["kind"] == "loss"]
        assert [r["step"] for r in losses] == [60, 90]
        assert all(len(r) > 2 for r in losses)

    def test_config_echo_reparses_to_same_settings(self, sac_run):
        rc = parse_config(sac_run["config"])
        echo_path = os.path.join(sac_run["out"], "seed1", "config.txt")
        with open(echo_path) as fh:
            text = fh.read()
        assert text.startswith("# run configuration echo")
        assert "# seed = 1" in text
        assert parse_text(text) == rc

    def test_episode_lines_carry_their_own_memory_state(self, tmp_path):
        """In a run of one loss window and no evals, each episode line reads
        the memory and the fallback rate at that episode's end."""
        path = tmp_path / "config.txt"
        path.write_text(TINY_SAC.format(out_dir=tmp_path / "run"))
        out = cmd_train(path, environ={
            "FEMA_RUN__SEEDS": "0", "FEMA_RUN__TOTAL_STEPS": "300",
            "FEMA_RUN__LOSS_LOG_EVERY": "300", "FEMA_RUN__EVAL_EVERY": "0"})
        records, _ = read_jsonl_kinds(out, 0)
        episodes = [r for r in records if r["kind"] == "episode"]
        assert episodes[0]["memory_version"] == -1
        assert episodes[0]["memory_records"] == 0
        versions = [r["memory_version"] for r in episodes]
        assert versions == sorted(versions)
        assert len(set(versions)) >= 3
        report_run(out)
        with open(os.path.join(out, "report", "fallback.csv")) as fh:
            rates = {line.split(",")[1] for line in fh.readlines()[1:]}
        assert len(rates) > 1

    def test_rerun_is_byte_identical(self, sac_run, tmp_path):
        from dataclasses import replace
        rc = parse_config(sac_run["config"])
        rerun = replace(rc, seeds=(0,), out_dir=str(tmp_path / "again"))
        run_config(rerun)
        for name in ("metrics.jsonl", "checkpoint.bin", "memory.bin"):
            a = open(os.path.join(sac_run["out"], "seed0", name), "rb").read()
            b = open(os.path.join(rerun.out_dir, "seed0", name), "rb").read()
            assert a == b, name

    def test_seed_offset_shifts_directories(self, tmp_path):
        path = write_config(tmp_path, TINY_PPO)
        rc = parse_config(path)
        from dataclasses import replace
        rc = replace(rc, total_steps=45)
        out = run_config(rc, seed_offset=10)
        assert os.path.isdir(os.path.join(out, "seed10"))
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["seed_offset"] == 10

    def test_ppo_run_has_phase_losses(self, tmp_path):
        path = write_config(tmp_path, TINY_PPO)
        out = cmd_train(path)
        records, kinds = read_jsonl_kinds(out, 0)
        assert kinds == {"episode", "loss"}
        losses = [r for r in records if r["kind"] == "loss"]
        assert [r["step"] for r in losses] == [45, 90]
        assert {"pi_loss", "v_loss", "approx_kl"} <= set(losses[0])
        episodes = [r for r in records if r["kind"] == "episode"]
        assert sum(r["length"] for r in episodes) == 90

    def test_ppo_run_that_ends_mid_phase(self, tmp_path):
        from dataclasses import replace
        rc = parse_config(write_config(tmp_path, TINY_PPO))
        rc = replace(rc, total_steps=100, eval_every=50, eval_episodes=1)
        out = run_config(rc)
        records, _ = read_jsonl_kinds(out, 0)
        others = [(r["kind"], r["step"]) for r in records
                  if r["kind"] != "episode"]
        assert others == [("loss", 45), ("eval", 50), ("loss", 90),
                          ("eval", 100), ("loss", 100)]
        last_loss = max(i for i, r in enumerate(records) if r["kind"] == "loss")
        trailing = records[last_loss + 1:]
        assert trailing
        assert all(r["kind"] == "episode" and r["end"] == "none"
                   for r in trailing)
        episodes = [r for r in records if r["kind"] == "episode"]
        assert sum(r["length"] for r in episodes) == 100

    def test_learner_under_a_new_name(self, tmp_path, monkeypatch):
        class Alias(PpoAgent):
            algo = "ppo_alias"

        monkeypatch.setitem(AGENTS, "ppo_alias", Alias)
        path = write_config(tmp_path, TINY_PPO.replace("agent = ppo",
                                                       "agent = ppo_alias"))
        out = cmd_train(path)
        records, _ = read_jsonl_kinds(out, 0)
        workers = {r["worker"] for r in records if r["kind"] == "episode"}
        assert workers == {0, 1}
        losses = [r["step"] for r in records if r["kind"] == "loss"]
        assert losses == [45, 90]

    def test_env_override_reaches_run(self, tmp_path):
        path = write_config(tmp_path, TINY_PPO)
        moved = tmp_path / "elsewhere"
        out = cmd_train(path, environ={"FEMA_RUN__OUT_DIR": str(moved),
                                       "FEMA_RUN__TOTAL_STEPS": "45"})
        assert out == str(moved)
        assert os.path.isdir(os.path.join(out, "seed0"))

    def test_memory_snapshot_reloads(self, sac_run):
        from fema.memory import FailureMemory
        mem = FailureMemory.load(os.path.join(sac_run["out"], "seed0",
                                              "memory.bin"))
        assert len(mem.records) > 0
        assert mem.version >= 0


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the seed fork needs os.fork")


class SeedFault(RuntimeError):
    pass


def run_files(out) -> dict:
    """Relative path -> bytes of every file a run wrote under `out`."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def ppo_seeds(tmp_path, seeds: str) -> RunConfig:
    """TINY_PPO with the given seeds, out_dir tmp_path/run."""
    return parse_config(write_config(tmp_path, TINY_PPO.replace(
        "seeds = 0", f"seeds = {seeds}")))


def fail_seed(monkeypatch, failing: int, fault) -> None:
    """Make `run_config`'s seed `failing` call fault(); other seeds train."""
    real = train.run_seed

    def run_seed_or_fail(rc, seed, run_dir):
        if seed == failing:
            fault()
        return real(rc, seed, run_dir)

    monkeypatch.setattr(train, "run_seed", run_seed_or_fail)


@needs_fork
class TestSeedFork:
    """`run_config` deals its seeds round-robin over forked processes."""

    @pytest.mark.parametrize("cpus, names", [
        (8, ["runs [seed0]", "runs [seed2]"]),
        (2, ["runs [seed0]"]),
    ], ids=["8cpus", "2cpus"])
    def test_files_match_one_process(self, tmp_path, monkeypatch, cpus, names):
        """Every seed's files and summary.json are the bytes of one process
        training the seeds in turn; summary rows keep the config's order."""
        import shutil
        rc = ppo_seeds(tmp_path, "4, 0, 2")
        outputs, recorded = [], []
        for n in (cpus, 1):
            with monkeypatch.context() as patch:
                forks = count_forks(patch, n)
                run_config(rc)
            outputs.append(run_files(tmp_path / "run"))
            recorded.append(forks)
            shutil.rmtree(tmp_path / "run")
        assert outputs[0] == outputs[1]
        assert {"seed4/metrics.jsonl", "seed0/memory.bin", "seed2/checkpoint.bin",
                "summary.json"} <= set(outputs[0])
        summary = json.loads(outputs[0]["summary.json"])
        assert [row["seed"] for row in summary["runs"]] == [4, 0, 2]
        assert recorded == [[names], [[]]]
        assert_no_children()

    @pytest.mark.parametrize("seeds, names", [
        pytest.param("0, 1", [["runs [seed1]"]], id="two_seeds"),
        pytest.param("0", [[], ["risk helper"]], id="one_seed"),
    ])
    def test_risk_helper_only_on_a_free_cpu(self, tmp_path, monkeypatch, seeds, names):
        """At 2 CPUs a 2-seed run forks its second seed and, in neither
        process, a risk helper; a 1-seed run forks the helper for its
        publish, which is big enough for one. Every file is the bytes of a
        1-CPU run."""
        import shutil
        epochs = -(-embedding.FORK_STEPS // 2)   # the publish has 2 minibatches
        rc = parse_config(write_config(tmp_path, TINY_PPO.replace(
            "seeds = 0", f"seeds = {seeds}").replace(
            "train_epochs = 2", f"train_epochs = {epochs}")))
        outputs, recorded = [], []
        for n in (2, 1):
            with monkeypatch.context() as patch:
                forks = count_forks(patch, n)
                if len(rc.seeds) == 2:
                    def helper_forked(*args):
                        raise SeedFault("a risk helper forked beside a seed")
                    patch.setattr(embedding, "_fit_beside", helper_forked)
                run_config(rc)
            outputs.append(run_files(tmp_path / "run"))
            recorded.append(forks)
            shutil.rmtree(tmp_path / "run")
        assert outputs[0] == outputs[1]
        assert recorded == [names, [[]]]
        assert_no_children()

    def test_child_error_reraised_with_type_and_message(self, tmp_path,
                                                        monkeypatch):
        def fault():
            raise SeedFault("seed 1 refused to train")

        fail_seed(monkeypatch, 1, fault)
        count_forks(monkeypatch, 2)
        rc = ppo_seeds(tmp_path, "0, 1")
        with pytest.raises(SeedFault, match="seed 1 refused to train"):
            run_config(rc)
        assert not os.path.exists(tmp_path / "run" / "summary.json")
        assert_no_children()

    def test_child_error_stops_parent_before_its_next_seed(self, tmp_path,
                                                          monkeypatch):
        """A child whose seed fails at once is re-raised before this process
        trains its second seed."""
        real, started = train.run_seed, []

        def run_seed(rc, seed, run_dir):
            if seed == 1:
                raise SeedFault("seed 1 failed at once")
            started.append(seed)
            time.sleep(0.5)   # the child fails meanwhile
            return real(rc, seed, run_dir)

        monkeypatch.setattr(train, "run_seed", run_seed)
        count_forks(monkeypatch, 2)
        rc = ppo_seeds(tmp_path, "0, 1, 2")
        with pytest.raises(SeedFault, match="seed 1 failed at once"):
            run_config(rc)
        assert started == [0]
        assert not os.path.exists(tmp_path / "run" / "seed2")
        assert_no_children()

    def test_unpicklable_error_becomes_fema_error(self, tmp_path, monkeypatch):
        class LocalFault(Exception):
            pass

        def fault():
            raise LocalFault("not importable")

        fail_seed(monkeypatch, 1, fault)
        count_forks(monkeypatch, 2)
        rc = ppo_seeds(tmp_path, "0, 1")
        with pytest.raises(FemaError, match="LocalFault: not importable"):
            run_config(rc)
        assert_no_children()

    def test_parent_seed_error_reaps_children(self, tmp_path, monkeypatch):
        """A failing seed of this process's own share kills the children."""
        def fault_or_hang(rc, seed, run_dir):
            if seed == 0:
                raise SeedFault("seed 0 failed here")
            time.sleep(60)

        monkeypatch.setattr(train, "run_seed", fault_or_hang)
        count_forks(monkeypatch, 3)
        rc = ppo_seeds(tmp_path, "0, 1, 2")
        start = time.monotonic()
        with pytest.raises(SeedFault, match="seed 0 failed here"):
            run_config(rc)
        assert time.monotonic() - start < 30   # killed, not waited for
        assert_no_children()

    def test_child_without_result_raises(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def vanish():
            if os.getpid() == parent:
                raise SeedFault("seed 3 trained in the calling process")
            os._exit(3)

        fail_seed(monkeypatch, 3, vanish)
        count_forks(monkeypatch, 2)
        rc = ppo_seeds(tmp_path, "0, 1, 2, 3")
        with pytest.raises(FemaError, match=r"runs \[seed1, seed3\] \(process "
                                            r"\d+\) exited without a result"):
            run_config(rc)
        assert_no_children()


def sac_seeds(tmp_path, seeds: str, memory: bool = True) -> RunConfig:
    """TINY_SAC with the given seeds, the memory on or off, out_dir
    tmp_path/run."""
    text = TINY_SAC.replace("seeds = 0, 1", f"seeds = {seeds}")
    if not memory:
        text = text[:text.index("[fema]")] + "[fema]\nn_candidates = 1\n"
    return parse_config(write_config(tmp_path, text))


@needs_fork
class TestCriticHelper:
    """A SAC run forks the helper of its second critic where a CPU is free
    and its batch holds FORK_BATCH rows, and writes the bytes of a run
    without it."""

    @pytest.mark.parametrize("memory", [True, False], ids=["memory", "plain"])
    def test_one_seed_files_match_one_process(self, tmp_path, monkeypatch, memory):
        """At 2 CPUs the run forks its critic helper, and each publish,
        also after updates began, forks a risk helper beside it."""
        import shutil
        rc = sac_seeds(tmp_path, "0", memory)
        rc.agent.warmup_steps = rc.agent.batch_size   # updates from step 16
        outputs, recorded = [], []
        for n in (2, 1):
            with monkeypatch.context() as patch:
                patch.setattr(sac, "FORK_BATCH", rc.agent.batch_size)
                patch.setattr(embedding, "FORK_STEPS", 1)
                forks = count_forks(patch, n)
                run_config(rc)
            outputs.append(run_files(tmp_path / "run"))
            recorded.append(forks)
            shutil.rmtree(tmp_path / "run")
        assert outputs[0] == outputs[1]
        assert {"seed0/metrics.jsonl", "seed0/checkpoint.bin"} <= set(outputs[0])
        assert ("seed0/memory.bin" in outputs[0]) == memory
        publishes = recorded[0][2:]
        assert recorded[0][:2] == [[], ["critic helper"]] and recorded[1] == [[]]
        assert publishes == [["risk helper"]] * len(publishes)
        assert bool(publishes) == memory
        assert_no_children()

    def test_two_seeds_fork_only_the_seed(self, tmp_path, monkeypatch):
        """At 2 CPUs a 2-seed run forks its second seed, and neither seed
        process forks a critic helper."""
        def helper_forked(*args):
            raise SeedFault("a critic helper forked beside a seed")

        rc = sac_seeds(tmp_path, "0, 1")
        monkeypatch.setattr(sac, "FORK_BATCH", rc.agent.batch_size)
        monkeypatch.setattr(forking, "_help", helper_forked)
        forks = count_forks(monkeypatch, 2)
        run_config(rc)
        assert forks == [["runs [seed1]"]]
        assert_no_children()

    def test_small_batch_forks_nothing(self, tmp_path, monkeypatch):
        rc = sac_seeds(tmp_path, "0")
        assert rc.agent.batch_size < sac.FORK_BATCH
        forks = count_forks(monkeypatch, 2)
        run_config(rc)
        assert forks == [[]]
        assert_no_children()


def test_run_seed_keeps_freed_heap(tmp_path, monkeypatch):
    """A run makes the process keep its freed heap mapped before it trains."""
    calls = []
    monkeypatch.setattr(forking, "keep_freed_heap", lambda: calls.append(1))
    run_config(sac_seeds(tmp_path, "0"))
    assert calls == [1]


@needs_fork
class TestSweepFork:
    @pytest.mark.parametrize("cpus, names", [
        (8, ["runs [update_m=2/seed1]", "runs [update_m=4/seed0]",
             "runs [update_m=4/seed1]"]),
        (2, ["runs [update_m=2/seed1, update_m=4/seed1]"]),
    ], ids=["8cpus", "2cpus"])
    def test_files_match_one_process(self, tmp_path, monkeypatch, cpus, names):
        """A sweep trains its cells x seeds through one fork; every file,
        summaries, curves and sweep.json included, is the bytes of one
        process training the runs in turn."""
        import shutil
        path = write_config(tmp_path, TINY_PPO.replace("seeds = 0", "seeds = 0, 1"))
        outputs, recorded = [], []
        for n in (cpus, 1):
            with monkeypatch.context() as patch:
                forks = count_forks(patch, n)
                cmd_ablate(path, "update_m", ["2", "4"])
            outputs.append(run_files(tmp_path / "run"))
            recorded.append(forks)
            shutil.rmtree(tmp_path / "run")
        assert outputs[0] == outputs[1]
        assert {"sweep.json", "curve_update_m=4.csv", "update_m=2/summary.json",
                "update_m=4/seed1/metrics.jsonl"} <= set(outputs[0])
        assert recorded == [[names], [[]]]
        assert_no_children()


def synth_series(seed, steps, returns, lengths=None, total=100,
                 threshold=None, eval_steps=(), eval_returns=(),
                 fallback=None):
    steps = np.asarray(steps, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    n = len(steps)
    return SeedSeries(
        seed=seed,
        steps=steps,
        returns=returns,
        lengths=(np.asarray(lengths, dtype=np.float64) if lengths is not None
                 else np.ones(n)),
        fallback=(np.asarray(fallback, dtype=np.float64)
                  if fallback is not None else np.zeros(n)),
        eval_steps=np.asarray(eval_steps, dtype=np.float64),
        eval_returns=np.asarray(eval_returns, dtype=np.float64),
        total_steps=total,
        threshold=threshold,
    )


class TestReportMath:
    def test_smooth_matches_hand_means(self):
        out = smooth(np.array([1.0, 2.0, 4.0, 8.0]), window=2)
        np.testing.assert_allclose(out, [1.0, 1.5, 3.0, 6.0])

    def test_smooth_window_one_is_identity(self):
        vals = np.random.default_rng(0).normal(size=17)
        np.testing.assert_array_equal(smooth(vals, 1), vals)

    def test_smooth_window_covers_all_is_running_mean(self):
        vals = np.random.default_rng(1).normal(size=9)
        expect = np.array([vals[:i + 1].mean() for i in range(9)])
        np.testing.assert_allclose(smooth(vals, 50), expect)

    def test_value_at_steps_between_observations(self):
        steps = np.array([10.0, 20.0, 30.0])
        vals = np.array([1.0, 2.0, 3.0])
        assert np.isnan(value_at(steps, vals, 5))
        assert value_at(steps, vals, 10) == 1.0
        assert value_at(steps, vals, 25) == 2.0
        assert value_at(steps, vals, 999) == 3.0

    def test_step_grid_covers_budget(self):
        grid = step_grid(1000)
        assert grid[0] == 10 and grid[-1] == 1000 and len(grid) == 100
        small = step_grid(30)
        np.testing.assert_array_equal(small, np.arange(1, 31))

    def test_curve_rows_single_seed_std_zero(self):
        s = synth_series(0, steps=[10, 50, 100], returns=[1.0, 2.0, 3.0])
        rows = curve_rows([s], window=1)
        assert all(row[2] == 0.0 and row[3] == 1 for row in rows)
        by_step = {row[0]: row[1] for row in rows}
        assert by_step[10] == 1.0 and by_step[99] == 2.0 and by_step[100] == 3.0

    def test_curve_rows_seed_mean_and_std(self):
        a = synth_series(0, steps=[50], returns=[1.0])
        b = synth_series(1, steps=[50], returns=[3.0])
        rows = curve_rows([a, b], window=1)
        tail = rows[-1]
        assert tail[1] == 2.0
        assert tail[2] == pytest.approx(1.0)
        assert tail[3] == 2

    def test_steps_to_threshold_crossing(self):
        s = synth_series(0, steps=[10, 20, 30, 40],
                         returns=[0.0, 0.0, 10.0, 10.0], total=100)
        assert steps_to_threshold(s, window=2, threshold=5.0) == 30
        assert steps_to_threshold(s, window=2, threshold=10.0) == 40
        assert steps_to_threshold(s, window=2, threshold=11.0) == 100

    def test_max_return_prefers_common_eval_points(self):
        a = synth_series(0, steps=[10], returns=[50.0],
                         eval_steps=[50, 100], eval_returns=[1.0, 5.0])
        b = synth_series(1, steps=[10], returns=[50.0],
                         eval_steps=[50, 100], eval_returns=[3.0, 1.0])
        assert max_mean_return([a, b], window=1) == (100, 3.0)

    def test_max_return_falls_back_to_curve(self):
        a = synth_series(0, steps=[10, 20], returns=[0.0, 7.0], total=20,
                         eval_steps=[50], eval_returns=[9.0])
        b = synth_series(1, steps=[10, 20], returns=[0.0, 1.0], total=20)
        step, best = max_mean_return([a, b], window=1)
        assert (step, best) == (20, 4.0)

    def test_length_windows_are_thirds(self):
        s = synth_series(0, steps=[10, 40, 80], returns=[0.0, 0.0, 0.0],
                         lengths=[10.0, 30.0, 40.0], total=90)
        rows = length_window_rows([s])
        labels = [row[0] for row in rows]
        assert labels == ["early", "middle", "late"]
        assert [row[3] for row in rows] == [10.0, 30.0, 40.0]
        assert [(row[1], row[2]) for row in rows] == [(0, 30), (30, 60),
                                                      (60, 90)]


class TestReportFiles:
    def test_report_files_and_oracle_scan(self, sac_run):
        result = report_run(sac_run["out"], window=5)
        report_dir = os.path.join(sac_run["out"], "report")
        names = set(os.listdir(report_dir))
        assert {"curve.csv", "fallback.csv", "lengths.csv", "max_return.csv",
                "steps_to_threshold.csv", "summary.txt"} <= names
        assert result["window"] == 5
        assert result["seeds"] == [0, 1]

        # independent scan of the raw logs: the headline number must equal
        # the max over shared eval steps of the across-seed mean return
        per_seed = {}
        for seed in (0, 1):
            records, _ = read_jsonl_kinds(sac_run["out"], seed)
            per_seed[seed] = {r["step"]: r["mean_return"] for r in records
                              if r["kind"] == "eval"}
        common = set(per_seed[0]) & set(per_seed[1])
        best = max(np.mean([per_seed[s][g] for s in (0, 1)]) for g in common)
        assert result["max_mean_return"] == pytest.approx(best, abs=0)

    def test_summary_text_names_the_window(self, sac_run):
        report_run(sac_run["out"], window=5)
        with open(os.path.join(sac_run["out"], "report", "summary.txt")) as fh:
            text = fh.read()
        assert "smoothing window: trailing 5 episodes" in text
        assert "steps to threshold" in text

    def test_report_is_idempotent(self, sac_run):
        report_dir = os.path.join(sac_run["out"], "report")
        report_run(sac_run["out"], window=5)
        before = {name: open(os.path.join(report_dir, name), "rb").read()
                  for name in os.listdir(report_dir)}
        report_run(sac_run["out"], window=5)
        after = {name: open(os.path.join(report_dir, name), "rb").read()
                 for name in os.listdir(report_dir)}
        assert before == after

    def test_csv_is_crlf_with_repr_floats(self, sac_run):
        report_run(sac_run["out"], window=5)
        raw = open(os.path.join(sac_run["out"], "report", "curve.csv"),
                   "rb").read()
        assert raw.count(b"\r\n") == raw.count(b"\n")
        header = raw.split(b"\r\n", 1)[0]
        assert header == b"step,mean_return,std_return,n_seeds"

    def test_failed_write_keeps_old_report(self, sac_run, tmp_path, monkeypatch):
        # Fail the k-th fsync of a sweep or report rewrite, for each k: every
        # old file stays as it was and no temp file is left behind. Each file
        # takes two fsyncs where directories can be fsynced: its own, then
        # its directory's after the rename (which rewrites the same bytes).
        import shutil
        from fema.harness import ablate
        sweep = tmp_path / "sweep"
        for value in ("2", "4"):
            shutil.copytree(sac_run["out"], sweep / f"update_m={value}")
        path = write_config(tmp_path, TINY_SAC, out_name="sweep")
        with open(os.path.join(sac_run["out"], "summary.json")) as fh:
            rows = json.load(fh)["runs"]
        monkeypatch.setattr(ablate, "run_seeds", lambda root, runs: 2 * rows)
        cmd_ablate(path, "update_m", ["2", "4"])
        cmd_report(sweep)
        before = {p: p.read_bytes() for p in sweep.rglob("*") if p.is_file()}
        reports = [p for p in before if p.parent.name == "report"]
        per_file = 2 if hasattr(os, "O_DIRECTORY") else 1
        rewrites = [(lambda: cmd_ablate(path, "update_m", ["2", "4"]), 5 * per_file),
                    (lambda: cmd_report(sweep), len(reports) * per_file)]
        real_fsync = os.fsync
        for rewrite, n_fsyncs in rewrites:
            for k in range(n_fsyncs + 1):
                calls = iter(range(n_fsyncs + 1))

                def fsync(fd, k=k, calls=calls):
                    if next(calls) == k:
                        raise OSError("no space left on device")
                    real_fsync(fd)

                monkeypatch.setattr(os, "fsync", fsync)
                if k < n_fsyncs:
                    with pytest.raises(OSError, match="no space"):
                        rewrite()
                else:
                    rewrite()
                after = {p: p.read_bytes() for p in sweep.rglob("*") if p.is_file()}
                assert after == before

    def test_report_empty_directory_refused(self, tmp_path):
        with pytest.raises(UsageError, match="no completed seed runs"):
            load_run_dir(tmp_path)

    def test_memory_that_never_published_warns(self, sac_run, tmp_path):
        import shutil
        root = tmp_path / "unpublished"
        shutil.copytree(os.path.join(sac_run["out"], "seed0"), root / "seed0")
        records = jsonl.read_records(root / "seed0" / "metrics.jsonl")
        ends = [r for r in records if r["kind"] == "episode"]
        assert ends[-1]["memory_records"] > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_run_dir(root)
        with open(root / "seed0" / "metrics.jsonl", "w") as fh:
            for record in records:
                if record["kind"] == "episode":
                    record["memory_records"] = 0
                jsonl.append_record(fh, record)
        with pytest.warns(UserWarning, match="never published"):
            series = load_run_dir(root)
        assert [s.seed for s in series] == [0]

    def test_partial_run_warns_and_skips(self, sac_run, tmp_path):
        import shutil
        root = tmp_path / "partial"
        shutil.copytree(os.path.join(sac_run["out"], "seed0"),
                        root / "seed0")
        (root / "seed7").mkdir()
        with pytest.warns(UserWarning, match="partial report"):
            series = load_run_dir(root)
        assert [s.seed for s in series] == [0]

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", r"metrics\.jsonl:\d+: record is not a JSON object"),
        ("7", r"metrics\.jsonl:\d+: record is not a JSON object"),
        ('{"step": 3}', r"metrics\.jsonl: record \d+ has no kind"),
        ('{"kind": "episode", "step": 5}',
         r"metrics\.jsonl: episode record \d+ lacks 'end'"),
        ('{"kind": "eval", "step": "x", "mean_return": 1.0}',
         r"metrics\.jsonl: eval record \d+ has non-numeric step"),
    ], ids=["list", "number", "no_kind", "episode_fields", "eval_step_str"])
    def test_malformed_record_refused(self, sac_run, tmp_path, line, message):
        import shutil
        root = tmp_path / "malformed"
        shutil.copytree(os.path.join(sac_run["out"], "seed0"), root / "seed0")
        with open(root / "seed0" / "metrics.jsonl", "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(SerializationError, match=message):
            load_run_dir(root)

    def test_missing_config_echo_refused(self, sac_run, tmp_path):
        import shutil
        root = tmp_path / "no_config"
        shutil.copytree(os.path.join(sac_run["out"], "seed0"), root / "seed0")
        os.remove(root / "seed0" / "config.txt")
        with pytest.raises(SerializationError, match="config.txt"):
            load_run_dir(root)


class TestAblate:
    def test_derive_cell_sets_axis_fields(self, tmp_path):
        rc = parse_text(TINY_SAC.format(out_dir=tmp_path / "sweep"))
        cell = derive_cell(rc, "epsilon", "0.2")
        assert cell.fema.match_radius == 0.2
        assert cell.sweep_axis == "epsilon"
        assert cell.sweep_value == "0.2"
        assert cell.out_dir == str(tmp_path / "sweep" / "epsilon=0.2")
        cell_n = derive_cell(rc, "n_candidates", "7")
        assert cell_n.fema.n_candidates == 7

    def test_derive_cell_bad_value(self, tmp_path):
        rc = parse_text(TINY_SAC.format(out_dir=tmp_path))
        with pytest.raises(UsageError, match="int values"):
            derive_cell(rc, "top_o", "lots")

    def test_derive_cell_train_epochs(self, tmp_path):
        rc = parse_text(TINY_SAC.format(out_dir=tmp_path))
        assert derive_cell(rc, "train_epochs", "3").fema.train_epochs == 3
        for bad in ("2.5", "many"):
            with pytest.raises(UsageError, match="int values"):
                derive_cell(rc, "train_epochs", bad)

    def test_unknown_axis_refused(self, tmp_path):
        path = write_config(tmp_path, TINY_SAC)
        with pytest.raises(UsageError, match="unknown axis"):
            cmd_ablate(path, "gamma", ["0.9"])

    def test_empty_values_refused(self, tmp_path):
        path = write_config(tmp_path, TINY_SAC)
        with pytest.raises(UsageError, match="at least one"):
            cmd_ablate(path, "epsilon", [])

    @pytest.mark.parametrize("axis, values, first, again", [
        ("top_o", ["1", "1", "01"], "1", "1"),
        ("top_o", ["1", "2", "01"], "1", "01"),
        ("epsilon", ["0.05", "0.1", "5e-2"], "0.05", "5e-2"),
        ("lambda_risk", ["0", "-0.0"], "0", "-0.0"),
    ], ids=["same_spelling", "leading_zero", "exponent", "signed_zero"])
    def test_repeated_value_refused_before_training(self, tmp_path, monkeypatch,
                                                    axis, values, first, again):
        from fema.harness import ablate
        trained = []
        monkeypatch.setattr(ablate, "run_seeds",
                            lambda root, runs: trained.append(runs))
        path = write_config(tmp_path, TINY_SAC)
        with pytest.raises(UsageError, match=f"values '{first}' and '{again}'"):
            cmd_ablate(path, axis, values)
        assert trained == []
        assert not os.path.exists(tmp_path / "run")

    def test_fema_off_config_refused(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="disabled"):
            cmd_ablate(path, "epsilon", ["0.05"])

    def test_sweep_layout_and_report(self, tmp_path):
        text = TINY_SAC.format(out_dir=tmp_path / "sweep").replace(
            "seeds = 0, 1", "seeds = 0").replace(
            "total_steps = 90", "total_steps = 60")
        path = tmp_path / "config.txt"
        path.write_text(text)
        sweep_dir = cmd_ablate(path, "update_m", ["2", "4"])
        names = set(os.listdir(sweep_dir))
        assert {"update_m=2", "update_m=4", "curve_update_m=2.csv",
                "curve_update_m=4.csv", "sweep.json"} <= names
        with open(os.path.join(sweep_dir, "sweep.json")) as fh:
            manifest = json.load(fh)
        assert manifest["axis"] == "update_m"
        assert [c["value"] for c in manifest["cells"]] == ["2", "4"]
        for cell in manifest["cells"]:
            echo = os.path.join(sweep_dir, cell["dir"], "seed0", "config.txt")
            rc = parse_text(open(echo).read())
            assert rc.fema.update_every == int(cell["value"])
            assert rc.sweep_axis == "update_m"

        per_variant = cmd_report(sweep_dir)
        assert set(per_variant) == {"update_m=2", "update_m=4"}
        report_dir = os.path.join(sweep_dir, "report")
        assert {"max_return.csv", "steps_to_threshold.csv",
                "summary.txt"} <= set(os.listdir(report_dir))
        with open(os.path.join(report_dir, "summary.txt")) as fh:
            text = fh.read()
        assert "steps to threshold update_m=2:" in text


class TestEval:
    def test_same_seed_same_table(self, sac_run):
        ckpt = os.path.join(sac_run["out"], "seed0", "checkpoint.bin")
        rows_a = cmd_eval(ckpt, "grid_hazard", 3, seed=11)
        rows_b = cmd_eval(ckpt, "grid_hazard", 3, seed=11)
        assert rows_a == rows_b
        assert [r["episode"] for r in rows_a] == [0, 1, 2]

    def test_zero_episodes_refused(self, sac_run):
        ckpt = os.path.join(sac_run["out"], "seed0", "checkpoint.bin")
        with pytest.raises(UsageError, match="at least 1 episode"):
            cmd_eval(ckpt, "grid_hazard", 0, seed=1)
        assert format_table([]) == "episode  return       length  end"

    def test_dim_mismatch_refused(self, sac_run):
        ckpt = os.path.join(sac_run["out"], "seed0", "checkpoint.bin")
        with pytest.raises(CoherenceError, match="tilt_pole"):
            cmd_eval(ckpt, "tilt_pole", 1, seed=0)

    def test_untrained_policy_falls(self, tmp_path):
        env = make("tilt_pole", np.random.default_rng(0))
        agent = SacAgent(env.spec, AgentConfig(hidden=16), seed=7)
        path = tmp_path / "untrained.bin"
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 0)
        rows = cmd_eval(path, "tilt_pole", 5, seed=3)
        hazards = sum(r["end"] == "hazard" for r in rows)
        assert hazards >= 3

    def test_table_format(self):
        rows = [{"episode": 0, "return": 1.25, "length": 10, "end": "hazard"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("episode")
        assert re.search(r"^\s*0\s+1\.2500\s+10\s+hazard$", lines[1])
        assert lines[2].startswith("mean")


class TestCli:
    def test_train_then_report_then_eval(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_PPO)
        assert main(["train", "--config", str(path)]) == 0
        out = str(tmp_path / "run")
        assert "run complete" in capsys.readouterr().out
        assert main(["report", out, "--window", "5"]) == 0
        assert "report written" in capsys.readouterr().out
        ckpt = os.path.join(out, "seed0", "checkpoint.bin")
        assert main(["eval", "--ckpt", ckpt, "--env", "grid_hazard",
                     "--episodes", "2", "--seed", "0"]) == 0
        assert "episode  return" in capsys.readouterr().out

    def test_seed_offset_flag(self, tmp_path, capsys):
        text = TINY_PPO.format(out_dir=tmp_path / "run").replace(
            "total_steps = 90", "total_steps = 45")
        path = tmp_path / "config.txt"
        path.write_text(text)
        assert main(["train", "--config", str(path),
                     "--seed-offset", "7"]) == 0
        capsys.readouterr()
        assert os.path.isdir(tmp_path / "run" / "seed7")

    @pytest.mark.parametrize("seeds, argv, match", [
        ("-1", [], "seeds must be >= 0"),
        ("0, 3", ["--seed-offset", "-1"], "makes seed -1 negative"),
    ], ids=["negative_seed", "negative_offset_seed"])
    def test_negative_train_seed_is_one_error_line(self, tmp_path, capsys,
                                                   seeds, argv, match):
        path = tmp_path / "config.txt"
        path.write_text(TINY_PPO.format(out_dir=tmp_path / "run").replace(
            "seeds = 0", f"seeds = {seeds}"))
        assert main(["train", "--config", str(path), *argv]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and match in err
        assert not os.path.exists(tmp_path / "run")

    def test_negative_eval_seed_is_one_error_line(self, sac_run, capsys):
        ckpt = os.path.join(sac_run["out"], "seed0", "checkpoint.bin")
        assert main(["eval", "--ckpt", ckpt, "--env", "grid_hazard",
                     "--episodes", "1", "--seed", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eval needs a seed >= 0, got -3\n"

    def test_errors_exit_nonzero_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[run]\nagent = sac\n")
        assert main(["train", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing required field" in err

    def test_report_on_missing_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["report", "{run}", "--window", "0"],
        ["report", "{run}", "--window", "-2"],
        ["eval", "--ckpt", "{ckpt}", "--env", "grid_hazard",
         "--episodes", "0", "--seed", "0"],
        ["eval", "--ckpt", "{ckpt}", "--env", "grid_hazard",
         "--episodes", "-1", "--seed", "0"],
    ], ids=["report_window_0", "report_window_negative", "eval_episodes_0",
            "eval_episodes_negative"])
    def test_count_below_one_is_one_error_line(self, sac_run, capsys, argv):
        paths = {"run": sac_run["out"],
                 "ckpt": os.path.join(sac_run["out"], "seed0", "checkpoint.bin")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:") and "at least 1" in captured.err

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "{missing}"],
        ["ablate", "--config", "{missing}", "--axis", "top_o", "--values", "1"],
        ["eval", "--ckpt", "{missing}", "--env", "grid_hazard",
         "--episodes", "1", "--seed", "0"],
        ["train", "--config", "{undecodable}"],
    ], ids=["train_missing", "ablate_missing", "eval_missing",
            "train_undecodable"])
    def test_unreadable_input_is_one_error_line(self, tmp_path, capsys, argv):
        undecodable = tmp_path / "utf16.txt"
        undecodable.write_bytes(b"\xff\xfe[\x00r\x00u\x00n\x00]\x00")
        paths = {"missing": str(tmp_path / "nope.bin"),
                 "undecodable": str(undecodable)}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert any(path in err for path in paths.values())

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys,
                                                 command):
        if command == "train":
            blocker = tmp_path / "file"
            path = write_config(tmp_path, TINY_PPO, out_name="file/run")
            argv = ["train", "--config", str(path)]
        else:
            cmd_train(write_config(tmp_path, TINY_PPO.replace(
                "total_steps = 90", "total_steps = 45")))
            blocker = tmp_path / "run" / "report"
            argv = ["report", str(tmp_path / "run")]
        blocker.write_text("")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert str(blocker) in err

    def test_ablate_values_parsing(self, tmp_path, capsys):
        text = TINY_SAC.format(out_dir=tmp_path / "sweep").replace(
            "seeds = 0, 1", "seeds = 0").replace(
            "total_steps = 90", "total_steps = 30")
        path = tmp_path / "config.txt"
        path.write_text(text)
        assert main(["ablate", "--config", str(path), "--axis", "top_o",
                     "--values", "1, 2"]) == 0
        assert "sweep complete" in capsys.readouterr().out
        assert os.path.isdir(tmp_path / "sweep" / "top_o=1")
        assert os.path.isdir(tmp_path / "sweep" / "top_o=2")
