import dataclasses
import hashlib
import json
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fema import embedding, memory, serialize
from fema.errors import (
    ConfigError,
    SerializationError,
    ShapeError,
    UsageError,
)
from oracles import linear_scan_retrieve, mc_return_direct


def make_episode(rewards, end=memory.END_HAZARD, d_s=3, d_a=2, seed=0):
    rng = np.random.default_rng(seed)
    eps = []
    for i, r in enumerate(rewards):
        eps.append(memory.Transition(
            s=rng.normal(size=d_s), a=rng.normal(size=d_a), r=float(r),
            s_next=rng.normal(size=d_s),
            end=end if i == len(rewards) - 1 else memory.END_NONE,
        ))
    return eps


def small_cfg(**kw):
    base = dict(suffix_len=4, update_every=2, capacity=8, train_epochs=2,
                train_batch=16)
    base.update(kw)
    return memory.FemaConfig(**base).validate()


def small_stack(seed=0):
    return embedding.stack_init(d_s=3, d_a=2, seed=seed, d_z=4, d_z_a=3,
                                d_phi=5, hidden=8)


class TestConfig:
    def test_defaults_valid(self):
        memory.FemaConfig().validate()

    def test_rejects_bad_values(self):
        for kw in [
            dict(suffix_len=0), dict(update_every=0), dict(n_candidates=0),
            dict(match_radius=-0.1), dict(max_matches=0), dict(discount=0.0),
            dict(discount=1.5), dict(capacity=50, update_every=100),
            dict(aggregator="median"), dict(train_epochs=0),
            dict(risk_weight=float("nan")),
        ]:
            with pytest.raises(ConfigError):
                memory.FemaConfig(**kw).validate()

    @pytest.mark.parametrize("field, value", [
        ("suffix_len", 2.5), ("suffix_len", "4"), ("suffix_len", None),
        ("update_every", True), ("match_radius", "0.1"), ("discount", None),
        ("risk_weight", False),
    ])
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            memory.FemaConfig(**{field: value}).validate()

    @pytest.mark.parametrize("d", [5, [1], "suffix_len"], ids=["int", "list", "str"])
    def test_from_dict_needs_mapping(self, d):
        with pytest.raises(ConfigError, match="mapping"):
            memory.FemaConfig.from_dict(d)

    def test_round_trip_dict(self):
        cfg = small_cfg(match_radius=0.25)
        assert memory.FemaConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError):
            memory.FemaConfig.from_dict({"bogus": 1})


class TestTailReturns:
    def test_three_step_hand_value(self):
        # rewards [1,1,1], gamma 0.9: [1 + .9(1 + .9), 1 + .9, 1]
        got = memory.discounted_tail_returns([1.0, 1.0, 1.0], 0.9)
        np.testing.assert_allclose(got, [2.71, 1.9, 1.0], rtol=0, atol=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        for gamma in (0.9, 0.99, 1.0):
            for _ in range(50):
                rewards = rng.normal(size=rng.integers(1, 30))
                got = memory.discounted_tail_returns(rewards, gamma)
                want = mc_return_direct(rewards, gamma)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_final_step_is_raw_reward(self):
        rewards = [0.3, -2.0, 5.5]
        got = memory.discounted_tail_returns(rewards, 0.97)
        assert got[-1] == 5.5

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            memory.discounted_tail_returns([], 0.9)


class TestCaptureFailure:
    def test_hazard_tail(self):
        cfg = small_cfg(suffix_len=10, discount=0.9)
        ev = memory.capture_failure(make_episode([1, 1, 1]), cfg)
        np.testing.assert_allclose(ev.returns, [2.71, 1.9, 1.0], atol=1e-12)
        assert len(ev.transitions) == 3

    def test_time_limit_is_not_failure(self):
        ev = memory.capture_failure(
            make_episode([1, 1], end=memory.END_TIME_LIMIT), small_cfg()
        )
        assert ev is None

    def test_unfinished_is_not_failure(self):
        ev = memory.capture_failure(make_episode([1], end=memory.END_NONE), small_cfg())
        assert ev is None

    def test_suffix_truncation_and_bellman(self):
        cfg = small_cfg(suffix_len=4, discount=0.95)
        rewards = list(range(10))
        episode = make_episode(rewards, seed=5)
        ev = memory.capture_failure(episode, cfg)
        assert len(ev.transitions) == 4
        # Holds exactly the last four transitions.
        for stored, orig in zip(ev.transitions, episode[6:]):
            np.testing.assert_array_equal(stored.s, orig.s)
        np.testing.assert_allclose(
            ev.returns, mc_return_direct(rewards[6:], 0.95), atol=1e-12
        )
        for t in range(len(ev.returns) - 1):
            assert abs(
                ev.returns[t] - (ev.transitions[t].r + 0.95 * ev.returns[t + 1])
            ) < 1e-12

    def test_malformed_episode_rejected(self):
        episode = make_episode([1, 1, 1])
        episode[0].end = memory.END_HAZARD
        with pytest.raises(UsageError):
            memory.capture_failure(episode, small_cfg())
        with pytest.raises(UsageError):
            memory.capture_failure([], small_cfg())


def stage_n(mem, n, start_seed=0, rewards=(1.0, -1.0, 0.5)):
    events = []
    for i in range(n):
        ev = memory.capture_failure(
            make_episode(rewards, seed=start_seed + i), mem.cfg,
            episode_id=start_seed + i, capture_step=i,
        )
        mem.stage(ev)
        events.append(ev)
    return events


class TestLifecycle:
    def test_staging_publishes_nothing(self):
        mem = memory.FailureMemory(small_cfg(update_every=3))
        stage_n(mem, 2)
        assert mem.cold
        assert mem.retrieve(np.zeros(4)).cold

    def test_update_publishes_and_drains(self):
        mem = memory.FailureMemory(small_cfg(update_every=2))
        st = small_stack()
        stage_n(mem, 2)
        count = mem.maybe_update(st)
        assert count == 6  # 2 events x 3 transitions
        assert len(mem.pending) == 0
        assert not mem.cold
        assert mem.records.version == st.version

    def test_maybe_update_below_threshold_is_noop(self):
        mem = memory.FailureMemory(small_cfg(update_every=3))
        st = small_stack()
        stage_n(mem, 2)
        assert mem.maybe_update(st) is None
        assert mem.cold

    def test_reencode_matches_fresh_encode(self):
        mem = memory.FailureMemory(small_cfg(update_every=2))
        st = small_stack(seed=2)
        events = stage_n(mem, 2)
        mem.update(st)
        rec = mem.records[0]
        want = embedding.encode_state(st, events[0].transitions[0].s)
        np.testing.assert_allclose(rec.z_s, want, rtol=0, atol=1e-12)

    def test_two_updates_zero_lr_identical_embeddings(self):
        mem = memory.FailureMemory(small_cfg(update_every=1))
        st = embedding.stack_init(d_s=3, d_a=2, seed=0, d_z=4, d_z_a=3,
                                  d_phi=5, hidden=8, lr=0.0)
        stage_n(mem, 1)
        mem.update(st)
        first = mem.records.z_s.copy()
        stage_n(mem, 1, start_seed=50)
        mem.update(st)
        np.testing.assert_array_equal(first, mem.records.z_s[: len(first)])

    def test_staged_event_is_copied(self):
        mems = [memory.FailureMemory(small_cfg(), rng=np.random.default_rng(1))
                for _ in range(2)]
        for mem in mems:
            staged = stage_n(mem, 2)
        for ev in staged:  # mutate only the second memory's events
            for t in ev.transitions:
                t.s[:] = 1e6
                t.a[:] = -1e6
            ev.returns[:] = 7.0
        for mem in mems:
            mem.update(small_stack(seed=4))
        a, b = mems[0].records, mems[1].records
        for name in ("z_s", "phi", "mc_return", "event_seq", "step_idx"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_stage_rejects_event_outside_suffix(self):
        mem = memory.FailureMemory(small_cfg(suffix_len=4))
        long_ev = memory.FailureEvent(transitions=make_episode([1.0] * 5),
                                      returns=np.ones(5))
        short_returns = memory.capture_failure(make_episode([1.0, 2.0]), mem.cfg)
        short_returns.returns = short_returns.returns[:1]
        empty = memory.FailureEvent(transitions=[], returns=np.ones(0))
        for ev in (long_ev, short_returns, empty):
            with pytest.raises(UsageError, match="suffix_len"):
                mem.stage(ev)
        assert mem.next_seq == 0 and not mem.pending

    @pytest.mark.parametrize("published", [False, True], ids=["pending", "published"])
    @pytest.mark.parametrize("d_s, d_a, widths", [(4, 2, r"\(4, 2\).*\(3, 2\)"),
                                                   (3, 1, r"\(3, 1\).*\(3, 2\)")],
                             ids=["state", "action"])
    def test_stage_refuses_other_widths(self, published, d_s, d_a, widths):
        mem = memory.FailureMemory(small_cfg(update_every=1))
        mem.stage(memory.capture_failure(make_episode([1.0, 2.0]), mem.cfg))
        if published:
            mem.update(small_stack())
        other = memory.capture_failure(make_episode([1.0], d_s=d_s, d_a=d_a), mem.cfg)
        with pytest.raises(ShapeError, match=widths):
            mem.stage(other)
        assert mem.next_seq == 1 and len(mem.pending) == (not published)
        mem.stage(memory.capture_failure(make_episode([3.0], seed=1), mem.cfg))
        assert mem.update(small_stack()) == 3

    @pytest.mark.parametrize("field, shape, match", [
        ("s", (4,), r"transition 1 .*\(\(4,\), \(2,\)\).*\(\(3,\), \(2,\)\)"),
        ("a", (3,), r"transition 1 .*\(\(3,\), \(3,\)\).*\(\(3,\), \(2,\)\)"),
        ("s", (1, 3), r"transition 1 .*\(\(1, 3\), \(2,\)\)"),
    ], ids=["state-width", "action-width", "2-d-state"])
    def test_stage_refuses_transition_of_other_shape(self, field, shape, match):
        mem = memory.FailureMemory(small_cfg())
        event = memory.capture_failure(make_episode([1.0, 2.0]), mem.cfg)
        setattr(event.transitions[1], field, np.zeros(shape))
        with pytest.raises(ShapeError, match=match):
            mem.stage(event)
        assert mem.next_seq == 0 and not mem.pending

    def test_stage_refuses_2d_first_transition_and_returns(self):
        mem = memory.FailureMemory(small_cfg())
        event = memory.capture_failure(make_episode([1.0, 2.0]), mem.cfg)
        for t in event.transitions:
            t.s = t.s[None, :]
        with pytest.raises(ShapeError, match="1-d"):
            mem.stage(event)
        event = memory.capture_failure(make_episode([1.0, 2.0]), mem.cfg)
        event.returns = event.returns[:, None]
        with pytest.raises(ShapeError, match=r"\(2, 1\); they must be 1-d"):
            mem.stage(event)
        assert mem.next_seq == 0 and not mem.pending

    def test_pending_eviction_fifo(self):
        mem = memory.FailureMemory(small_cfg(update_every=2, capacity=2))
        events = stage_n(mem, 3)
        assert len(mem.pending) == 2
        assert [e.seq for e in mem.pending] == [events[1].seq, events[2].seq]

    def test_published_capacity_fifo(self):
        mem = memory.FailureMemory(small_cfg(update_every=2, capacity=2))
        st = small_stack()
        stage_n(mem, 2)
        mem.update(st)
        stage_n(mem, 2, start_seed=10)
        mem.update(st)
        assert len(mem.events) == 2
        assert [e.seq for e in mem.events] == [2, 3]

    def test_empty_update_warns(self):
        mem = memory.FailureMemory(small_cfg())
        with pytest.warns(UserWarning):
            assert mem.update(small_stack()) == 0

    def test_publish_pinned(self):
        # sha256 prefixes of z_s + phi and of the trained stack's `flat`,
        # derived from the run that pinned its serialized bytes while each
        # embedding net was its own vector (x86-64, numpy 2.4.6,
        # scipy-openblas 0.3.31)
        mem = memory.FailureMemory(small_cfg(update_every=2),
                                   rng=np.random.default_rng(1))
        st = small_stack(seed=3)
        stage_n(mem, 3)
        mem.update(st)
        rows = mem.records.z_s.tobytes() + mem.records.phi.tobytes()
        assert hashlib.sha256(rows).hexdigest()[:16] == "5ac5b9103d7aa6cd"
        assert hashlib.sha256(st.flat.tobytes()).hexdigest()[:16] == "3146ce20f4faeb5f"


class TestRetrieve:
    def build_published(self, n_events=6, seed=0):
        mem = memory.FailureMemory(small_cfg(update_every=n_events, capacity=64))
        st = small_stack(seed=seed)
        stage_n(mem, n_events, start_seed=seed * 100)
        mem.update(st)
        return mem, st

    def test_zero_radius_misses(self):
        mem, _ = self.build_published()
        q = mem.records[0].z_s + 0.01
        res = mem.retrieve(q, small_cfg(match_radius=0.0))
        assert len(res.records) == 0 and not res.cold

    def test_infinite_radius_returns_all_sorted(self):
        mem, _ = self.build_published()
        cfg = small_cfg(match_radius=float("inf"), max_matches=len(mem.records))
        res = mem.retrieve(np.zeros(4), cfg)
        hs = [r.mc_return for r in res.records]
        assert len(res.records) == len(mem.records)
        assert hs == sorted(hs)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(17)
        mem, _ = self.build_published(n_events=10, seed=3)
        pos = {(r.event_seq, r.step_idx): i for i, r in enumerate(mem.records)}
        entries = [(i, r.z_s, r.mc_return) for i, r in enumerate(mem.records)]
        for radius in (0.05, 0.3, 1.0, 3.0):
            cfg = small_cfg(match_radius=radius, max_matches=5)
            for _ in range(25):
                q = rng.normal(size=4)
                want = linear_scan_retrieve(entries, q, radius, 5)
                got = [pos[k] for k in mem.retrieve(q, cfg).ids()]
                assert got == want

    def test_tie_break_earlier_insertion(self):
        mem, _ = self.build_published()
        # Force identical returns so ordering falls back to insertion index.
        mem.records = dataclasses.replace(mem.records,
                                          mc_return=np.ones(len(mem.records)))
        pos = {(r.event_seq, r.step_idx): i for i, r in enumerate(mem.records)}
        cfg = small_cfg(match_radius=float("inf"), max_matches=3)
        got = [pos[k] for k in mem.retrieve(np.zeros(4), cfg).ids()]
        assert got == [0, 1, 2]

    def test_bad_query_width(self):
        mem, _ = self.build_published()
        with pytest.raises(ShapeError):
            mem.retrieve(np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        mem, _ = self.build_published()
        q = mem.records[0].z_s.copy()
        q[1] = bad
        with pytest.raises(UsageError):
            mem.retrieve(q, small_cfg(match_radius=float("inf")))
        with pytest.raises(UsageError):
            memory.FailureMemory(small_cfg()).retrieve(q)

    def test_row_view_surface(self):
        """The row view the benchmark harness reads: len, indexing,
        iteration, row attributes, truth of a retrieval and its ids."""
        mem, _ = self.build_published()
        gen = mem.records
        assert len(gen) == 18 and len(list(gen)) == 18
        for i, row in enumerate(gen):
            ev = mem.events[i // 3]
            for r in (row, gen[i]):
                assert (r.event_seq, r.step_idx) == (ev.seq, i % 3)
                assert r.mc_return == ev.returns[i % 3]
                np.testing.assert_array_equal(r.z_s, gen.z_s[i])
                np.testing.assert_array_equal(r.phi, gen.phi[i])
        assert isinstance(gen[0].mc_return, float)
        assert isinstance(gen[0].event_seq, int)
        with pytest.raises(ValueError):
            gen.z_s[0, 0] = 1.0

        hit = mem.retrieve(gen[4].z_s, small_cfg(max_matches=2))
        assert hit.records and not hit.cold
        assert hit.ids() == [(r.event_seq, r.step_idx) for r in hit.records]
        assert (gen[4].event_seq, gen[4].step_idx) in hit.ids()
        miss = mem.retrieve(gen[4].z_s + 1e3)
        assert not miss.records and not miss.cold and miss.ids() == []
        cold = memory.FailureMemory(small_cfg()).retrieve(np.zeros(4))
        assert not cold.records and cold.cold and cold.ids() == []


class TestSnapshot:
    def build(self):
        mem = memory.FailureMemory(small_cfg(update_every=4, capacity=32))
        st = small_stack(seed=9)
        stage_n(mem, 4, start_seed=7)
        mem.update(st)
        stage_n(mem, 1, start_seed=99)  # leave one pending
        return mem, st

    def test_round_trip_bit_exact(self, tmp_path):
        mem, _ = self.build()
        path = tmp_path / "mem.fema"
        mem.snapshot(path)
        back = memory.FailureMemory.load(path)
        assert back.version == mem.version
        assert back.next_seq == mem.next_seq
        assert len(back.pending) == 1
        rng = np.random.default_rng(23)
        for _ in range(50):
            q = rng.normal(size=4)
            a = mem.retrieve(q).ids()
            b = back.retrieve(q).ids()
            assert a == b
        for ra, rb in zip(mem.records, back.records):
            np.testing.assert_array_equal(ra.z_s, rb.z_s)
            np.testing.assert_array_equal(ra.phi, rb.phi)
            assert ra.mc_return == rb.mc_return

    def test_snapshot_bytes_deterministic(self):
        mem, _ = self.build()
        assert mem.to_bytes() == mem.to_bytes()

    @staticmethod
    def resealed(mem, meta=(), **arrays) -> bytes:
        """The snapshot of `mem` with `meta` entries and array blobs
        replaced, sealed again so that its CRC32 trailer holds."""
        blobs = serialize.unseal(mem.to_bytes())
        old_meta = json.loads(bytes(blobs["meta"]))
        blobs["meta"] = json.dumps({**old_meta, **dict(meta)}).encode("utf-8")
        blobs.update(arrays)
        return serialize.seal(blobs)

    def test_layout(self):
        mem, _ = self.build()
        blobs = serialize.unseal(mem.to_bytes())
        assert list(blobs) == ["meta", *memory.FailureMemory.ARRAYS]
        meta = json.loads(bytes(blobs["meta"]))
        assert meta == {"format": "fema-memory", "version": 4,
                        "config": mem.cfg.to_dict(), "generation": mem.version,
                        "next_seq": 5, "published": 4,
                        "d_s": 3, "d_a": 2, "d_z": 4, "d_phi": 5}
        tails = [*mem.events, *mem.pending]
        assert bytes(blobs["seq"]) == np.arange(5, dtype="<i8").tobytes()
        assert bytes(blobs["s"]) == np.concatenate([t.s for t in tails]).tobytes()
        assert bytes(blobs["phi"]) == mem.records.phi.tobytes()

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(SerializationError, match=r"nope\.fema"):
            memory.FailureMemory.load(tmp_path / "nope.fema")

    def test_corrupt_magic_refused(self, tmp_path):
        mem, _ = self.build()
        blob = bytearray(mem.to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(SerializationError):
            memory.FailureMemory.from_bytes(bytes(blob))

    def test_format_version_1_refused(self):
        blob = self.resealed(self.build()[0], meta={"version": 1})
        with pytest.raises(SerializationError, match="memory version 1"):
            memory.FailureMemory.from_bytes(blob)

    def test_format_version_2_refused(self):
        blob = self.resealed(self.build()[0], meta={"version": 2})
        with pytest.raises(SerializationError, match="memory version 2"):
            memory.FailureMemory.from_bytes(blob)

    def test_format_3_snapshot_refused(self):
        # What format 3 wrote for a fresh memory: magic, header (version,
        # widths, discount), config hash and JSON, generation version, next
        # seq, event counts and a CRC32 trailer over all of it.
        cfg = small_cfg()
        cfg_json = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
        body = b"".join([b"FEMA", struct.pack("<H4Id", 3, 0, 0, 0, 0, cfg.discount),
                         hashlib.sha256(cfg_json).digest(),
                         struct.pack("<I", len(cfg_json)), cfg_json,
                         struct.pack("<qQII", -1, 0, 0, 0)])
        blob = body + zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(SerializationError, match="FEMC magic"):
            memory.FailureMemory.from_bytes(blob)

    def test_other_format_refused(self):
        blob = self.resealed(self.build()[0], meta={"format": "fema-checkpoint"})
        with pytest.raises(SerializationError, match="not a memory file"):
            memory.FailureMemory.from_bytes(blob)

    @pytest.mark.parametrize("table, i, value, match", [
        ("length", 1, 0, "tail length"),
        ("length", 2, 5, "tail length"),     # suffix_len is 4
        ("seq", 3, 2, "increase"),           # repeats the seq before it
        ("seq", 4, 5, "next seq"),           # next_seq is 5
    ], ids=["zero_length", "length_over_suffix", "seq_repeats", "seq_at_next_seq"])
    def test_event_table_checked(self, table, i, value, match):
        mem, _ = self.build()
        blobs = serialize.unseal(mem.to_bytes())
        arrays = {name: np.frombuffer(blobs[name], "<i8").copy()
                  for name in ("seq", "length")}
        assert arrays["seq"].tolist() == [0, 1, 2, 3, 4] and mem.next_seq == 5
        assert arrays["length"].tolist() == [3] * 5 and mem.cfg.suffix_len == 4
        arrays[table][i] = value
        with pytest.raises(SerializationError, match=match):
            memory.FailureMemory.from_bytes(self.resealed(mem, **arrays))

    @pytest.mark.parametrize("meta, match", [
        ({"published": 6}, "capacity"),       # only 5 events are stored
        ({"published": 4.0}, "out of range"),
        ({"next_seq": -1}, "out of range"),
        ({"generation": -2}, "out of range"),
        ({"d_z": True}, "out of range"),
        ({"d_s": 2}, "s blob"),
        ({"d_a": 3}, "a blob"),
        ({"d_z": 5}, "z_s blob"),
        ({"d_phi": 4}, "phi blob"),
    ], ids=["published_over_stored", "published_float", "next_seq_negative",
            "generation_below_cold", "d_z_bool", "d_s", "d_a", "d_z", "d_phi"])
    def test_counts_and_widths_checked(self, meta, match):
        blob = self.resealed(self.build()[0], meta=meta)
        with pytest.raises(SerializationError, match=match):
            memory.FailureMemory.from_bytes(blob)

    @pytest.mark.parametrize("publish, generation", [(True, -1), (False, 0)],
                             ids=["cold_over_published", "warm_without_published"])
    def test_generation_agrees_with_published_events(self, publish, generation):
        mem = memory.FailureMemory(small_cfg(update_every=4, capacity=32))
        stage_n(mem, 4, start_seed=7)
        if publish:
            mem.update(small_stack(seed=9))
        assert (len(mem.events), mem.cold) == ((4, False) if publish else (0, True))
        blob = self.resealed(mem, meta={"generation": generation})
        with pytest.raises(SerializationError,
                           match=f"generation {generation} disagrees"):
            memory.FailureMemory.from_bytes(blob)

    @pytest.mark.parametrize("name", list(memory.FailureMemory.ARRAYS))
    def test_blob_sizes_checked(self, name):
        mem, _ = self.build()
        view = serialize.unseal(mem.to_bytes())[name]
        # the table's size comes from the seq blob; the length blob must match
        match = " length blob" if name == "seq" else f" {name} blob"
        with pytest.raises(SerializationError, match=match):
            memory.FailureMemory.from_bytes(self.resealed(mem, **{name: view[:-8]}))

    def test_flipped_embedding_bit_refused(self):
        mem, _ = self.build()
        blob = bytearray(mem.to_bytes())
        z_start = blob.index(mem.records.z_s.tobytes())
        blob[z_start + mem.records.z_s.nbytes // 2] ^= 0x10
        with pytest.raises(SerializationError, match="CRC32"):
            memory.FailureMemory.from_bytes(bytes(blob))

    @pytest.mark.parametrize("value", ["4", None])
    def test_config_of_wrong_type_refused(self, value):
        mem, _ = self.build()
        cfg = dict(mem.cfg.to_dict(), suffix_len=value)
        with pytest.raises(ConfigError, match="suffix_len"):
            memory.FailureMemory.from_bytes(self.resealed(mem, meta={"config": cfg}))

    def test_truncation_refused(self):
        mem, _ = self.build()
        blob = mem.to_bytes()
        with pytest.raises(SerializationError):
            memory.FailureMemory.from_bytes(blob[:-5])


class TestListModel:
    """Random stage/update sequences against a plain-list model of the
    memory: FIFO pending and published lists, and the rows they publish."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(capacity=st.integers(1, 5), suffix_len=st.integers(1, 4),
           ops=st.lists(st.one_of(st.none(), st.integers(1, 6)), max_size=20))
    def test_stage_and_update_match_model(self, capacity, suffix_len, ops):
        cfg = small_cfg(suffix_len=suffix_len, update_every=1, capacity=capacity,
                        train_epochs=1, train_batch=4, discount=0.9)
        mem = memory.FailureMemory(cfg, rng=np.random.default_rng(0))
        stack = small_stack()
        pending, published, rows = [], [], []
        for op in ops:
            if op is None:  # update
                with warnings.catch_warnings(record=True):
                    warnings.simplefilter("always")
                    mem.update(stack)
                if pending or published:
                    published = (published + pending)[-capacity:]
                    pending = []
                    rows = [(q, i, h) for q, hs in published for i, h in enumerate(hs)]
            else:  # stage an episode of `op` steps
                seq = mem.next_seq
                rewards = np.arange(op) - 0.5 * seq
                mem.stage(memory.capture_failure(make_episode(rewards, seed=seq), cfg))
                pending = (pending + [(seq, mc_return_direct(rewards[-suffix_len:], 0.9))])
                pending = pending[-capacity:]
            assert [t.seq for t in mem.pending] == [q for q, _ in pending]
            assert [t.seq for t in mem.events] == [q for q, _ in published]
            got = mem.records
            assert list(zip(got.event_seq.tolist(), got.step_idx.tolist())) == [
                (q, i) for q, i, _ in rows]
            np.testing.assert_allclose(got.mc_return, [h for *_, h in rows],
                                       rtol=0, atol=1e-12)
            blob = mem.to_bytes()
            assert memory.FailureMemory.from_bytes(blob).to_bytes() == blob
