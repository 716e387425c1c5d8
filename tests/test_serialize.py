import functools
import json
import os
import stat
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fema import checkpoint, embedding, memory, serialize
from fema.agents.common import AgentConfig
from fema.agents.sac import SacAgent
from fema.envs.tilt_pole import SPEC as TILT_POLE
from fema.errors import FemaError, SerializationError

from helpers import edit_checkpoint, save_agent


def _agent_checkpoint(tmp_path, algo="sac", fema=True):
    """(agent, path) of a small agent's checkpoint."""
    path = tmp_path / "ckpt.bin"
    return save_agent(path, algo, 3, 2, 4, fema=fema), path


def _resealed(body: bytes) -> bytes:
    """`body` closed by its valid CRC32 trailer."""
    return body + zlib.crc32(body).to_bytes(4, "little")


class TestMlpRoundTrip:
    """Each net's parameter vector round-trips through its checkpoint blob."""

    def test_bytes_round_trip(self, tmp_path):
        """Every net comes back with its widths, activations and vector."""
        for algo in ("sac", "ppo"):
            agent, path = _agent_checkpoint(tmp_path, algo)
            data = checkpoint.load_checkpoint(path)
            pairs = [(data.policy.trunk, agent.policy.trunk),
                     (data.policy.mean_head, agent.policy.mean_head),
                     *((data.nets[name], getattr(agent, name)) for name in data.nets),
                     *((getattr(data.stack, n), getattr(agent.stack, n)) for n in "fgjh")]
            if algo == "sac":
                pairs.append((data.policy.logstd_head, agent.policy.logstd_head))
            for back, net in pairs:
                assert (back.widths, back.acts) == (net.widths, net.acts)
                assert back.flat.tobytes() == net.flat.tobytes()

    def test_payload_is_flat_vector(self, tmp_path):
        agent, path = _agent_checkpoint(tmp_path)
        blobs = serialize.load_blobs(path)
        for name in ("q1", "q2t"):
            payload = b"".join(l.w.tobytes() + l.b.tobytes()
                               for l in getattr(agent, name).layers)
            assert blobs[name] == payload == getattr(agent, name).flat.astype("<f8").tobytes()
        assert blobs["stack.h"] == agent.stack.h.flat.astype("<f8").tobytes()

    def test_deterministic_bytes(self, tmp_path):
        agent, path = _agent_checkpoint(tmp_path)
        checkpoint.save_checkpoint(tmp_path / "again.bin", agent, "probe", 0)
        assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()

    def test_truncated(self, tmp_path):
        _, path = _agent_checkpoint(tmp_path)
        blob = serialize.load_blobs(path)["q1"]
        for cut in (7, 8):
            edit_checkpoint(path, blobs={"q1": blob[:-cut]})
            with pytest.raises(SerializationError, match="q1 blob"):
                checkpoint.load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        _, path = _agent_checkpoint(tmp_path)
        blob = serialize.load_blobs(path)["stack.g"]
        for extra in (2, 8):
            edit_checkpoint(path, blobs={"stack.g": blob + bytes(extra)})
            with pytest.raises(SerializationError, match="stack.g blob"):
                checkpoint.load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        _, path = _agent_checkpoint(tmp_path)
        body = bytearray(path.read_bytes()[:-4])
        body[4] = 99    # the container version
        with pytest.raises(SerializationError, match="container version 99"):
            _load_checkpoint_bytes(_resealed(bytes(body)))


class TestBlobContainer:
    def test_round_trip(self):
        blobs = {"policy": b"\x01\x02", "meta": b"{}", "empty": b""}
        back = serialize.unseal(serialize.seal(blobs))
        assert {name: bytes(view) for name, view in back.items()} == blobs

    def test_order_preserved(self):
        back = serialize.unseal(serialize.seal({"b": b"1", "a": b"2"}))
        assert list(back) == ["b", "a"]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "bundle.femc"
        serialize.save_blobs(path, {"x": b"abc"})
        assert serialize.load_blobs(path) == {"x": b"abc"}

    def test_rejects_duplicate_names(self):
        data = serialize.seal({"x": b"1"})[:-4]
        # Splice the single entry in twice.
        head, body = data[:10], data[10:]
        forged = head[:6] + (2).to_bytes(4, "little") + body + body
        with pytest.raises(SerializationError, match="duplicate"):
            serialize.unseal(_resealed(forged))

    def test_truncated(self):
        data = serialize.seal({"x": b"abcdef"})[:-4]
        with pytest.raises(SerializationError, match="truncated"):
            serialize.unseal(_resealed(data[:-3]))


class TestMismatchedNetworks:
    """Checkpoint blobs that do not fit the widths in the meta are refused."""

    @pytest.mark.parametrize("scale", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_policy_scale_length(self, tmp_path, scale):
        _, path = _agent_checkpoint(tmp_path, "ppo", fema=False)
        edit_checkpoint(path, {"scale": scale})
        with pytest.raises(SerializationError, match="scale"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("n_bytes", [8, 24, 12, 0])
    def test_policy_logstd_vec_length(self, tmp_path, n_bytes):
        _, path = _agent_checkpoint(tmp_path, "ppo", fema=False)
        edit_checkpoint(path, blobs={"policy.logstd": bytes(n_bytes)})
        with pytest.raises(SerializationError, match="policy.logstd blob"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("name,widths", [("mean", [(5, 2)]),
                                             ("logstd", [(4, 3)])])
    def test_policy_heads_must_fit_trunk(self, tmp_path, name, widths):
        _, path = _agent_checkpoint(tmp_path, "sac", fema=False)
        n_floats = sum((n_in + 1) * n_out for n_in, n_out in widths)
        edit_checkpoint(path, blobs={f"policy.{name}": bytes(8 * n_floats)})
        with pytest.raises(SerializationError, match=f"policy.{name} blob does not fit"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("name", ["f", "g", "j", "h"])
    def test_stack_net_widths(self, tmp_path, name):
        _, path = _agent_checkpoint(tmp_path)
        net_6_4_6 = bytes(8 * (7 * 4 + 5 * 6))  # zeros for a 6 -> 4 -> 6 net
        edit_checkpoint(path, blobs={f"stack.{name}": net_6_4_6})
        with pytest.raises(SerializationError, match=f"stack.{name} blob does not fit"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("d_s", 4), ("d_phi", 6),
                                           ("d_z", "4"), ("d_a", None)])
    def test_stack_meta_widths(self, tmp_path, key, value):
        _, path = _agent_checkpoint(tmp_path)
        meta = json.loads(serialize.load_blobs(path)["meta"])
        if key in meta["stack"]:
            meta = {"stack": {**meta["stack"], key: value}}
        else:
            meta = {key: value}
        edit_checkpoint(path, meta)
        with pytest.raises(SerializationError):
            checkpoint.load_checkpoint(path)


class TestMetaBlobs:
    """Meta blobs that are valid JSON but not what the loader expects."""

    @staticmethod
    def _stack_with_meta(tmp_path, edit):
        _, path = _agent_checkpoint(tmp_path)
        meta = json.loads(serialize.load_blobs(path)["meta"])
        edit_checkpoint(path, {"stack": edit(meta["stack"])})
        return path

    @pytest.mark.parametrize("meta", [[], 5, "x"])
    def test_stack_meta_must_be_object(self, tmp_path, meta):
        with pytest.raises(SerializationError, match="not an object"):
            checkpoint.load_checkpoint(self._stack_with_meta(tmp_path, lambda _: meta))

    @pytest.mark.parametrize("lr", ["0.1", None, True, float("nan"),
                                    float("inf"), 0.0, -1e-3])
    def test_stack_lr_must_be_finite_positive(self, tmp_path, lr):
        path = self._stack_with_meta(tmp_path, lambda m: {**m, "lr": lr})
        with pytest.raises(SerializationError, match="lr"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("meta", [[], 5, "x"])
    def test_checkpoint_meta_must_be_object(self, meta):
        blobs = serialize.unseal(_valid_blob("checkpoint"))
        blobs["meta"] = json.dumps(meta).encode("utf-8")
        with pytest.raises(SerializationError, match="not a checkpoint"):
            _load_checkpoint_bytes(serialize.seal(blobs))


class TestSealed:
    def test_seal_is_container_and_crc32(self):
        blobs = {"meta": b"{}", "x": np.arange(3.0)}
        sealed = serialize.seal(blobs)
        body = b"".join([b"FEMC", struct.pack("<HI", 1, 2),
                         struct.pack("<H", 4), b"meta", struct.pack("<Q", 2), b"{}",
                         struct.pack("<H", 1), b"x", struct.pack("<Q", 24),
                         np.arange(3.0).astype("<f8").tobytes()])
        assert sealed == _resealed(body)
        views = serialize.unseal(sealed)
        assert list(views) == ["meta", "x"]
        assert bytes(views["x"]) == np.arange(3.0).tobytes()

    def test_file_is_sealed(self, tmp_path):
        path = tmp_path / "bundle.femc"
        serialize.save_blobs(path, {"x": b"abc"})
        data = path.read_bytes()
        assert data == serialize.seal({"x": b"abc"})

    @pytest.mark.parametrize("buf", [b"", b"abc", b"\x00\x00\x00\x00"],
                             ids=["empty", "short", "crc_of_nothing"])
    def test_too_short_refused(self, buf):
        with pytest.raises(SerializationError):
            serialize.unseal(buf)

    def test_checkpoint_written_before_the_trailer_refused(self):
        # The body alone is the exact layout checkpoints had before sealing.
        body = _valid_blob("checkpoint")[:-4]
        assert body.startswith(serialize.CONTAINER_MAGIC)
        with pytest.raises(SerializationError, match="CRC32"):
            _load_checkpoint_bytes(body)

    @pytest.mark.parametrize("meta, match", [
        (b"\xff", "unreadable thing metadata"),
        (b"[1]", "not a thing file"),
        (b'{"format": "fema-other", "version": 1}', "not a thing file"),
        (b'{"format": "fema-thing", "version": "1"}', "thing version '1'"),
        (None, "unreadable thing metadata"),
    ], ids=["not_utf8", "not_object", "other_format", "string_version", "missing"])
    def test_read_meta_refuses(self, meta, match):
        blobs = {} if meta is None else {"meta": meta}
        with pytest.raises(SerializationError, match=match):
            serialize.read_meta(blobs, "fema-thing", 1)

    def test_read_meta_accepts(self):
        meta = {"format": "fema-thing", "version": 2, "n": 1}
        blobs = serialize.unseal(serialize.seal({"meta": json.dumps(meta).encode()}))
        assert serialize.read_meta(blobs, "fema-thing", 2) == meta


class TestWriteAtomic:
    def test_replaces_contents(self, tmp_path):
        path = tmp_path / "out.bin"
        serialize.write_atomic(path, b"old")
        serialize.write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_fsyncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync

        def recorded(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recorded)
        serialize.write_atomic(tmp_path / "out.bin", b"data")
        assert synced == [False, True] if hasattr(os, "O_DIRECTORY") else [False]

    def test_failure_midway_leaves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        real_open = open

        class HalfWriter:
            """Writes the first half of the payload, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("device went away")

        monkeypatch.setattr("builtins.open",
                            lambda *a, **k: HalfWriter(real_open(*a, **k)))
        with pytest.raises(OSError, match="went away"):
            serialize.write_atomic(path, b"new contents that never land")
        monkeypatch.undo()
        assert path.read_bytes() == b"old contents"
        assert os.listdir(tmp_path) == ["out.bin"]


def _memory_blob() -> bytes:
    cfg = memory.FemaConfig(suffix_len=2, update_every=1, capacity=4,
                            train_epochs=1, train_batch=4)
    mem = memory.FailureMemory(cfg, rng=np.random.default_rng(0))
    stack = embedding.stack_init(d_s=2, d_a=1, seed=0, d_z=2, d_z_a=2,
                                 d_phi=2, hidden=4)
    rng = np.random.default_rng(1)
    for _ in range(2):
        episode = [memory.Transition(s=rng.normal(size=2), a=rng.normal(size=1),
                                     r=1.0, s_next=rng.normal(size=2),
                                     end=end)
                   for end in (memory.END_NONE, memory.END_HAZARD)]
        mem.stage(memory.capture_failure(episode, cfg))
        if mem.cold:
            mem.update(stack)
    return mem.to_bytes()


def _checkpoint_blob() -> bytes:
    agent = SacAgent(TILT_POLE, AgentConfig(hidden=1), seed=0,
                     fema_cfg=memory.FemaConfig())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.bin")
        checkpoint.save_checkpoint(path, agent, "tilt_pole", 0)
        with open(path, "rb") as fh:
            return fh.read()


def _load_checkpoint_bytes(buf: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.bin")
        with open(path, "wb") as fh:
            fh.write(buf)
        return checkpoint.load_checkpoint(path)


# format -> (build a valid sealed file, loader); small nets keep the headers
# and metadata a large share of each file
FORMATS = {
    "femc": (lambda: serialize.seal({"meta": b'{"a": 1}', "x": b"ab"}),
             serialize.unseal),
    "memory": (_memory_blob, memory.FailureMemory.from_bytes),
    "checkpoint": (_checkpoint_blob, _load_checkpoint_bytes),
}


@functools.cache
def _valid_blob(fmt: str) -> bytes:
    return FORMATS[fmt][0]()


@st.composite
def _corrupted(draw, blob: bytes) -> bytes:
    op = draw(st.sampled_from(["truncate", "flip", "append"]))
    if op == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if op == "flip":
        bit = draw(st.integers(0, 8 * len(blob) - 1))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    return blob + draw(st.binary(min_size=1, max_size=16))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_input_raises_only_package_errors(fmt, data):
    """A truncated, bit-flipped or extended sealed file never loads: its
    CRC32 trailer makes the loader raise a SerializationError."""
    bad = data.draw(_corrupted(_valid_blob(fmt)))
    with pytest.raises(SerializationError):
        FORMATS[fmt][1](bad)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_resealed_corruption_raises_only_package_errors(fmt, data):
    """A container body truncated, bit-flipped or extended, then sealed
    again with a valid trailer, gets past the CRC32 check: the loader behind
    it either loads it or raises a FemaError; any other exception fails."""
    body = data.draw(_corrupted(_valid_blob(fmt)[:-4]))
    try:
        FORMATS[fmt][1](_resealed(body))
    except FemaError:
        pass
