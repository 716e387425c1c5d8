import functools
import hashlib
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

from fema import checkpoint, embedding, memory, numeric, serialize
from fema.agents.common import AgentConfig
from fema.agents.policy import GaussianPolicy, policy_init
from fema.agents.sac import SacAgent
from fema.envs.tilt_pole import SPEC as TILT_POLE
from fema.errors import FemaError, SerializationError


class TestMlpRoundTrip:
    def test_bytes_round_trip(self):
        for widths, acts in (([4, 8, 8, 2], None), ([3, 6, 1], ["relu", "identity"])):
            m = numeric.mlp_init(widths, seed=5, acts=acts)
            blob = serialize.mlp_to_bytes(m)
            back = serialize.mlp_from_bytes(blob)
            assert [l.act for l in back.layers] == [l.act for l in m.layers]
            for pa, pb in zip(m.params(), back.params()):
                np.testing.assert_array_equal(pa, pb)

    def test_payload_is_flat_vector(self):
        # Pins FNET: this network's bytes are unchanged since format version 1.
        m = numeric.mlp_init([3, 5, 2], seed=0, acts=["tanh", "identity"])
        blob = serialize.mlp_to_bytes(m)
        assert len(blob) == 282
        assert hashlib.sha256(blob).hexdigest() == (
            "b6a5f9f6158b45ac63671087f03d55a6f1604e86457c57f04cd97d39c452f699")
        payload = b"".join(l.w.tobytes() + l.b.tobytes() for l in m.layers)
        assert blob[8 + 9 * 2:] == payload == m.flat.astype("<f8").tobytes()

    def test_deterministic_bytes(self):
        m = numeric.mlp_init([2, 4, 2], seed=1)
        assert serialize.mlp_to_bytes(m) == serialize.mlp_to_bytes(m)

    def test_bad_magic(self):
        m = numeric.mlp_init([2, 3, 1], seed=0)
        blob = bytearray(serialize.mlp_to_bytes(m))
        blob[0] = ord(b"X")
        with pytest.raises(SerializationError):
            serialize.mlp_from_bytes(bytes(blob))

    def test_truncated(self):
        m = numeric.mlp_init([2, 3, 1], seed=0)
        blob = serialize.mlp_to_bytes(m)
        with pytest.raises(SerializationError):
            serialize.mlp_from_bytes(blob[: len(blob) - 7])

    def test_trailing_garbage(self):
        m = numeric.mlp_init([2, 3, 1], seed=0)
        blob = serialize.mlp_to_bytes(m) + b"\x00\x01"
        with pytest.raises(SerializationError):
            serialize.mlp_from_bytes(blob)

    def test_bad_version(self):
        m = numeric.mlp_init([2, 3, 1], seed=0)
        blob = bytearray(serialize.mlp_to_bytes(m))
        blob[4] = 99
        with pytest.raises(SerializationError):
            serialize.mlp_from_bytes(bytes(blob))


class TestBlobContainer:
    def test_round_trip(self):
        blobs = {"policy": b"\x01\x02", "meta": b"{}", "empty": b""}
        data = serialize.blobs_to_bytes(blobs)
        back = serialize.blobs_from_bytes(data)
        assert back == blobs

    def test_order_preserved(self):
        blobs = {"b": b"1", "a": b"2"}
        back = serialize.blobs_from_bytes(serialize.blobs_to_bytes(blobs))
        assert list(back) == ["b", "a"]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "bundle.femc"
        serialize.save_blobs(path, {"x": b"abc"})
        assert serialize.load_blobs(path) == {"x": b"abc"}

    def test_rejects_duplicate_names(self):
        data = serialize.blobs_to_bytes({"x": b"1"})
        # Splice the single entry in twice.
        head, body = data[:10], data[10:]
        forged = head[:6] + (2).to_bytes(4, "little") + body + body
        with pytest.raises(SerializationError):
            serialize.blobs_from_bytes(forged)

    def test_truncated(self):
        data = serialize.blobs_to_bytes({"x": b"abcdef"})
        with pytest.raises(SerializationError):
            serialize.blobs_from_bytes(data[:-3])


def _fnet(widths) -> bytes:
    """An FNET blob with the given (in, out) layer table and zero weights."""
    head = [serialize.MLP_MAGIC, struct.pack("<HH", serialize.MLP_VERSION,
                                             len(widths))]
    n_floats = 0
    for in_d, out_d in widths:
        head.append(struct.pack("<IIB", in_d, out_d, 0))
        n_floats += in_d * out_d + out_d
    return b"".join(head) + bytes(8 * n_floats)


class TestMismatchedNetworks:
    """Crafted blobs whose parts do not fit together are refused on load."""

    @pytest.mark.parametrize("widths", [[], [(2, 0)], [(0, 3), (3, 1)],
                                        [(2, 3), (4, 1)]],
                             ids=["no-layers", "zero-out", "zero-in",
                                  "unchained"])
    def test_fnet_layer_table(self, widths):
        with pytest.raises(SerializationError):
            serialize.mlp_from_bytes(_fnet(widths))

    def test_fnet_chained_table_loads(self):
        net = serialize.mlp_from_bytes(_fnet([(2, 3), (3, 1)]))
        assert (net.in_dim, net.out_dim) == (2, 1)

    @staticmethod
    def _policy_blobs(state_dependent):
        policy = policy_init(3, 2, 1.0, "tanh" if state_dependent else "clip",
                             state_dependent, seed=0, hidden=4)
        blobs = serialize.blobs_from_bytes(policy.to_bytes())
        return blobs, json.loads(blobs["meta"].decode("utf-8"))

    @pytest.mark.parametrize("scale", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_policy_scale_length(self, scale):
        blobs, meta = self._policy_blobs(False)
        meta["scale"] = scale
        blobs["meta"] = json.dumps(meta).encode("utf-8")
        with pytest.raises(SerializationError, match="scale"):
            GaussianPolicy.from_bytes(serialize.blobs_to_bytes(blobs))

    @pytest.mark.parametrize("n_bytes", [8, 24, 12, 0])
    def test_policy_logstd_vec_length(self, n_bytes):
        blobs, _ = self._policy_blobs(False)
        blobs["logstd_vec"] = bytes(n_bytes)
        with pytest.raises(SerializationError, match="logstd_vec|unreadable"):
            GaussianPolicy.from_bytes(serialize.blobs_to_bytes(blobs))

    @pytest.mark.parametrize("name,widths", [("mean", [(5, 2)]),
                                             ("logstd", [(4, 3)])])
    def test_policy_heads_must_fit_trunk(self, name, widths):
        blobs, _ = self._policy_blobs(True)
        blobs[name] = _fnet(widths)
        with pytest.raises(SerializationError, match="head"):
            GaussianPolicy.from_bytes(serialize.blobs_to_bytes(blobs))

    @pytest.mark.parametrize("name", ["f", "g", "j", "h"])
    def test_stack_net_widths(self, name):
        stack = embedding.stack_init(d_s=3, d_a=2, seed=0, d_z=4, d_z_a=3,
                                     d_phi=5, hidden=4)
        blobs = serialize.blobs_from_bytes(embedding.stack_to_bytes(stack))
        blobs[name] = _fnet([(6, 4), (4, 6)])
        with pytest.raises(SerializationError, match=f"net '{name}'"):
            embedding.stack_from_bytes(serialize.blobs_to_bytes(blobs))

    @pytest.mark.parametrize("key,value", [("d_s", 4), ("d_phi", 6),
                                           ("d_z", "4"), ("d_a", None)])
    def test_stack_meta_widths(self, key, value):
        stack = embedding.stack_init(d_s=3, d_a=2, seed=0, d_z=4, d_z_a=3,
                                     d_phi=5, hidden=4)
        blobs = serialize.blobs_from_bytes(embedding.stack_to_bytes(stack))
        meta = json.loads(blobs["meta"].decode("utf-8"))
        meta[key] = value
        blobs["meta"] = json.dumps(meta).encode("utf-8")
        with pytest.raises(SerializationError):
            embedding.stack_from_bytes(serialize.blobs_to_bytes(blobs))


class TestMetaBlobs:
    """Meta blobs that are valid JSON but not what the loader expects."""

    @staticmethod
    def _stack_with_meta(edit):
        stack = embedding.stack_init(d_s=3, d_a=2, seed=0, hidden=4)
        blobs = serialize.blobs_from_bytes(embedding.stack_to_bytes(stack))
        blobs["meta"] = json.dumps(edit(json.loads(blobs["meta"]))).encode("utf-8")
        return serialize.blobs_to_bytes(blobs)

    @pytest.mark.parametrize("meta", [[], 5, "x"])
    def test_stack_meta_must_be_object(self, meta):
        with pytest.raises(SerializationError, match="not an object"):
            embedding.stack_from_bytes(self._stack_with_meta(lambda _: meta))

    @pytest.mark.parametrize("lr", ["0.1", None, True, float("nan"),
                                    float("inf"), 0.0, -1e-3])
    def test_stack_lr_must_be_finite_positive(self, lr):
        blob = self._stack_with_meta(lambda m: {**m, "lr": lr})
        with pytest.raises(SerializationError, match="lr"):
            embedding.stack_from_bytes(blob)

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
        body = serialize.blobs_to_bytes(blobs)
        assert sealed == body + zlib.crc32(body).to_bytes(4, "little")
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
        assert serialize.blobs_from_bytes(body)["meta"].startswith(b"{")
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


# format -> (build a valid blob, loader); small nets keep the headers and
# metadata a large share of each blob
FORMATS = {
    "fnet": (lambda: serialize.mlp_to_bytes(numeric.mlp_init([2, 3, 1], seed=0)),
             serialize.mlp_from_bytes),
    "femc": (lambda: serialize.blobs_to_bytes({"meta": b'{"a": 1}', "x": b"ab"}),
             serialize.blobs_from_bytes),
    "policy": (lambda: policy_init(2, 1, 1.0, "tanh", True, seed=0,
                                   hidden=2).to_bytes(),
               GaussianPolicy.from_bytes),
    "stack": (lambda: embedding.stack_to_bytes(embedding.stack_init(
                  d_s=1, d_a=1, seed=0, d_z=1, d_z_a=1, d_phi=1, hidden=1)),
              embedding.stack_from_bytes),
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


# the file formats: their CRC32 trailer refuses every corruption below
SEALED = {"memory", "checkpoint"}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_input_raises_only_package_errors(fmt, data):
    """Truncated, bit-flipped or extended input either loads or raises a
    FemaError; any other exception fails the test. Memory snapshots and
    checkpoints never load: they raise a SerializationError."""
    bad = data.draw(_corrupted(_valid_blob(fmt)))
    if fmt in SEALED:
        with pytest.raises(SerializationError):
            FORMATS[fmt][1](bad)
        return
    try:
        FORMATS[fmt][1](bad)
    except FemaError:
        pass
