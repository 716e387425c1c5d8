"""Flat binary layouts for network parameters and named-blob containers.

MLP format ("FNET"): magic | u16 version | u16 n_layers |
per layer (u32 in, u32 out, u8 act code) | the network's parameter vector
`Mlp.flat` as little-endian f8 (layer by layer: W row-major then b).

Container format ("FEMC"): magic | u16 version | u32 count |
per entry: u16 name length, name utf-8, u64 payload length, payload bytes.
Used by checkpoints to bundle parameter blobs, rng state and metadata.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import SerializationError, ShapeError
from .numeric import ACTIVATIONS, Mlp

MLP_MAGIC = b"FNET"
MLP_VERSION = 1
CONTAINER_MAGIC = b"FEMC"
CONTAINER_VERSION = 1

_ACT_CODE = {name: i for i, name in enumerate(ACTIVATIONS)}
_CODE_ACT = {i: name for name, i in _ACT_CODE.items()}


def mlp_to_bytes(mlp: Mlp) -> bytes:
    head = [MLP_MAGIC, struct.pack("<HH", MLP_VERSION, len(mlp.layers))]
    for n_in, n_out, act in zip(mlp.widths, mlp.widths[1:], mlp.acts):
        head.append(struct.pack("<IIB", n_in, n_out, _ACT_CODE[act]))
    return b"".join(head) + mlp.flat.astype("<f8").tobytes()


def mlp_from_bytes(buf: bytes) -> Mlp:
    if len(buf) < 8 or buf[:4] != MLP_MAGIC:
        raise SerializationError("bad parameter blob: missing FNET magic")
    version, n_layers = struct.unpack_from("<HH", buf, 4)
    if version != MLP_VERSION:
        raise SerializationError(f"unsupported FNET version {version}")
    if n_layers == 0:
        raise SerializationError("FNET network has no layers")
    off = 8
    widths, acts = [], []
    for _ in range(n_layers):
        if off + 9 > len(buf):
            raise SerializationError("truncated FNET layer table")
        in_d, out_d, code = struct.unpack_from("<IIB", buf, off)
        off += 9
        if code not in _CODE_ACT:
            raise SerializationError(f"unknown activation code {code}")
        if in_d == 0 or out_d == 0 or (widths and widths[-1] != in_d):
            raise SerializationError("FNET layer widths are zero or do not chain")
        if not widths:
            widths.append(in_d)
        widths.append(out_d)
        acts.append(_CODE_ACT[code])

    if (len(buf) - off) % 8:
        raise SerializationError("FNET payload is not a whole number of f8 values")
    try:
        return Mlp(widths, acts, np.frombuffer(buf, dtype="<f8", offset=off).astype(np.float64))
    except ShapeError as exc:
        raise SerializationError(f"FNET payload does not fit its layer table: {exc}") from exc


def expect_widths(mlp: Mlp, in_dim, out_dim, what: str) -> None:
    """Reject a loaded network whose input or output width is not expected."""
    if (mlp.in_dim, mlp.out_dim) != (in_dim, out_dim):
        raise SerializationError(f"{what} maps {mlp.in_dim} -> {mlp.out_dim}, "
                                 f"expected {in_dim} -> {out_dim}")


def blobs_to_bytes(blobs: dict) -> bytes:
    parts = [CONTAINER_MAGIC, struct.pack("<HI", CONTAINER_VERSION, len(blobs))]
    for name, payload in blobs.items():
        enc = name.encode("utf-8")
        parts.append(struct.pack("<H", len(enc)))
        parts.append(enc)
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def blobs_from_bytes(buf: bytes) -> dict:
    if len(buf) < 10 or buf[:4] != CONTAINER_MAGIC:
        raise SerializationError("bad container: missing FEMC magic")
    version, count = struct.unpack_from("<HI", buf, 4)
    if version != CONTAINER_VERSION:
        raise SerializationError(f"unsupported container version {version}")
    off = 10
    out = {}
    for _ in range(count):
        if off + 2 > len(buf):
            raise SerializationError("truncated container entry header")
        (name_len,) = struct.unpack_from("<H", buf, off)
        off += 2
        try:
            name = buf[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"unreadable container entry name: {exc}") from exc
        off += name_len
        if off + 8 > len(buf):
            raise SerializationError("truncated container entry size")
        (size,) = struct.unpack_from("<Q", buf, off)
        off += 8
        if off + size > len(buf):
            raise SerializationError(f"truncated container payload for {name!r}")
        if name in out:
            raise SerializationError(f"duplicate container entry {name!r}")
        out[name] = bytes(buf[off:off + size])
        off += size
    if off != len(buf):
        raise SerializationError("trailing bytes after container payload")
    return out


def write_atomic(path, data: bytes) -> None:
    """Replace the file at `path` with `data`: write a temp file in the same
    directory, flush and fsync it, then rename it over `path`. On error the
    temp file is removed and any old file at `path` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_blobs(path, blobs: dict):
    write_atomic(path, blobs_to_bytes(blobs))


def load_blobs(path) -> dict:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    return blobs_from_bytes(buf)
