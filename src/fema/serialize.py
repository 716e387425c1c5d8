"""Named-blob containers sealed with a CRC32 trailer, and crash-safe writes.

Container format ("FEMC"): magic | u16 version | u32 count |
per entry: u16 name length, name utf-8, u64 payload length, payload bytes.
A sealed file (`seal`, `unseal`) is one container and a u32 trailer, the
`zlib.crc32` of every byte before it. Both run files are sealed:
`checkpoint.bin` (format 2, see `checkpoint`; `save_blobs`, `load_blobs`)
and the failure memory's `memory.bin` (format 4, see `memory`). In each, a
JSON `meta` blob names the format and version (`read_meta`) and the other
blobs are little-endian arrays, whose sizes the loader checks against the
widths in the meta.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from .errors import SerializationError

CONTAINER_MAGIC = b"FEMC"
CONTAINER_VERSION = 1


def _container(blobs: dict) -> list:
    """The parts of the container of `blobs` (name -> bytes-like payload)."""
    parts = [CONTAINER_MAGIC, struct.pack("<HI", CONTAINER_VERSION, len(blobs))]
    for name, payload in blobs.items():
        enc = name.encode("utf-8")
        parts += [struct.pack("<H", len(enc)), enc,
                  struct.pack("<Q", memoryview(payload).nbytes), payload]
    return parts


def seal(blobs: dict) -> bytes:
    """The container of `blobs` and its CRC32 trailer, joined in one copy."""
    parts = _container(blobs)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([*parts, struct.pack("<I", crc)])


def _views(buf: memoryview) -> dict:
    """name -> a view of each payload of the container in `buf`."""
    if len(buf) < 10 or buf[:4] != CONTAINER_MAGIC:
        raise SerializationError("bad container: missing FEMC magic")
    version, count = struct.unpack_from("<HI", buf, 4)
    if version != CONTAINER_VERSION:
        raise SerializationError(f"unsupported container version {version}")
    off = 10
    out = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", buf, off)
            name = str(buf[off + 2:off + 2 + name_len], "utf-8")
            (size,) = struct.unpack_from("<Q", buf, off + 2 + name_len)
        except (struct.error, UnicodeDecodeError) as exc:
            raise SerializationError(f"truncated or unreadable container entry: {exc}") from exc
        off += 2 + name_len + 8
        if off + size > len(buf):
            raise SerializationError(f"truncated container payload for {name!r}")
        if name in out:
            raise SerializationError(f"duplicate container entry {name!r}")
        out[name] = buf[off:off + size]
        off += size
    if off != len(buf):
        raise SerializationError("trailing bytes after container payload")
    return out


def unseal(buf) -> dict:
    """name -> a view of each payload of a sealed file's bytes, after its
    CRC32 trailer is checked."""
    buf = memoryview(buf)
    if len(buf) < 4 or zlib.crc32(buf[:-4]) != int.from_bytes(buf[-4:], "little"):
        raise SerializationError("sealed file fails its CRC32 check")
    return _views(buf[:-4])


def read_meta(blobs: dict, fmt: str, version: int) -> dict:
    """The JSON `meta` object of a sealed file; it must name `fmt` at `version`."""
    kind = fmt.removeprefix("fema-")
    try:
        meta = json.loads(str(blobs["meta"], "utf-8"))
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"unreadable {kind} metadata: {exc!r}") from exc
    if not isinstance(meta, dict) or meta.get("format") != fmt:
        raise SerializationError(f"not a {kind} file")
    if meta.get("version") != version:
        raise SerializationError(f"unsupported {kind} version {meta.get('version')!r}")
    return meta


def write_atomic(path, data: bytes) -> None:
    """Replace the file at `path` with `data`: write a temp file in the same
    directory, flush and fsync it, rename it over `path`, then fsync the
    directory so that the rename survives a crash. On an error before the
    rename the temp file is removed and any old file at `path` is left as it
    was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        if hasattr(os, "O_DIRECTORY"):  # make the rename itself durable
            fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_DIRECTORY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_blobs(path, blobs: dict):
    write_atomic(path, seal(blobs))


def read_bytes(path) -> bytes:
    """The whole file; an unreadable path is a `SerializationError`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def load_blobs(path) -> dict:
    return {name: bytes(view) for name, view in unseal(read_bytes(path)).items()}
