"""Line-oriented JSON metric logs: append-only, deterministic bytes."""

from __future__ import annotations

import json

import numpy as np

from ..errors import SerializationError


def _plain(value):
    """Coerce numpy scalars/arrays so records serialize portably."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def dump_record(record: dict) -> str:
    """One canonical log line: sorted keys, no whitespace, no timestamps."""
    return json.dumps(_plain(record), sort_keys=True, separators=(",", ":"))


def append_record(fh, record: dict) -> None:
    fh.write(dump_record(record) + "\n")


def read_records(path) -> list:
    """Every non-blank line as a dict; anything else names `path:line`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    out = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"{path}:{line_no}: bad record: {exc}")
        if not isinstance(record, dict):
            raise SerializationError(
                f"{path}:{line_no}: record is not a JSON object")
        out.append(record)
    return out
