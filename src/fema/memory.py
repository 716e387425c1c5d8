"""Failure episodic memory.

Episodes that end in a hazard contribute their last few transitions, each
tagged with the discounted return of the remaining tail. Staging keeps only
what retrieval needs: the event becomes a `Tail` of state, action and return
arrays. Tails accumulate in a pending buffer and are folded in periodically:
the embedding stack trains on everything stored, every stored row is
re-encoded with the fresh encoders, and the resulting arrays become the
searchable generation that retrieval runs against. Between updates the
published generation is immutable.

A snapshot (format 3, see `FailureMemory.to_bytes`) is a header, an event
table and contiguous array blocks, closed by a CRC32 trailer.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import struct
import warnings
import zlib
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import embedding, serialize
from .errors import CoherenceError, ConfigError, SerializationError, ShapeError, UsageError

END_NONE = "none"
END_HAZARD = "hazard"
END_TIME_LIMIT = "time_limit"

AGGREGATORS = ("mean", "min", "sum")

# annotation of a FemaConfig field -> the values it accepts (bool never)
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass
class FemaConfig:
    """Knobs for memory capture, periodic updates, and risk-aware selection."""

    suffix_len: int = 8          # transitions kept from the end of a failure
    update_every: int = 100      # failure events per periodic update
    n_candidates: int = 5        # policy draws scored per decision
    match_radius: float = 0.05   # l2 threshold for state-embedding retrieval
    max_matches: int = 5         # retrieved records kept after H filtering
    risk_weight: float = 0.5     # weight on the risk term in the score
    discount: float = 0.99       # discount for tail returns
    capacity: int = 2000         # stored failure events, FIFO beyond this
    aggregator: str = "mean"     # how candidate-to-record distances combine
    train_epochs: int = 50       # risk regression epochs per update
    train_batch: int = 64        # risk regression minibatch size

    def validate(self) -> "FemaConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        for name in ("suffix_len", "update_every", "n_candidates", "max_matches",
                     "train_epochs", "train_batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.match_radius >= 0.0:
            raise ConfigError("match_radius must be >= 0")
        if not (0.0 < self.discount <= 1.0):
            raise ConfigError("discount must be in (0, 1]")
        if self.capacity < self.update_every:
            raise ConfigError("capacity must be >= update_every")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"aggregator must be one of {AGGREGATORS}")
        if not math.isfinite(self.risk_weight):
            raise ConfigError("risk_weight must be finite")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "FemaConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"FemaConfig must be a mapping, got {type(d).__name__}")
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown FemaConfig keys: {sorted(extra)}")
        return cls(**d).validate()

    def config_hash(self) -> bytes:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).digest()


@dataclass
class Transition:
    s: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray
    end: str = END_NONE


@dataclass
class FailureEvent:
    """Terminal suffix of one hazard-ended episode plus per-step tail returns."""

    transitions: list
    returns: np.ndarray
    episode_id: int = -1
    capture_step: int = 0
    seq: int = -1  # assigned when staged; defines FIFO order


class Tail(NamedTuple):
    """A staged failure event: k states, actions and their tail returns."""

    seq: int              # staging order; defines FIFO order
    s: np.ndarray         # (k, d_s)
    a: np.ndarray         # (k, d_a)
    returns: np.ndarray   # (k,)


class MemoryRow(NamedTuple):
    """Read-only view of one stored transition of a generation."""

    z_s: np.ndarray
    phi: np.ndarray
    mc_return: float
    event_seq: int
    step_idx: int


@dataclass(frozen=True, eq=False)
class Generation:
    """One published generation: row i of every array is one stored
    transition, in insertion order, embedded by the stack at `version`.

    The arrays are read-only. Indexing and iteration give `MemoryRow` views.
    """

    z_s: np.ndarray        # (n, d_z) state embeddings
    phi: np.ndarray        # (n, d_phi) joint state-action embeddings
    mc_return: np.ndarray  # (n,) discounted tail returns
    event_seq: np.ndarray  # (n,) seq of the event each row came from
    step_idx: np.ndarray   # (n,) position of the row inside its event
    version: int = -1      # stack version of every row; -1 = never published

    def __post_init__(self):
        for name in ("z_s", "phi", "mc_return", "event_seq", "step_idx"):
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return self.mc_return.shape[0]

    def __getitem__(self, i: int) -> MemoryRow:
        return MemoryRow(self.z_s[i], self.phi[i], float(self.mc_return[i]),
                         int(self.event_seq[i]), int(self.step_idx[i]))

    def __iter__(self):
        return map(MemoryRow._make, zip(
            self.z_s, self.phi, self.mc_return.tolist(),
            self.event_seq.tolist(), self.step_idx.tolist()))

    def take(self, rows) -> "Generation":
        """The sub-generation of the given row indices, in that order."""
        return Generation(self.z_s[rows], self.phi[rows], self.mc_return[rows],
                          self.event_seq[rows], self.step_idx[rows], self.version)


def _table(tails) -> tuple:
    """The event table of `tails`: their seqs and tail lengths."""
    return (np.array([t.seq for t in tails], dtype=np.int64),
            np.array([len(t.returns) for t in tails], dtype=np.int64))


def _generation(seqs: np.ndarray, lengths: np.ndarray, mc_return: np.ndarray,
                z_s: np.ndarray, phi: np.ndarray, version: int) -> Generation:
    """The generation of the events in the table (`seqs`, `lengths`) from
    their rows' returns and embeddings; each row's event seq and step index
    follow from the table."""
    starts = np.cumsum(lengths) - lengths
    return Generation(
        z_s=z_s, phi=phi, mc_return=mc_return,
        event_seq=np.repeat(seqs, lengths),
        step_idx=np.arange(mc_return.shape[0]) - np.repeat(starts, lengths),
        version=version,
    )


@dataclass
class RetrievalResult:
    records: Generation
    cold: bool = False

    def ids(self) -> list:
        return list(zip(self.records.event_seq.tolist(),
                        self.records.step_idx.tolist()))


def discounted_tail_returns(rewards, gamma: float) -> np.ndarray:
    """Backward-accumulated discounted returns of a reward tail.

    out[t] = rewards[t] + gamma * out[t+1], with out[-1] = rewards[-1].
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.ndim != 1 or rewards.size == 0:
        raise UsageError("rewards must be a non-empty 1-d sequence")
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def capture_failure(episode, cfg: FemaConfig, episode_id: int = -1,
                    capture_step: int = 0) -> Optional[FailureEvent]:
    """Cut the stored suffix out of a finished episode (any sequence of
    transitions, or just its last `suffix_len` of them).

    Only hazard endings produce an event; time-limit truncation and unfinished
    episodes return None. Returns are computed within the stored suffix.
    """
    episode = list(episode)
    if not episode:
        raise UsageError("cannot capture from an empty episode")
    if any(t.end != END_NONE for t in episode[:-1]):
        raise UsageError("termination tag on a non-final transition")
    last = episode[-1]
    if last.end not in (END_NONE, END_HAZARD, END_TIME_LIMIT):
        raise UsageError(f"unknown termination tag {last.end!r}")
    if last.end != END_HAZARD:
        return None
    tail = episode[-cfg.suffix_len:]
    rets = discounted_tail_returns([t.r for t in tail], cfg.discount)
    return FailureEvent(transitions=tail, returns=rets,
                        episode_id=episode_id, capture_step=capture_step)


class FailureMemory:
    """Pending failure tails, the published generation, and retrieval."""

    def __init__(self, cfg: FemaConfig, rng: Optional[np.random.Generator] = None):
        self.cfg = cfg.validate()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.pending: deque = deque(maxlen=cfg.capacity)  # staged Tails
        self.events: list = []      # published Tails, ascending seq
        self.records = _generation(*_table([]), np.empty(0), np.empty((0, 0)),
                                   np.empty((0, 0)), -1)
        self.next_seq: int = 0

    # -- capture side -----------------------------------------------------

    def stage(self, event: FailureEvent) -> int:
        """Queue one failure event as a `Tail` copy of its arrays, keeping no
        reference to the event; nothing becomes searchable yet."""
        k = len(event.transitions)
        if not 1 <= k <= self.cfg.suffix_len or len(event.returns) != k:
            raise UsageError("a staged event needs 1..suffix_len transitions, one return each")
        event.seq = self.next_seq
        self.next_seq += 1
        self.pending.append(Tail(  # deque(maxlen) evicts oldest pending
            event.seq,
            np.array([t.s for t in event.transitions], dtype=np.float64),
            np.array([t.a for t in event.transitions], dtype=np.float64),
            np.array(event.returns, dtype=np.float64)))
        return len(self.pending)

    def maybe_update(self, stack: embedding.EmbeddingStack) -> Optional[int]:
        """Run the periodic update once enough events are pending."""
        if len(self.pending) >= self.cfg.update_every:
            return self.update(stack)
        return None

    def update(self, stack: embedding.EmbeddingStack) -> int:
        """Fold pending events in, retrain the stack, republish every row."""
        if not self.pending and not self.events:
            warnings.warn("memory update with nothing stored; skipping", stacklevel=2)
            return 0
        self.events.extend(self.pending)
        self.pending.clear()
        if len(self.events) > self.cfg.capacity:
            self.events = self.events[-self.cfg.capacity:]

        states = np.concatenate([e.s for e in self.events])
        actions = np.concatenate([e.a for e in self.events])
        rets = np.concatenate([e.returns for e in self.events])
        embedding.train_risk(stack, states, actions, rets, epochs=self.cfg.train_epochs,
                             batch_size=self.cfg.train_batch, rng=self.rng)

        z_s = embedding.encode_state(stack, states)
        z_a = embedding.encode_action(stack, actions)
        phi = embedding.joint_embed(stack, z_s, z_a)
        self.records = _generation(*_table(self.events), rets, z_s, phi, stack.version)
        return len(self.records)

    # -- query side -------------------------------------------------------

    @property
    def version(self) -> int:
        """Stack version of the published generation; -1 = cold."""
        return self.records.version

    @property
    def cold(self) -> bool:
        return self.version < 0

    def retrieve(self, z_query: np.ndarray, cfg: Optional[FemaConfig] = None) -> RetrievalResult:
        """Rows within the match radius, lowest tail returns first, as a
        sub-generation.

        Ties on the return break toward earlier insertion. A memory that has
        never published reports cold instead of merely empty. A query with a
        NaN or infinite entry is rejected.
        """
        cfg = cfg if cfg is not None else self.cfg
        z_query = np.asarray(z_query, dtype=np.float64)
        if not np.isfinite(z_query).all():
            raise UsageError("retrieval query has non-finite entries")
        gen = self.records
        if self.cold:
            return RetrievalResult(records=gen, cold=True)
        if z_query.shape != (gen.z_s.shape[1],):
            raise ShapeError(f"query width {z_query.shape} does not match stored "
                             f"embeddings ({gen.z_s.shape[1]},)")
        dist = np.sqrt(np.sum((gen.z_s - z_query) ** 2, axis=1))
        hits = np.flatnonzero(dist <= cfg.match_radius)
        order = np.lexsort((hits, gen.mc_return[hits]))
        return RetrievalResult(records=gen.take(hits[order][: cfg.max_matches]))

    # -- persistence --------------------------------------------------------

    MAGIC = b"FEMA"
    FORMAT_VERSION = 3

    def to_bytes(self) -> bytes:
        """Snapshot in format version 3, all little-endian: a header (magic,
        format version, d_s, d_a, d_z, d_phi, discount, config hash and JSON,
        generation version, next seq, counts of published and pending
        events); the event table of the published then the pending events,
        all seqs then all tail lengths, as `<i8` blocks; their rows as `<f8`
        blocks, states (rows x d_s), actions (rows x d_a) and tail returns;
        the generation as `<f8` blocks, z_s (n x d_z) then phi (n x d_phi);
        and a `<I` trailer, the `zlib.crc32` of every byte before it. Row
        event seqs and step indices are derived from the table on load, as
        `update` derives them.
        """
        tails, gen = list(self.events) + list(self.pending), self.records
        d_s, d_a = (tails[0].s.shape[1], tails[0].a.shape[1]) if tails else (0, 0)
        cfg_json = json.dumps(self.cfg.to_dict(), sort_keys=True).encode("utf-8")
        rows = [np.concatenate([getattr(t, k) for t in tails]) if tails else np.empty(0)
                for k in ("s", "a", "returns")]
        parts = [
            self.MAGIC, struct.pack("<H4Id", self.FORMAT_VERSION, d_s, d_a,
                                    gen.z_s.shape[1], gen.phi.shape[1], self.cfg.discount),
            self.cfg.config_hash(), struct.pack("<I", len(cfg_json)), cfg_json,
            struct.pack("<qQII", self.version, self.next_seq, len(self.events),
                        len(self.pending)),
            *(np.ascontiguousarray(x, "<i8") for x in _table(tails)),
            *(np.ascontiguousarray(x, "<f8") for x in (*rows, gen.z_s, gen.phi)),
        ]
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        return b"".join([*parts, struct.pack("<I", crc)])

    def snapshot(self, path) -> None:
        serialize.write_atomic(path, self.to_bytes())

    @classmethod
    def from_bytes(cls, buf: bytes, rng: Optional[np.random.Generator] = None,
                   expect_dims: Optional[dict] = None) -> "FailureMemory":
        r = _Reader(buf)
        magic, fmt = r.unpack("<4sH")
        if magic != cls.MAGIC:
            raise SerializationError("bad memory snapshot: missing FEMA magic")
        if fmt != cls.FORMAT_VERSION:
            raise SerializationError(f"unsupported memory format version {fmt}")
        r.end -= 4  # the CRC32 trailer
        if r.end < r.off or (zlib.crc32(r.buf[:r.end])
                             != int.from_bytes(r.buf[r.end:], "little")):
            raise SerializationError("memory snapshot fails its CRC32 check")
        d_s, d_a, d_z, d_phi, gamma, stored_hash, cfg_len = r.unpack("<4Id32sI")
        try:
            cfg_dict = json.loads(str(r.take(cfg_len), "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(f"unreadable memory snapshot config: {exc}") from exc
        cfg = FemaConfig.from_dict(cfg_dict)
        if cfg.config_hash() != stored_hash:
            raise SerializationError("memory snapshot config hash mismatch")
        if gamma != cfg.discount:
            raise SerializationError("memory snapshot header/config discount mismatch")
        for name, want in (expect_dims or {}).items():
            got = {"d_s": d_s, "d_a": d_a, "d_z": d_z, "d_phi": d_phi}[name]
            if got not in (0, want):
                raise CoherenceError(
                    f"memory snapshot {name}={got} does not match expected {want}")
        version, next_seq, n_events, n_pending = r.unpack("<qQII")
        if max(n_events, n_pending) > cfg.capacity:
            raise SerializationError("memory snapshot holds more events than its capacity")
        seqs, lengths = (r.array("<i8", n_events + n_pending) for _ in range(2))
        if np.any((lengths < 1) | (lengths > cfg.suffix_len)):
            raise SerializationError("memory snapshot tail length outside 1..suffix_len")
        if seqs.size and (seqs[0] < 0 or np.any(seqs[1:] <= seqs[:-1])
                          or int(seqs[-1]) >= next_seq):
            raise SerializationError("memory snapshot event seqs do not increase below next seq")
        bounds = list(itertools.accumulate(lengths.tolist(), initial=0))
        n_rows, n_pub = bounds[-1], bounds[n_events]
        sizes = [n_rows * d_s, n_rows * d_a, n_rows, n_pub * d_z, n_pub * d_phi]
        s, a, rets, z_s, phi = np.split(r.array("<f8", sum(sizes)), np.cumsum(sizes)[:-1])
        r.done()
        s, a = s.reshape(n_rows, d_s), a.reshape(n_rows, d_a)
        tails = [Tail(q, s[i:j], a[i:j], rets[i:j])
                 for q, i, j in zip(seqs.tolist(), bounds, bounds[1:])]
        mem = cls(cfg, rng=rng)
        mem.next_seq, mem.events = next_seq, tails[:n_events]
        mem.pending.extend(tails[n_events:])
        mem.records = _generation(seqs[:n_events], lengths[:n_events], rets[:n_pub],
                                  z_s.reshape(n_pub, d_z), phi.reshape(n_pub, d_phi), version)
        return mem

    @classmethod
    def load(cls, path, rng: Optional[np.random.Generator] = None,
             expect_dims: Optional[dict] = None) -> "FailureMemory":
        return cls.from_bytes(serialize.read_bytes(path), rng=rng,
                              expect_dims=expect_dims)


class _Reader:
    """Bounds-checked cursor over a byte buffer, up to `end`."""

    def __init__(self, buf: bytes):
        self.buf, self.off, self.end = memoryview(buf), 0, len(buf)

    def take(self, n: int) -> memoryview:
        if self.off + n > self.end:
            raise SerializationError("truncated memory snapshot")
        self.off += n
        return self.buf[self.off - n:self.off]

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, n: int) -> np.ndarray:
        """A copy of the next n values of `dtype`."""
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * n), dtype).copy()

    def done(self) -> None:
        if self.off != self.end:
            raise SerializationError("trailing bytes after memory snapshot")
