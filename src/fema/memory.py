"""Failure episodic memory.

Episodes that end in a hazard contribute their last few transitions, each
tagged with the discounted return of the remaining tail. Events accumulate in
a pending buffer and are folded in periodically: the embedding stack trains
on everything stored, every stored transition is re-encoded with the fresh
encoders, and the resulting arrays become the searchable generation that
retrieval runs against. Between updates the published generation is
immutable.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import warnings
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import embedding, serialize
from .errors import CoherenceError, ConfigError, SerializationError, ShapeError, UsageError

END_NONE = "none"
END_HAZARD = "hazard"
END_TIME_LIMIT = "time_limit"
_END_CODES = {END_NONE: 0, END_HAZARD: 1, END_TIME_LIMIT: 2}
_END_NAMES = {v: k for k, v in _END_CODES.items()}

AGGREGATORS = ("mean", "min", "sum")


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
        if self.suffix_len < 1:
            raise ConfigError("suffix_len must be >= 1")
        if self.update_every < 1:
            raise ConfigError("update_every must be >= 1")
        if self.n_candidates < 1:
            raise ConfigError("n_candidates must be >= 1")
        if not self.match_radius >= 0.0:
            raise ConfigError("match_radius must be >= 0")
        if self.max_matches < 1:
            raise ConfigError("max_matches must be >= 1")
        if not (0.0 < self.discount <= 1.0):
            raise ConfigError("discount must be in (0, 1]")
        if self.capacity < self.update_every:
            raise ConfigError("capacity must be >= update_every")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"aggregator must be one of {AGGREGATORS}")
        if self.train_epochs < 1 or self.train_batch < 1:
            raise ConfigError("train_epochs and train_batch must be >= 1")
        if not math.isfinite(self.risk_weight):
            raise ConfigError("risk_weight must be finite")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "FemaConfig":
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


def _generation(events: list, z_s: np.ndarray, phi: np.ndarray,
                version: int) -> Generation:
    """The generation of `events` from their rows' embeddings; returns,
    event seqs and step indices come from the events themselves."""
    return Generation(
        z_s=z_s, phi=phi,
        mc_return=np.array([h for e in events for h in e.returns.tolist()]),
        event_seq=np.array([e.seq for e in events for _ in e.transitions], dtype=np.int64),
        step_idx=np.array([i for e in events for i in range(len(e.transitions))],
                          dtype=np.int64),
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


def capture_failure(
    episode,
    cfg: FemaConfig,
    episode_id: int = -1,
    capture_step: int = 0,
) -> Optional[FailureEvent]:
    """Cut the stored suffix out of a finished episode.

    Only hazard endings produce an event; time-limit truncation and unfinished
    episodes return None. Returns are computed within the stored suffix.
    """
    if len(episode) == 0:
        raise UsageError("cannot capture from an empty episode")
    for t in episode[:-1]:
        if t.end != END_NONE:
            raise UsageError("termination tag on a non-final transition")
    last = episode[-1]
    if last.end not in _END_CODES:
        raise UsageError(f"unknown termination tag {last.end!r}")
    if last.end != END_HAZARD:
        return None
    tail = list(episode[-min(cfg.suffix_len, len(episode)):])
    rets = discounted_tail_returns([t.r for t in tail], cfg.discount)
    return FailureEvent(transitions=tail, returns=rets,
                        episode_id=episode_id, capture_step=capture_step)


class FailureMemory:
    """Pending failure events, the published generation, and retrieval."""

    def __init__(self, cfg: FemaConfig, rng: Optional[np.random.Generator] = None):
        self.cfg = cfg.validate()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.pending: deque = deque(maxlen=cfg.capacity)
        self.events: list = []      # published events, ascending seq
        self.records = _generation([], np.empty((0, 0)), np.empty((0, 0)), -1)
        self.next_seq: int = 0

    # -- capture side -----------------------------------------------------

    def stage(self, event: FailureEvent) -> int:
        """Queue one failure event; nothing becomes searchable yet."""
        event.seq = self.next_seq
        self.next_seq += 1
        self.pending.append(event)  # deque(maxlen) evicts oldest pending
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

        states = np.concatenate([[t.s for t in e.transitions] for e in self.events])
        actions = np.concatenate([[t.a for t in e.transitions] for e in self.events])
        rets = np.concatenate([e.returns for e in self.events])
        embedding.train_risk(
            stack, states, actions, rets,
            epochs=self.cfg.train_epochs, batch_size=self.cfg.train_batch,
            rng=self.rng,
        )

        z_s = embedding.encode_state(stack, states)
        z_a = embedding.encode_action(stack, actions)
        phi = embedding.joint_embed(stack, z_s, z_a)
        self.records = _generation(self.events, z_s, phi, stack.version)
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
            raise ShapeError(
                f"query width {z_query.shape} does not match stored embeddings "
                f"({gen.z_s.shape[1]},)"
            )
        dist = np.sqrt(np.sum((gen.z_s - z_query) ** 2, axis=1))
        hits = np.flatnonzero(dist <= cfg.match_radius)
        order = np.lexsort((hits, gen.mc_return[hits]))
        return RetrievalResult(records=gen.take(hits[order][: cfg.max_matches]))

    # -- persistence --------------------------------------------------------

    MAGIC = b"FEMA"
    FORMAT_VERSION = 2

    def to_bytes(self) -> bytes:
        """Snapshot in format version 2, all little-endian: a header (magic,
        format version, d_s, d_a, d_z, d_phi, discount, config hash and JSON,
        generation version, next seq, counts of published events, pending
        events and rows), every published then every pending event, and the
        generation as two contiguous `<f8` blocks, z_s (n x d_z) then phi
        (n x d_phi). Row returns, event seqs and step indices are not stored:
        loading derives them from the published events, as `update` does.
        """
        events = list(self.events) + list(self.pending)
        first = events[0].transitions[0] if events else None
        d_s, d_a = (first.s.shape[0], first.a.shape[0]) if first else (0, 0)
        d_z, d_phi = self.records.z_s.shape[1], self.records.phi.shape[1]
        cfg_json = json.dumps(self.cfg.to_dict(), sort_keys=True).encode("utf-8")
        out = bytearray()
        out += self.MAGIC
        out += struct.pack("<H", self.FORMAT_VERSION)
        out += struct.pack("<4I", d_s, d_a, d_z, d_phi)
        out += struct.pack("<d", self.cfg.discount)
        out += self.cfg.config_hash()
        out += struct.pack("<I", len(cfg_json)) + cfg_json
        out += struct.pack("<qQ", self.version, self.next_seq)
        out += struct.pack("<IIQ", len(self.events), len(self.pending), len(self.records))
        for ev in events:
            out += _event_bytes(ev, d_s, d_a)
        out += self.records.z_s.astype("<f8").tobytes()
        out += self.records.phi.astype("<f8").tobytes()
        return bytes(out)

    def snapshot(self, path) -> None:
        serialize.write_atomic(path, self.to_bytes())

    @classmethod
    def from_bytes(cls, buf: bytes, rng: Optional[np.random.Generator] = None,
                   expect_dims: Optional[dict] = None) -> "FailureMemory":
        r = _Reader(buf)
        if r.take(4) != cls.MAGIC:
            raise SerializationError("bad memory snapshot: missing FEMA magic")
        (fmt,) = r.unpack("<H")
        if fmt != cls.FORMAT_VERSION:
            raise SerializationError(f"unsupported memory format version {fmt}")
        d_s, d_a, d_z, d_phi = r.unpack("<4I")
        (gamma,) = r.unpack("<d")
        stored_hash = r.take(32)
        (cfg_len,) = r.unpack("<I")
        try:
            cfg_dict = json.loads(r.take(cfg_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(f"unreadable memory snapshot config: {exc}") from exc
        cfg = FemaConfig.from_dict(cfg_dict)
        if cfg.config_hash() != stored_hash:
            raise SerializationError("memory snapshot config hash mismatch")
        if gamma != cfg.discount:
            raise SerializationError("memory snapshot header/config discount mismatch")
        if expect_dims:
            for name, want in expect_dims.items():
                got = {"d_s": d_s, "d_a": d_a, "d_z": d_z, "d_phi": d_phi}[name]
                if got not in (0, want):
                    raise CoherenceError(
                        f"memory snapshot {name}={got} does not match expected {want}"
                    )
        mem = cls(cfg, rng=rng)
        version, next_seq = r.unpack("<qQ")
        n_events, n_pending, n_records = r.unpack("<IIQ")
        mem.next_seq = next_seq
        mem.events = [_event_from(r, d_s, d_a) for _ in range(n_events)]
        mem.pending.extend(_event_from(r, d_s, d_a) for _ in range(n_pending))
        if n_records != sum(len(e.transitions) for e in mem.events):
            raise SerializationError(
                f"memory snapshot row count {n_records} does not match its "
                f"{n_events} published events")
        z_s = r.floats(n_records * d_z).reshape(n_records, d_z)
        phi = r.floats(n_records * d_phi).reshape(n_records, d_phi)
        r.done()
        mem.records = _generation(mem.events, z_s, phi, version)
        return mem

    @classmethod
    def load(cls, path, rng: Optional[np.random.Generator] = None,
             expect_dims: Optional[dict] = None) -> "FailureMemory":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), rng=rng, expect_dims=expect_dims)


def _event_bytes(ev: FailureEvent, d_s: int, d_a: int) -> bytes:
    out = bytearray()
    out += struct.pack("<QqQI", ev.seq, ev.episode_id, ev.capture_step,
                       len(ev.transitions))
    for t in ev.transitions:
        if t.s.shape[0] != d_s or t.a.shape[0] != d_a:
            raise ShapeError("inconsistent transition widths in memory")
        out += t.s.astype("<f8").tobytes()
        out += t.a.astype("<f8").tobytes()
        out += struct.pack("<d", t.r)
        out += t.s_next.astype("<f8").tobytes()
        out += struct.pack("<B", _END_CODES[t.end])
    out += ev.returns.astype("<f8").tobytes()
    return bytes(out)


def _event_from(r: "_Reader", d_s: int, d_a: int) -> FailureEvent:
    seq, episode_id, capture_step, n_tr = r.unpack("<QqQI")
    transitions = []
    for _ in range(n_tr):
        s = r.floats(d_s)
        a = r.floats(d_a)
        (rew,) = r.unpack("<d")
        s_next = r.floats(d_s)
        (code,) = r.unpack("<B")
        if code not in _END_NAMES:
            raise SerializationError(f"unknown termination code {code}")
        transitions.append(Transition(s=s, a=a, r=rew, s_next=s_next,
                                      end=_END_NAMES[code]))
    returns = r.floats(n_tr)
    return FailureEvent(transitions=transitions, returns=returns,
                        episode_id=episode_id, capture_step=capture_step, seq=seq)


class _Reader:
    """Bounds-checked little-endian cursor over a byte buffer."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise SerializationError("truncated memory snapshot")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype="<f8").copy()

    def done(self) -> None:
        if self.off != len(self.buf):
            raise SerializationError("trailing bytes after memory snapshot")
