"""Failure episodic memory.

Episodes that end in a hazard contribute their last few transitions, each
tagged with the discounted return of the remaining tail. Events accumulate in
a pending buffer and are folded in periodically: the embedding stack trains
on everything stored, every stored transition is re-encoded with the fresh
encoders, and the resulting records become the searchable generation that
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
from typing import Optional

import numpy as np

from . import embedding
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


@dataclass
class MemoryRecord:
    """One searchable transition: embeddings, raw action, and tail return."""

    z_s: np.ndarray
    action: np.ndarray
    phi: np.ndarray
    mc_return: float
    event_seq: int
    step_idx: int
    version: int


@dataclass
class RetrievalResult:
    records: list
    cold: bool = False

    def ids(self) -> list:
        return [(r.event_seq, r.step_idx) for r in self.records]


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
    """Pending failure events, the published record generation, and retrieval."""

    def __init__(self, cfg: FemaConfig, rng: Optional[np.random.Generator] = None):
        self.cfg = cfg.validate()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.pending: deque = deque(maxlen=cfg.capacity)
        self.events: list = []      # published events, ascending seq
        self.records: list = []     # published generation, insertion order
        self.version: int = -1      # stack version of the generation; -1 = cold
        self.next_seq: int = 0
        self._z_matrix: Optional[np.ndarray] = None
        self._h_vector: Optional[np.ndarray] = None

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
        """Fold pending events in, retrain the stack, republish every record."""
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
        records = []
        i = 0
        for e in self.events:
            for step_idx in range(len(e.transitions)):
                records.append(MemoryRecord(
                    z_s=z_s[i], action=actions[i], phi=phi[i],
                    mc_return=float(rets[i]), event_seq=e.seq,
                    step_idx=step_idx, version=stack.version,
                ))
                i += 1
        self.records = records
        self.version = stack.version
        self._z_matrix = z_s
        self._h_vector = rets
        return len(records)

    # -- query side -------------------------------------------------------

    @property
    def cold(self) -> bool:
        return self.version < 0

    def retrieve(self, z_query: np.ndarray, cfg: Optional[FemaConfig] = None) -> RetrievalResult:
        """Records within the match radius, lowest tail returns first.

        Ties on the return break toward earlier insertion. A memory that has
        never published reports cold instead of merely empty.
        """
        cfg = cfg if cfg is not None else self.cfg
        if self.cold:
            return RetrievalResult(records=[], cold=True)
        z_query = np.asarray(z_query, dtype=np.float64)
        if z_query.shape != (self._z_matrix.shape[1],):
            raise ShapeError(
                f"query width {z_query.shape} does not match stored embeddings "
                f"({self._z_matrix.shape[1]},)"
            )
        dist = np.sqrt(np.sum((self._z_matrix - z_query) ** 2, axis=1))
        hits = np.flatnonzero(dist <= cfg.match_radius)
        if hits.size == 0:
            return RetrievalResult(records=[], cold=False)
        order = np.lexsort((hits, self._h_vector[hits]))
        chosen = hits[order][: cfg.max_matches]
        return RetrievalResult(records=[self.records[i] for i in chosen], cold=False)

    # -- persistence --------------------------------------------------------

    MAGIC = b"FEMA"
    FORMAT_VERSION = 1

    def _dims(self):
        if self.events or self.pending:
            ev = self.events[0] if self.events else self.pending[0]
            d_s = ev.transitions[0].s.shape[0]
            d_a = ev.transitions[0].a.shape[0]
        else:
            d_s = d_a = 0
        d_z = self._z_matrix.shape[1] if self._z_matrix is not None else 0
        d_phi = self.records[0].phi.shape[0] if self.records else 0
        return d_s, d_a, d_z, d_phi

    def to_bytes(self) -> bytes:
        d_s, d_a, d_z, d_phi = self._dims()
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
        for ev in list(self.events) + list(self.pending):
            out += _event_bytes(ev, d_s, d_a)
        for rec in self.records:
            out += struct.pack("<QI", rec.event_seq, rec.step_idx)
            out += rec.z_s.astype("<f8").tobytes()
            out += rec.action.astype("<f8").tobytes()
            out += rec.phi.astype("<f8").tobytes()
            out += struct.pack("<d", rec.mc_return)
        return bytes(out)

    def snapshot(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

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
        mem.version = version
        mem.next_seq = next_seq
        for _ in range(n_events):
            mem.events.append(_event_from(r, d_s, d_a))
        for _ in range(n_pending):
            mem.pending.append(_event_from(r, d_s, d_a))
        for _ in range(n_records):
            event_seq, step_idx = r.unpack("<QI")
            z_s = r.floats(d_z)
            action = r.floats(d_a)
            phi = r.floats(d_phi)
            (mc_return,) = r.unpack("<d")
            mem.records.append(MemoryRecord(
                z_s=z_s, action=action, phi=phi, mc_return=mc_return,
                event_seq=event_seq, step_idx=step_idx, version=version,
            ))
        r.done()
        if mem.records:
            mem._z_matrix = np.stack([rec.z_s for rec in mem.records])
            mem._h_vector = np.array([rec.mc_return for rec in mem.records])
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
