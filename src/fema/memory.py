"""Failure episodic memory.

Episodes that end in a hazard contribute their last few transitions, each
tagged with the discounted return of the remaining tail. Staging keeps only
what retrieval needs: the event becomes a `Tail` of state, action and return
arrays. Tails accumulate in a pending buffer and are folded in periodically:
the embedding stack trains on everything stored, every stored row is
re-encoded with the fresh encoders, and the resulting arrays become the
searchable generation that retrieval runs against. Between updates the
published generation is immutable.

A snapshot (format 4, see `FailureMemory.to_bytes`) is a sealed container
(see `serialize`): a JSON meta blob, the event table and the row and
generation arrays as blobs, closed by a CRC32 trailer.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import warnings
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from . import embedding, serialize
from .errors import ConfigError, SerializationError, ShapeError, UsageError

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


def _widths(tail: Tail) -> tuple:
    """The state and action widths of a tail's rows."""
    return (*tail.s.shape[1:], *tail.a.shape[1:])


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
        reference to the event; nothing becomes searchable yet. Every state
        and action must be 1-d with the shapes of the event's first
        transition, its returns 1-d with one per transition, and its state
        and action widths those of the tails already held."""
        k = len(event.transitions)
        if np.ndim(event.returns) != 1:
            raise ShapeError(f"a staged event's returns have shape "
                             f"{np.shape(event.returns)}; they must be 1-d")
        if not 1 <= k <= self.cfg.suffix_len or len(event.returns) != k:
            raise UsageError("a staged event needs 1..suffix_len transitions, one return each")
        first = (np.shape(event.transitions[0].s), np.shape(event.transitions[0].a))
        for i, t in enumerate(event.transitions):
            shapes = (np.shape(t.s), np.shape(t.a))
            if shapes != first or len(first[0]) != 1 or len(first[1]) != 1:
                raise ShapeError(f"transition {i} of a staged event has (state, action) "
                                 f"shapes {shapes}; each must be 1-d and match "
                                 f"transition 0's {first}")
        tail = Tail(self.next_seq,
                    np.array([t.s for t in event.transitions], dtype=np.float64),
                    np.array([t.a for t in event.transitions], dtype=np.float64),
                    np.array(event.returns, dtype=np.float64))
        held = self.events[:1] or list(itertools.islice(self.pending, 1))
        if held and _widths(tail) != _widths(held[0]):
            raise ShapeError(f"a staged tail of (d_s, d_a) widths {_widths(tail)} does "
                             f"not match the held tails' {_widths(held[0])}")
        event.seq = self.next_seq
        self.next_seq += 1
        self.pending.append(tail)  # deque(maxlen) evicts oldest pending
        return len(self.pending)

    def publish_due(self) -> bool:
        """Whether `update_every` events are pending: `maybe_update` publishes."""
        return len(self.pending) >= self.cfg.update_every

    def maybe_update(self, stack: embedding.EmbeddingStack) -> Optional[int]:
        """Run the periodic update once it is due (`publish_due`)."""
        if self.publish_due():
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

    FORMAT_NAME = "fema-memory"
    FORMAT_VERSION = 4
    # a snapshot's array blobs, in file order, and their little-endian dtypes
    ARRAYS = {"seq": "<i8", "length": "<i8", "s": "<f8", "a": "<f8",
              "returns": "<f8", "z_s": "<f8", "phi": "<f8"}

    def to_bytes(self) -> bytes:
        """Snapshot in format version 4, a sealed container (see `serialize`):
        a JSON `meta` blob (format name and version, config, generation
        version, next seq, published-event count, widths d_s, d_a, d_z and
        d_phi), then the `ARRAYS` blobs: the event table (`seq`, `length`) of
        the published then the pending events; their rows, `s` (rows x d_s),
        `a` (rows x d_a) and tail `returns`; and the generation, `z_s`
        (n x d_z) and `phi` (n x d_phi). Row event seqs and step indices are
        derived from the table on load, as `update` derives them.
        """
        tails, gen = list(self.events) + list(self.pending), self.records
        d_s, d_a = (tails[0].s.shape[1], tails[0].a.shape[1]) if tails else (0, 0)
        meta = {"format": self.FORMAT_NAME, "version": self.FORMAT_VERSION,
                "config": self.cfg.to_dict(), "generation": self.version,
                "next_seq": self.next_seq, "published": len(self.events),
                "d_s": d_s, "d_a": d_a, "d_z": gen.z_s.shape[1], "d_phi": gen.phi.shape[1]}
        rows = [np.concatenate([getattr(t, k) for t in tails]) if tails else np.empty(0)
                for k in ("s", "a", "returns")]
        arrays = zip(self.ARRAYS.items(), (*_table(tails), *rows, gen.z_s, gen.phi))
        return serialize.seal({"meta": json.dumps(meta, sort_keys=True).encode("utf-8"),
                               **{k: np.ascontiguousarray(x, dtype) for (k, dtype), x in arrays}})

    def snapshot(self, path) -> None:
        serialize.write_atomic(path, self.to_bytes())

    @classmethod
    def from_bytes(cls, buf: bytes, rng: Optional[np.random.Generator] = None) -> "FailureMemory":
        blobs = serialize.unseal(buf)
        meta = serialize.read_meta(blobs, cls.FORMAT_NAME, cls.FORMAT_VERSION)
        cfg = FemaConfig.from_dict(meta.get("config"))
        ints = [meta.get(k) for k in ("generation", "next_seq", "published",
                                      "d_s", "d_a", "d_z", "d_phi")]
        # u32 counts and widths; only a generation that never published is -1
        if any(type(v) is not int or not -1 <= v < 2**32 for v in ints) or -1 in ints[1:]:
            raise SerializationError(f"memory snapshot counts out of range: {ints}")
        version, next_seq, n_events, d_s, d_a, d_z, d_phi = ints
        if (version == -1) != (n_events == 0):
            raise SerializationError(f"memory snapshot generation {version} disagrees "
                                     f"with its {n_events} published events")

        def array(name: str, *shape: int) -> np.ndarray:
            """A copy of blob `name`, which must hold exactly `shape`."""
            view = blobs.get(name)
            if view is None or view.nbytes != 8 * math.prod(shape):
                raise SerializationError(f"memory snapshot {name} blob does not hold {shape}")
            return np.frombuffer(view, cls.ARRAYS[name]).reshape(shape).copy()

        n = len(blobs.get("seq", b"")) // 8
        seqs, lengths = array("seq", n), array("length", n)
        if not n_events <= n or max(n_events, n - n_events) > cfg.capacity:
            raise SerializationError("memory snapshot holds more events than its capacity")
        if np.any((lengths < 1) | (lengths > cfg.suffix_len)):
            raise SerializationError("memory snapshot tail length outside 1..suffix_len")
        if seqs.size and (seqs[0] < 0 or np.any(seqs[1:] <= seqs[:-1])
                          or int(seqs[-1]) >= next_seq):
            raise SerializationError("memory snapshot event seqs do not increase below next seq")
        bounds = list(itertools.accumulate(lengths.tolist(), initial=0))
        n_rows, n_pub = bounds[-1], bounds[n_events]
        s, a, rets = array("s", n_rows, d_s), array("a", n_rows, d_a), array("returns", n_rows)
        tails = [Tail(q, s[i:j], a[i:j], rets[i:j])
                 for q, i, j in zip(seqs.tolist(), bounds, bounds[1:])]
        mem = cls(cfg, rng=rng)
        mem.next_seq, mem.events = next_seq, tails[:n_events]
        mem.pending.extend(tails[n_events:])
        mem.records = _generation(seqs[:n_events], lengths[:n_events], rets[:n_pub],
                                  array("z_s", n_pub, d_z), array("phi", n_pub, d_phi), version)
        return mem

    @classmethod
    def load(cls, path, rng: Optional[np.random.Generator] = None) -> "FailureMemory":
        return cls.from_bytes(serialize.read_bytes(path), rng=rng)
