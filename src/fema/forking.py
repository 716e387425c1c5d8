"""Work run beside the caller in forked children that see its state
copy-on-write: `processes` decides how many processes works may share, and
`beside` runs them. Each child is collected (its result returned, or its
error re-raised with type and message) or reaped; none outlives the call.

Three callers: `harness.train.run_seeds` trains the runs of a config or of
a whole sweep in parallel; `embedding.train_risk` splits each minibatch
step of a large enough risk fit with one helper; and `SacAgent.run_beside`
hands the target draw and the second critic's share of every update of a
run to one helper.
The CPUs are shared, not stacked: inside a child of `beside`, and in its
caller while children run, `processes` divides the usable CPUs by the
processes that share them, so a seed process on a 2-CPU host forks no
helper beside its sibling, and a SAC run with its critic helper fits its
risk stack in one process.

A helper and its caller that split one computation meet on a `Shared`
mapping made before the fork: each side writes its arrays, then posts a
step counter, and the other side `wait`s for the counter. That orders the
arrays only where stores become visible in program order, so `can_pair`
allows such a split on x86 alone.

Two settings of the process's C runtime are made here, through ctypes.
`beside` runs the OpenBLAS that numpy loaded on one thread while children
run (`_one_blas_thread`), so that processes sharing the CPUs do not also
share them with spinning BLAS threads. `keep_freed_heap`, which
`harness.train.run_seed` calls, has glibc's malloc keep freed heap top
mapped: otherwise it hands the top back to the kernel after the frees that
end each SAC update, and the next update faults the same pages in again. A
3,000-step `sac_cliff_plain` job's training process took 122,000-139,000
minor faults without it and 1,500 with it (its critic helper about 800
either way). glibc's mmap threshold is left alone: setting it as well moved
the faults of a `sac_cliff_memory` or `ppo_grid_memory` job by about 3%.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import mmap
import os
import pickle
import platform
import select
import signal
import threading
from contextlib import contextmanager, nullcontext

import numpy as np

from .errors import FemaError

SPIN = 1000   # polls of a step counter before a waiting side yields its CPU
# A helper's step counters order the shared arrays only where stores become
# visible in program order (x86); elsewhere its caller runs the work alone.
STORES_IN_ORDER = platform.machine().lower() in ("x86_64", "amd64", "i386", "i686")
TRIM_BYTES = 64 << 20   # freed heap top that `keep_freed_heap` keeps mapped
_M_TRIM_THRESHOLD = -1  # glibc's mallopt number of that setting


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where that cannot be asked."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


_sharing = 1   # processes that share the usable CPUs: this one and its siblings


def processes(parts: int) -> int:
    """Processes that `parts` independent works may share: at most one per
    work, one per usable CPU left to this process (the usable CPUs divided
    by the processes of the `beside` calls that share them, at least 1),
    and 1 without os.fork or while other Python threads run, since a forked
    child holds only the calling thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(parts, max(1, usable_cpus() // _sharing))


def can_pair() -> bool:
    """Whether a helper that meets its caller on a `Shared` mapping may be
    forked: on x86, where `processes(2)` leaves it a CPU of its own."""
    return STORES_IN_ORDER and processes(2) >= 2


def beside(here, away: dict):
    """(here(check), [each child's result, in the order of `away`]): each
    callable of `away` (work name -> callable) runs in a child forked
    before here starts in this process. A child's error is re-raised here,
    and a child that leaves no result raises a FemaError naming its work.
    `check()` collects every child that has finished, so here can call it
    between units of its own work to stop at a failed child's error instead
    of after its last unit. While any child runs, every process of the call
    runs BLAS on one thread, and `processes` counts every process of the
    call, in a child, and in this process until its children are collected,
    as sharing the CPUs, except children that here blocks and counts out
    with `check.block(n)`."""
    global _sharing
    children = _Children(_sharing)
    with _one_blas_thread() if away else nullcontext():
        try:
            _sharing = children.outer * (1 + len(away))
            for what, work in away.items():
                children.running[what] = _fork(work)
            mine = here(children)
            for what in list(children.running):
                children.collect(what)
            return mine, [children.results[what] for what in away]
        finally:
            _sharing = children.outer
            _reap(children.running)


class _Children:
    """The children of one `beside` call; calling it is the call's check()."""

    def __init__(self, outer: int):
        self.outer = outer    # processes sharing the CPUs outside the call
        self.running = {}     # work name -> (pid, read end of its result pipe)
        self.results = {}     # work name -> result of a collected child
        self.blocked = 0      # running children that here keeps blocked

    def __call__(self) -> None:
        ready = select.select([fh for _, fh in self.running.values()], [], [], 0)[0]
        for what in [what for what, (_, fh) in self.running.items() if fh in ready]:
            self.collect(what)
        self._share()

    def collect(self, what: str) -> None:
        self.results[what] = _collect(*self.running.pop(what), what)

    def block(self, n: int) -> None:
        """Count n more running children (n < 0: fewer), which here keeps
        blocked, out of `processes`."""
        self.blocked += n
        self._share()

    def _share(self) -> None:
        global _sharing
        _sharing = self.outer * max(1, 1 + len(self.running) - self.blocked)


@contextmanager
def _one_blas_thread():
    """Run the body with the OpenBLAS that numpy loaded at one thread, then
    restore its thread count. Processes that share the CPUs one each would
    otherwise also share them with each other's BLAS threads, which spin
    while they wait: on a 2-core x86 VM, ten 3000-step SAC cliff seeds in
    two processes took 3.5 to 4.6 times as long as in one process, one
    after another. Where no OpenBLAS is found (another BLAS, no /proc) the
    body runs as it is."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS mapped into this
    process, under any of the names its builds export; None if none is.
    Looked up once per process (a forked child inherits the answer): numpy
    maps its BLAS at import, and the lookup reads /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (f"{prefix}openblas_{{}}_num_threads{suffix}"
                     for prefix in ("", "scipy_") for suffix in ("", "64_", "_64")):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def keep_freed_heap() -> bool:
    """Have glibc's malloc keep up to TRIM_BYTES of freed heap top mapped
    instead of returning it to the kernel after each burst of frees; True
    where that was set, False where this libc has no `mallopt`. Set once per
    process (a forked child inherits it)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt(_M_TRIM_THRESHOLD, TRIM_BYTES) == 1


def _fork(work) -> tuple:
    """Run work() in a forked child; returns (pid, read end of its pipe).

    The child pickles ("ok", result) or ("error", exception) into the pipe
    and leaves through os._exit, so it never runs the parent's cleanup or
    flushes the parent's buffered files. Its cyclic garbage collector is
    off, so no finalizer of the parent's unreachable objects runs there.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            gc.disable()
            os.close(rfd)
            try:
                payload = pickle.dumps(("ok", work()), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
                payload = _pickled_error(exc)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, os.fdopen(rfd, "rb")


def _pickled_error(exc: BaseException) -> bytes:
    """The exception, pickled so that it unpickles; else a FemaError that
    carries its type name and message."""
    try:
        payload = pickle.dumps(("error", exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
        return payload
    except Exception:  # noqa: BLE001 - any pickling failure
        return pickle.dumps(("error", FemaError(f"{type(exc).__name__}: {exc}")))


def _collect(pid: int, fh, what: str):
    """Read and reap one child; returns its result or raises its error. A
    missing or partial payload raises a FemaError naming `what`."""
    try:
        with fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        kind, value = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        raise FemaError(f"{what} (process {pid}) exited without a result "
                        f"(wait status {status})") from None
    if kind == "error":
        raise value
    return value


def _reap(running: dict) -> None:
    """Stop and wait for every child (name -> (pid, pipe)) not collected."""
    for pid, fh in running.values():
        fh.close()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)


class Shared:
    """One anonymous shared mapping, made before a fork so that both sides
    see it: `ready`, 16 int64 step counters (two cache lines; the two sides
    post on counters a cache line apart), then one zeroed float64 array per
    keyword, `name=shape`, set as the attribute `name`. Each array starts
    on a cache line of its own, so no line holds what both sides write."""

    def __init__(self, **shapes):
        sizes = [int(np.prod(shape)) for shape in shapes.values()]
        lines = [-(-8 * size // 64) for size in sizes]
        self.buf = mmap.mmap(-1, 128 + 64 * sum(lines))
        self.ready = memoryview(self.buf)[:128].cast("q")
        offsets = 128 + 64 * np.cumsum([0] + lines[:-1])
        for (name, shape), size, off in zip(shapes.items(), sizes, offsets):
            setattr(self, name, np.frombuffer(self.buf, np.float64, size,
                                              int(off)).reshape(shape))


def wait(ready: memoryview, at: int, t: int, check) -> None:
    """Return once counter `at` of `ready` reaches t. Poll SPIN times, then
    yield the CPU between polls and call check(), which raises if the other
    side is gone."""
    spins = 0
    while ready[at] < t:
        spins += 1
        if spins > SPIN:
            os.sched_yield()
            check()
