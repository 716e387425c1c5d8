"""Work run beside the caller in forked children that see its state
copy-on-write: `processes` decides how many processes works may share,
`beside` runs them, and `pair` splits one computation between the caller
and one helper. Each child is collected (its result returned, or its error
re-raised with type and message) or reaped; none outlives the call.

Three callers: `harness.train.run_seeds` trains the runs of a config or of
a whole sweep in parallel; `embedding.train_risk` splits each minibatch
step of a large enough risk fit with one helper; and `SacAgent.run_beside`
hands the target draw and the second critic's share of every update of a
run to one helper.
The CPUs are shared, not stacked: inside a child of `beside`, and in its
caller while children run, `processes` divides the usable CPUs by the
processes that share them, so a seed process on a 2-CPU host forks no
helper beside its sibling; a helper of `pair` is not counted (see `pair`).

The handshake of `pair`: a share's methods are the helper's steps, and a
table of meetings names, for each, its step and the `Shared` slots of what
the caller posts to it and of its answer. The helper runs the meetings in
order, round after round, waiting for a post where a meeting has one; the
caller takes every answer, in meeting order, so a meeting without an answer
needs no take. A message, post or answer, is its arrays, then one byte on
the pipe that runs its way. The other side `wait`s for it: it polls the
pipe, yielding the CPU after each empty poll, then blocks in the read; it
reads the message's byte before the arrays, so the kernel's pipe orders
them on any CPU. End of file is the stop: the helper returns once the
caller's write end closes, when lead returns or the caller exits or dies,
and a caller that reads end of file re-raises the helper's error.

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
import select
import signal
import threading
from contextlib import contextmanager, nullcontext

import numpy as np

from .errors import FemaError

# Polls of the pipe before `wait` blocks, each a zero-timeout select and a
# yield of the CPU: on a 2-core x86 VM a wait blocks after about 1.2 ms.
# There 0.2% of a 3,000-step SAC run's update starts blocked, and under
# 0.1% of the waits inside its updates or in a 16k-row risk fit's steps.
SPIN = 1200
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
    """Whether `pair` may fork a helper: where `processes(2)` leaves it a
    CPU of its own."""
    return processes(2) >= 2


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
    as sharing the CPUs, except children that here counts out with
    `check.block(n)`: kept blocked, or run only inside here's own steps,
    where nothing forks."""
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
        self.blocked = 0      # running children counted out by block()

    def __call__(self) -> None:
        ready = select.select([fh for _, fh in self.running.values()], [], [], 0)[0]
        for what in [what for what, (_, fh) in self.running.items() if fh in ready]:
            self.collect(what)
        self._share()

    def collect(self, what: str) -> None:
        self.results[what] = _collect(self.running, what)

    def block(self, n: int) -> None:
        """Count n more running children (n < 0: fewer) out of `processes`:
        children that here keeps blocked, or that run only inside its steps."""
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


def _collect(running: dict, what: str):
    """Read and reap child `what` of running (name -> (pid, pipe)), then
    drop it from there; returns its result or raises its error. A missing
    or partial payload raises a FemaError naming `what`. A read or reap
    that raises (a signal's handler) leaves the child in running, for
    `_reap` to stop: a wait for it could last for ever."""
    pid, fh = running[what]
    with fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    del running[what]
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
    see it: one zeroed float64 array per keyword, `name=shape`, set as the
    attribute `name` (`shared[names]` is the tuple of the arrays named).
    Each array starts on a cache line of its own, so no line holds what both
    sides write."""

    def __init__(self, **shapes):
        sizes = [int(np.prod(shape)) for shape in shapes.values()]
        lines = [-(-8 * size // 64) for size in sizes]
        self.buf = mmap.mmap(-1, 64 * sum(lines))
        offsets = 64 * np.cumsum([0] + lines[:-1])
        for (name, shape), size, off in zip(shapes.items(), sizes, offsets):
            setattr(self, name, np.frombuffer(self.buf, np.float64, size,
                                              int(off)).reshape(shape))

    def __getitem__(self, names: tuple) -> tuple:
        return tuple(getattr(self, name) for name in names)


def wait(fd: int) -> bytes:
    """Read the next message's byte from pipe fd: poll the pipe up to SPIN
    times, yielding the CPU after each empty poll, then block in the read.
    Returns the byte, or b"" at end of file, once no process holds the
    pipe's write end (a poll sees end of file as readable)."""
    for _ in range(SPIN):
        if select.select([fd], [], [], 0)[0]:
            break
        os.sched_yield()
    return os.read(fd, 1)


def _send(slots: tuple, arrays, fd: int) -> None:
    """Send a message: its arrays into their slots, then its byte to pipe fd."""
    for slot, array in zip(slots, arrays):
        slot[:len(array)] = array
    os.write(fd, b"m")


def pair(what: str, share, meetings: tuple, shared: Shared, lead):
    """lead(away) here, with the steps of `share` run as `meetings` lists
    them by a helper named `what` that `beside` forks; returns lead's
    result. The helper computes only inside the caller's meetings, where
    nothing forks, so it is counted out of `processes`: a SAC publish forks
    its risk helper beside the critic helper. It stops when lead returns,
    or before, at a step that raises StopIteration."""
    fds = [*os.pipe(), *os.pipe()]
    posts_in, posts_out, answers_in, answers_out = fds

    def close(*ends):
        for fd in ends:
            fds.remove(fd)
            os.close(fd)

    def here(check):
        close(posts_in, answers_out)   # the helper's alone, also in later forks
        check.block(1)
        done = lead(_Away(what, meetings, shared, check, posts_out, answers_in))
        close(posts_out)   # the helper's end of file
        return done

    def helper():
        close(posts_out, answers_in)
        return _help(share, meetings, shared, posts_in, answers_out)

    try:
        return beside(here, {what: helper})[0]
    finally:
        close(*fds)


class _Away:
    """The caller's end of `pair`, with `InLine`'s post and take. A take
    returns the helper's next answer, so the caller takes every answer, in
    meeting order."""

    def __init__(self, what: str, meetings: tuple, shared: Shared, check,
                 posts: int, answers: int):
        self.what, self.check = what, check
        self.posts, self.answers = posts, answers
        self.slots = [(shared[ins], shared[outs]) for _, ins, outs in meetings]

    def post(self, meeting: int, *arrays) -> None:
        try:
            _send(self.slots[meeting][0], arrays, self.posts)
        except BrokenPipeError:
            self.gone()

    def take(self, meeting: int) -> tuple:
        if not wait(self.answers):
            self.gone()
        return self.slots[meeting][1]

    def gone(self) -> None:
        """Re-raise the error of the helper, which has exited, through the
        `beside` call's check(); else raise a FemaError."""
        self.check()
        raise FemaError(f"{self.what} exited before the caller's work ended")


def _help(share, meetings: tuple, shared: Shared, posts: int, answers: int) -> None:
    """The helper's side of `pair`: run each meeting's step, after its post
    where it has one, round after round, until the caller's write end of
    `posts` closes (the caller's work ended, or the caller exited) or a
    step raises StopIteration."""
    steps = [(getattr(share, step), shared[ins], shared[outs]) for step, ins, outs in meetings]
    while True:
        for step, ins, outs in steps:
            if ins and not wait(posts):
                return
            try:
                answer = step(*ins)
            except StopIteration:
                return
            if outs:
                _send(outs, answer, answers)


class InLine:
    """The ends of `pair` in one process: post keeps a meeting's arrays,
    and take runs the share's steps in meeting order through the meeting's
    own and returns its answer. A meeting without an answer runs at its
    post."""

    def __init__(self, share, meetings: tuple):
        self.steps = [getattr(share, step) for step, _, _ in meetings]
        self.answered = [bool(outs) for _, _, outs in meetings]
        self.ins, self.next = [()] * len(meetings), 0

    def post(self, meeting: int, *arrays) -> None:
        self.ins[meeting] = arrays
        if not self.answered[meeting]:
            self.take(meeting)

    def take(self, meeting: int) -> tuple:
        while True:
            k, self.next = self.next, (self.next + 1) % len(self.steps)
            answer = self.steps[k](*self.ins[k])
            if k == meeting:
                return answer
