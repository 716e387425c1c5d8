"""Work run beside the caller in forked children that see its state
copy-on-write: `processes` decides how many processes works may share, and
`beside` runs them. Each child is collected (its result returned, or its
error re-raised with type and message) or reaped; none outlives the call.

Two callers: `harness.train.run_seeds` trains the runs of a config or of a
whole sweep in parallel, and `embedding.train_risk` splits each minibatch
step of a large enough risk fit with one helper. The CPUs are shared, not
stacked: inside a child of `beside`, and in its caller while children run,
`processes` divides the usable CPUs by the processes that share them, so a
seed process on a 2-CPU host forks no risk helper beside its sibling.
"""

from __future__ import annotations

import ctypes
import gc
import os
import pickle
import select
import signal
import threading
from contextlib import contextmanager, nullcontext

from .errors import FemaError


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
    as sharing the CPUs."""
    global _sharing
    outer = _sharing
    running = {}   # work name -> (pid, read end of its result pipe)
    results = {}   # work name -> result of a collected child

    def check():
        global _sharing
        ready = select.select([fh for _, fh in running.values()], [], [], 0)[0]
        for what in [what for what, (_, fh) in running.items() if fh in ready]:
            results[what] = _collect(*running.pop(what), what)
        _sharing = outer * (1 + len(running))

    with _one_blas_thread() if away else nullcontext():
        try:
            _sharing = outer * (1 + len(away))
            for what, work in away.items():
                running[what] = _fork(work)
            mine = here(check)
            for what in list(running):
                results[what] = _collect(*running.pop(what), what)
            return mine, [results[what] for what in away]
        finally:
            _sharing = outer
            _reap(running)


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


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS mapped into this
    process, under any of the names its builds export; None if none is."""
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
