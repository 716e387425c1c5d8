"""Work run beside the caller in forked children that see its state
copy-on-write: `processes` decides how many processes works may share, and
`beside` runs them. Each child is collected (its result returned, or its
error re-raised with type and message) or reaped; none outlives the call.
The runner's rollout lanes (`envs.runner.VecRunner`) are the only caller.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading

from .errors import FemaError


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where that cannot be asked."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0))


def processes(parts: int) -> int:
    """Processes that `parts` independent works may share: one per usable
    CPU, at most one per work, and 1 without os.fork or while other Python
    threads run, since a forked child holds only the calling thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(parts, usable_cpus())


def beside(here, away: dict):
    """(here(), [each child's result, in the order of `away`]): each callable
    of `away` (work name -> callable) runs in a child forked before here()
    starts in this process. A child's error is re-raised here, and a child
    that leaves no result raises a FemaError naming its work."""
    running = {}   # work name -> (pid, read end of its result pipe)
    try:
        for what, work in away.items():
            running[what] = _fork(work)
        mine = here()
        return mine, [_collect(*running.pop(what), what) for what in away]
    finally:
        _reap(running)


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
