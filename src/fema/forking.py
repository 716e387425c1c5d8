"""Work run beside the caller in forked children that see its state
copy-on-write. Each child is collected (its result returned, or its error
re-raised with type and message) or reaped; none outlives its caller.
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


def can_fork(cpus: int | None = None) -> bool:
    """True when os.fork exists, `cpus` (default: the usable CPUs) is at
    least 2, and no other Python thread runs: a forked child holds only
    the calling thread."""
    return ((usable_cpus() if cpus is None else cpus) >= 2
            and hasattr(os, "fork") and threading.active_count() == 1)


def fork(work) -> tuple:
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


def collect(pid: int, fh, what: str):
    """Read and reap one child; returns its result or raises its error.
    `what` names the child's work in the error raised when it died."""
    try:
        with fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise FemaError(f"{what} (process {pid}) exited without a result "
                        f"(wait status {status})")
    kind, value = pickle.loads(data)
    if kind == "error":
        raise value
    return value


def reap(running: dict) -> None:
    """Stop and wait for every child (pid -> pipe) not yet collected."""
    for pid, fh in running.items():
        fh.close()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)
