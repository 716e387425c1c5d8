"""`forking`: how many processes works may share, and the fork-join that
runs them beside the caller."""

import os
import pickle
import threading
import time

import pytest

from fema import forking
from fema.errors import FemaError

from helpers import assert_no_children

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="beside needs os.fork")


class WorkFault(RuntimeError):
    pass


def fail(message):
    raise WorkFault(message)


def wait_long():
    time.sleep(60)


class TestProcesses:
    @pytest.mark.parametrize("parts", [1, 2, 5, 1000])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_bounded_by_parts_and_cpus(self, monkeypatch, cpus, parts):
        monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
        want = min(parts, cpus) if hasattr(os, "fork") else 1
        assert forking.processes(parts) == want

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.setattr(forking, "usable_cpus", lambda: 8)
        monkeypatch.delattr(os, "fork", raising=False)
        assert forking.processes(4) == 1

    def test_other_threads_make_it_one(self, monkeypatch):
        monkeypatch.setattr(forking, "usable_cpus", lambda: 8)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert forking.processes(4) == 1
        finally:
            release.set()
            other.join(30)
        assert not other.is_alive()
        assert forking.processes(4) == (4 if hasattr(os, "fork") else 1)


@needs_fork
class TestBeside:
    def test_results_in_order(self):
        parent = os.getpid()
        here, there = forking.beside(
            lambda: ("here", os.getpid()),
            {"c": lambda: ("c", os.getpid()), "a": lambda: ("a", os.getpid()),
             "b": lambda: [2.5]})
        assert here == ("here", parent)
        assert [there[0][0], there[1][0], there[2]] == ["c", "a", [2.5]]
        pids = {there[0][1], there[1][1]}
        assert len(pids) == 2 and parent not in pids
        assert_no_children()

    def test_nothing_away(self):
        assert forking.beside(lambda: 7, {}) == (7, [])

    def test_here_error_reaps_every_child(self):
        start = time.monotonic()
        with pytest.raises(WorkFault, match="here failed"):
            forking.beside(lambda: fail("here failed"),
                           {"first": wait_long, "second": wait_long})
        assert time.monotonic() - start < 30   # killed, not waited for
        assert_no_children()

    def test_child_error_reraised_and_others_reaped(self):
        start = time.monotonic()
        with pytest.raises(WorkFault, match="away failed"):
            forking.beside(lambda: None,
                           {"failing": lambda: fail("away failed"),
                            "waiting": wait_long})
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_dead_child_is_named(self):
        with pytest.raises(FemaError, match=r"doomed work \(process \d+\) "
                                            r"exited without a result"):
            forking.beside(lambda: None,
                           {"fine": lambda: 1, "doomed work": lambda: os._exit(3)})
        assert_no_children()

    @pytest.mark.parametrize("keep", [0.0, 0.01, 0.5, 0.99],
                             ids=["empty", "first_bytes", "half", "all_but_last"])
    def test_truncated_payload_is_named(self, keep):
        payload = pickle.dumps(("ok", list(range(1000))), pickle.HIGHEST_PROTOCOL)

        def half_written():
            # Runs in the child: the result pipe gets only part of a
            # payload, as from a child killed while writing it.
            def fdopen(fd, mode):
                os.write(fd, payload[:int(keep * len(payload))])
                os._exit(0)
            os.fdopen = fdopen

        with pytest.raises(FemaError, match=r"cut short \(process \d+\) exited "
                                            r"without a result \(wait status 0\)"):
            forking.beside(lambda: None, {"cut short": half_written})
        assert_no_children()


@needs_fork
class TestBlasThreads:
    def test_one_blas_thread_while_children_run(self):
        """Every process of a call that forks runs BLAS on one thread; the
        caller gets its thread count back, and a call without children
        leaves it alone."""
        threads = forking._openblas_threads()
        if threads is None:
            pytest.skip("no OpenBLAS found in this process")
        get, set_ = threads
        before = get()
        set_(2)
        try:
            assert forking.beside(get, {"child": get}) == (1, [1])
            assert get() == 2
            assert forking.beside(get, {}) == (2, [])
        finally:
            set_(before)
        assert_no_children()
