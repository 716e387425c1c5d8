"""`forking`: how many processes works may share, also while a call's
children share the CPUs, and the fork-join that runs them beside the
caller."""

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
class TestSharedCpus:
    """Inside a child of `beside`, and in its caller until the children are
    collected, `processes` divides the usable CPUs by the processes of the
    call."""

    @pytest.mark.parametrize("cpus, away, want", [(8, 1, 4), (8, 3, 2), (2, 1, 1),
                                                  (3, 1, 1), (5, 2, 1)])
    def test_divides_the_cpus(self, monkeypatch, cpus, away, want):
        monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)

        def share():
            return forking.processes(8)

        works = {f"w{k}": share for k in range(away)}
        assert forking.beside(lambda check: share(), works) == (want, [want] * away)
        assert forking.processes(8) == cpus
        assert_no_children()

    def test_nested_calls_divide_again(self, monkeypatch):
        monkeypatch.setattr(forking, "usable_cpus", lambda: 8)

        def share():
            return forking.processes(8)

        def nested():
            return forking.beside(lambda check: share(), {"inner": share})

        assert forking.beside(lambda check: share(), {"outer": nested}) \
            == (4, [(2, [2])])
        assert_no_children()

    def test_collected_children_free_their_cpus(self, monkeypatch):
        monkeypatch.setattr(forking, "usable_cpus", lambda: 4)

        def here(check):
            during = forking.processes(4)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and forking.processes(4) < 4:
                check()
                time.sleep(0.01)
            return during, forking.processes(4)

        assert forking.beside(here, {"a": lambda: 1, "b": lambda: 2, "c": lambda: 3}) \
            == ((1, 4), [1, 2, 3])
        assert_no_children()

    def test_error_gives_the_cpus_back(self, monkeypatch):
        monkeypatch.setattr(forking, "usable_cpus", lambda: 8)
        with pytest.raises(WorkFault, match="here failed"):
            forking.beside(lambda check: fail("here failed"), {"waiting": wait_long})
        assert forking.processes(8) == 8
        assert_no_children()


@needs_fork
class TestBeside:
    def test_results_in_order(self):
        parent = os.getpid()
        here, there = forking.beside(
            lambda check: ("here", os.getpid()),
            {"c": lambda: ("c", os.getpid()), "a": lambda: ("a", os.getpid()),
             "b": lambda: [2.5]})
        assert here == ("here", parent)
        assert [there[0][0], there[1][0], there[2]] == ["c", "a", [2.5]]
        pids = {there[0][1], there[1][1]}
        assert len(pids) == 2 and parent not in pids
        assert_no_children()

    def test_nothing_away(self):
        assert forking.beside(lambda check: 7, {}) == (7, [])

    def test_here_error_reaps_every_child(self):
        start = time.monotonic()
        with pytest.raises(WorkFault, match="here failed"):
            forking.beside(lambda check: fail("here failed"),
                           {"first": wait_long, "second": wait_long})
        assert time.monotonic() - start < 30   # killed, not waited for
        assert_no_children()

    def test_child_error_reraised_and_others_reaped(self):
        start = time.monotonic()
        with pytest.raises(WorkFault, match="away failed"):
            forking.beside(lambda check: None,
                           {"failing": lambda: fail("away failed"),
                            "waiting": wait_long})
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_dead_child_is_named(self):
        with pytest.raises(FemaError, match=r"doomed work \(process \d+\) "
                                            r"exited without a result"):
            forking.beside(lambda check: None,
                           {"fine": lambda: 1, "doomed work": lambda: os._exit(3)})
        assert_no_children()

    def test_check_reraises_a_finished_childs_error(self):
        """check() stops here at a child's error as soon as the child has
        failed, and the other children are reaped."""
        done = []

        def here(check):
            for unit in range(2):
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:   # until the child failed
                    check()
                    time.sleep(0.01)
                done.append(unit)

        start = time.monotonic()
        with pytest.raises(WorkFault, match="away failed"):
            forking.beside(here, {"waiting": wait_long,
                                  "failing": lambda: fail("away failed")})
        assert done == [] and time.monotonic() - start < 30
        assert_no_children()

    def test_check_keeps_a_finished_childs_result(self):
        """Children that check() collected give their results in order."""
        def here(check):
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                check()
                try:   # peek, without reaping, whether any child is left
                    os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                except ChildProcessError:
                    return "here"
                time.sleep(0.01)

        assert forking.beside(here, {"a": lambda: [1], "b": lambda: {"b": 2}}) \
            == ("here", [[1], {"b": 2}])

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
            forking.beside(lambda check: None, {"cut short": half_written})
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
            assert forking.beside(lambda check: get(), {"child": get}) == (1, [1])
            assert get() == 2
            assert forking.beside(lambda check: get(), {}) == (2, [])
        finally:
            set_(before)
        assert_no_children()
