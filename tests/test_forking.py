"""`forking`: how many processes works may share, also while a call's
children share the CPUs, the fork-join that runs them beside the caller,
and the handshake of a computation split with one helper."""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from fema import forking
from fema.errors import FemaError

from helpers import assert_no_children, count_forks, running

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

    @pytest.mark.parametrize("cpus, away, idle, want", [(4, 1, 1, 4), (4, 2, 1, 2),
                                                        (8, 3, 2, 4), (2, 1, 1, 2)])
    def test_blocked_children_free_their_cpus(self, monkeypatch, cpus, away, idle, want):
        """While here keeps children blocked, check.block counts them out."""
        monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)

        def here(check):
            check.block(idle)
            during = forking.processes(8)
            check.block(-idle)
            return during, forking.processes(8)

        works = {f"w{k}": lambda: None for k in range(away)}
        assert forking.beside(here, works) == ((want, cpus // (1 + away)), [None] * away)
        assert forking.processes(8) == cpus
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

    def test_interrupted_collect_kills_the_child(self):
        """A signal whose handler raises while the caller reads a child's
        result kills the child, where waiting for it to end could hang."""
        def interrupt(signum, frame):
            raise WorkFault("interrupted")

        def here(check):
            threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGUSR1)).start()

        before = signal.signal(signal.SIGUSR1, interrupt)
        start = time.monotonic()
        try:
            with pytest.raises(WorkFault, match="interrupted"):
                forking.beside(here, {"child": wait_long})
        finally:
            signal.signal(signal.SIGUSR1, before)
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

    def test_blas_looked_up_once(self, monkeypatch):
        """Two calls that fork read /proc/self/maps once between them."""
        reads = []

        def counted_open(path, *args, **kwargs):
            reads.append(path)
            return open(path, *args, **kwargs)

        forking._openblas_threads.cache_clear()
        monkeypatch.setattr(forking, "open", counted_open, raising=False)
        for _ in range(2):
            assert forking.beside(lambda check: 1, {"child": lambda: 2}) == (1, [2])
        assert reads == ["/proc/self/maps"]
        assert_no_children()


@needs_fork
class TestShared:
    def test_arrays_on_their_own_cache_lines(self):
        shared = forking.Shared(a=(3,), b=(2, 5), c=(1,))
        starts = [np.frombuffer(shared.buf, np.uint8).ctypes.data]
        for arr in (shared.a, shared.b, shared.c):
            assert arr.dtype == np.float64 and not arr.any()
            assert (arr.ctypes.data - starts[0]) % 64 == 0
        assert shared.b.shape == (2, 5)
        assert shared.b.ctypes.data - shared.a.ctypes.data == 64
        assert shared.c.ctypes.data - shared.b.ctypes.data == 128

    def test_both_sides_see_posts(self):
        """A child's writes, then its byte, reach the caller's wait, and the
        caller's reach the child; each wait returns the byte."""
        shared = forking.Shared(x=(4,))
        down, up = os.pipe(), os.pipe()

        def child():
            got = forking.wait(down[0])
            shared.x[:] = shared.x * 2
            os.write(up[1], b"u")
            return got

        def here(check):
            shared.x[:] = [1, 2, 3, 4]
            os.write(down[1], b"d")
            assert forking.wait(up[0]) == b"u"
            return shared.x.tolist()

        try:
            assert forking.beside(here, {"child": child}) == ([2, 4, 6, 8], [b"d"])
        finally:
            for fd in (*down, *up):
                os.close(fd)
        assert_no_children()


class Tally:
    """A toy share: `add` keeps a running sum of what is posted to it and
    answers nothing; `total`, with no post, answers the sum and the number
    of steps run so far. The step numbered `fail_at` sleeps `nap` seconds
    and is refused."""

    def __init__(self, fail_at=None, nap=0.0):
        self.sum, self.steps, self.fail_at, self.nap = 0.0, 0, fail_at, nap

    def add(self, x):
        self.step()
        self.sum += float(x[0])

    def total(self):
        self.step()
        return (np.array([self.sum, self.steps]),)

    def step(self):
        self.steps += 1
        if self.steps == self.fail_at:
            time.sleep(self.nap)
            raise WorkFault(f"refused step {self.steps}")


TALLY = (("add", ("x",), ()), ("total", (), ("out",)))


def tally(end, rounds: int, nap: float = 0.0) -> list:
    """Sleep `nap` seconds, post r to `add` and take round r's total, for r
    = 1, 2, ... rounds: `add` is never taken, and `total` never posted to."""
    got = []
    for r in range(1, rounds + 1):
        time.sleep(nap)
        end.post(0, np.array([float(r)]))
        got.append(end.take(1)[0].tolist())
    return got


@pytest.mark.skipif(not hasattr(os, "fork"), reason="pair needs os.fork")
class TestPair:
    @pytest.mark.parametrize("rounds", [0, 1, 40])
    def test_answers_in_meeting_order(self, monkeypatch, rounds):
        """Each round's total counts that round's add before it, in the
        helper as in line; the helper stops when the caller's work ends,
        waiting for a post or not."""
        want = [[r * (r + 1) / 2, 2.0 * r] for r in range(1, rounds + 1)]
        assert tally(forking.InLine(Tally(), TALLY), rounds) == want
        forks = count_forks(monkeypatch, 2)
        got = forking.pair("tally helper", Tally(), TALLY, forking.Shared(x=(1,), out=(2,)),
                           lambda end: tally(end, rounds))
        assert got == want
        assert forks == [["tally helper"]]
        assert_no_children()

    def test_step_error_reaches_the_caller(self):
        start = time.monotonic()
        with pytest.raises(WorkFault, match="refused step 6"):
            forking.pair("tally helper", Tally(fail_at=6), TALLY,
                         forking.Shared(x=(1,), out=(2,)), lambda end: tally(end, 5))
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_exit_seen_while_polling(self, monkeypatch):
        """A helper that exits while the caller still polls for its answer
        shows as end of file to the poll: the step's error reaches the
        caller at once, not after the caller's polls run out."""
        monkeypatch.setattr(forking, "SPIN", 10**7)   # the helper inherits it
        start = time.monotonic()
        with pytest.raises(WorkFault, match="refused step 6"):
            forking.pair("tally helper", Tally(fail_at=6), TALLY,
                         forking.Shared(x=(1,), out=(2,)), lambda end: tally(end, 5))
        assert time.monotonic() - start < 1
        assert_no_children()

    def test_caller_error_stops_the_helper(self):
        def lead(end):
            tally(end, 2)
            raise WorkFault("caller gave up")

        with pytest.raises(WorkFault, match="caller gave up"):
            forking.pair("tally helper", Tally(), TALLY, forking.Shared(x=(1,), out=(2,)),
                         lead)
        assert_no_children()

    def test_answers_after_the_caller_slept(self):
        """The caller sleeps past the helper's polls of its pipe before each
        post, so the helper blocks in the read; the answers still come in
        order."""
        want = [[r * (r + 1) / 2, 2.0 * r] for r in range(1, 4)]
        got = forking.pair("tally helper", Tally(), TALLY, forking.Shared(x=(1,), out=(2,)),
                           lambda end: tally(end, 3, nap=0.05))
        assert got == want
        assert_no_children()

    def test_late_step_error_reaches_the_blocked_caller(self):
        """A step fails after the caller's take has blocked on the pipe: the
        caller reads end of file and re-raises the step's error."""
        start = time.monotonic()
        with pytest.raises(WorkFault, match="refused step 6"):
            forking.pair("tally helper", Tally(fail_at=6, nap=0.05), TALLY,
                         forking.Shared(x=(1,), out=(2,)), lambda end: tally(end, 5))
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_post_after_a_failed_step_raises_its_error(self):
        """A post to a helper that a failed step ended re-raises that error."""
        def lead(end):
            for r in range(1, 1000):
                end.post(0, np.array([float(r)]))
                time.sleep(0.01)

        start = time.monotonic()
        with pytest.raises(WorkFault, match="refused step 3"):
            forking.pair("tally helper", Tally(fail_at=3), TALLY[:1], forking.Shared(x=(1,)),
                         lead)
        assert time.monotonic() - start < 5
        assert_no_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_nested_helpers_exit_when_the_caller_is_killed(self):
        """A pair inside another pair's lead, as a publish's risk fit runs
        inside a SAC run with its critic helper: a caller killed while the
        inner helper waits for a post leaves neither helper running, though
        the inner one was forked while the caller held the outer pipes."""
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:   # the caller: report both helpers, then wait
            try:
                os.close(rfd)
                real = forking._fork

                def fork(work):
                    child, fh = real(work)
                    os.write(wfd, b"%d\n" % child)
                    return child, fh

                def inner(end):
                    tally(end, 2)
                    time.sleep(60)

                def outer(end):
                    tally(end, 2)
                    forking.pair("inner helper", Tally(), TALLY,
                                 forking.Shared(x=(1,), out=(2,)), inner)

                forking._fork = fork
                forking.pair("outer helper", Tally(), TALLY, forking.Shared(x=(1,), out=(2,)),
                             outer)
            finally:
                os._exit(0)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as fh:
            helpers = [int(fh.readline()) for _ in range(2)]
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(map(running, helpers)):
            time.sleep(0.01)
        assert not any(map(running, helpers))
        assert_no_children()
