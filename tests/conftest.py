"""A time limit on the tests that run a handshake of `forking.pair` or fork
its helpers: a handshake that never ends fails its test after
HANDSHAKE_SECONDS instead of hanging the run. Where the platform has no
SIGALRM the tests run unbounded."""

import signal

import pytest

HANDSHAKE_SECONDS = 120

# Test file, then the start of the rest of the test's id.
HANDSHAKE_TESTS = (
    "test_forking.py::",
    "test_sac.py::TestTwoProcessUpdate::",
    "test_embedding.py::TestTwoProcessFit::",
    "test_lanes.py::TestRiskHelper::",
    "test_harness.py::TestCriticHelper::",
    "test_harness.py::TestSeedFork::test_risk_helper_only_on_a_free_cpu",
)


class HandshakeTimeout(Exception):
    pass


@pytest.fixture(autouse=True)
def handshake_limit(request):
    """Arm an alarm of HANDSHAKE_SECONDS around each test of HANDSHAKE_TESTS,
    and disarm it after. A child the test forks inherits the handler but
    not the pending alarm, so only the test's own process is stopped."""
    test = request.node
    name = "::".join([test.path.name, *test.nodeid.split("::")[1:]])
    if not hasattr(signal, "SIGALRM") or not name.startswith(HANDSHAKE_TESTS):
        yield
        return

    def expire(signum, frame):
        raise HandshakeTimeout(f"{name} ran past {HANDSHAKE_SECONDS} s")

    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(HANDSHAKE_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
