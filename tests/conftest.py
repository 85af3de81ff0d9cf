import signal

import pytest

DEADLINE_S = 20


@pytest.fixture
def deadline():
    """Fail the test if it runs past DEADLINE_S seconds, so that a loop
    that never ends is a failure instead of a hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Start every test with the harness's dataset cache empty, so that no
    test depends on what an earlier one ran."""
    from noisylab import harness

    harness._SHARED.clear()
