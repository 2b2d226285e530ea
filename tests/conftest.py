import contextlib
import signal
import time

import pytest

from nrcodes import (
    golay24,
    nordstrom_robinson,
    puncture,
    reed_muller_subcode,
)
from nrcodes.symmetry import (
    AutElement,
    affine_stabilizer,
    drop_coordinate_0,
    punctured_perm_group,
)


# Well above the slowest test (about 4 s), so that only a test that spins
# reaches it.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(Exception):
    """A test, its fixtures included, ran past its time limit."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the main thread once `seconds` have
    passed, by SIGALRM: no thread or process is started.  An outer limit
    is re-armed on exit with what is left of it."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"ran past its time limit of {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # Around setup, call and teardown: a session fixture is built in the
    # setup of the first test that uses it, so a hang there fails too.
    with time_limit(TEST_TIME_LIMIT_S):
        return (yield)


@pytest.fixture(scope="session")
def golay():
    return golay24()


@pytest.fixture(scope="session")
def nr():
    return nordstrom_robinson()


@pytest.fixture(scope="session")
def rm():
    return reed_muller_subcode()


@pytest.fixture(scope="session")
def pn():
    return puncture(nordstrom_robinson(), 1)


@pytest.fixture(scope="session")
def nr_affine(nr):
    return affine_stabilizer(nr)


@pytest.fixture(scope="session")
def nr_perm_group(nr_affine):
    return nr_affine[0]


@pytest.fixture(scope="session")
def pn_perm_group(nr, pn, nr_perm_group):
    return punctured_perm_group(pn, nr, nr_perm_group)


def stabilizer_generators(code, group, mover):
    """The generators of `group`, a basis of the code's translation kernel
    and `mover`, as permutations, translations and one automorphism."""
    return (
        [AutElement.permutation(code.m, g) for g in group.generators]
        + [AutElement.translation(code.m, b) for b in code.kernel]
        + [mover]
    )


@pytest.fixture(scope="session")
def nr_generators(nr, nr_perm_group, nr_affine):
    return stabilizer_generators(nr, nr_perm_group, nr_affine[1][0])


@pytest.fixture(scope="session")
def pn_generators(pn, pn_perm_group, nr_affine):
    return stabilizer_generators(pn, pn_perm_group, drop_coordinate_0(nr_affine[1][0]))
