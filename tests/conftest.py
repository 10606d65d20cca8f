"""Shared fixtures, and a time bound on every test.

A test that runs past TIME_BOUND_S fails with a message naming the bound,
so that a test that never ends does not hold the run until its job limit.
The bound is an interval timer (SIGALRM), armed around each test call; it
interrupts Python code, and the slowest test here takes about 7 s.
"""

import signal

import pytest

from fibsite.fincat import (
    codiscrete_groupoid,
    cyclic_groupoid,
    poset_chain,
    terminal_category,
)

#: the longest one test call may run, in seconds
TIME_BOUND_S = 60


class TimeBoundExceeded(BaseException):
    """Raised inside a test past the bound.  It is no ``Exception``, so that
    neither the code under test nor hypothesis catches it and runs on."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):
        return (yield)

    def expire(_signum, _frame):
        raise TimeBoundExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        return (yield)
    except TimeBoundExceeded:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # no traceback: the interrupted frame may have no line to show
    pytest.fail(f"{item.nodeid} ran past the {TIME_BOUND_S} s time bound of a test", pytrace=False)


@pytest.fixture
def pt():
    return terminal_category()


@pytest.fixture
def chain2():
    return poset_chain(["V", "U"])


@pytest.fixture
def chain3():
    return poset_chain(["W", "V", "U"])


@pytest.fixture
def z2():
    return cyclic_groupoid(2)


@pytest.fixture
def z3():
    return cyclic_groupoid(3)


@pytest.fixture
def e2():
    return codiscrete_groupoid(["o1", "o2"])
