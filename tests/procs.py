"""Time limits and child-process checks for the tests of forked workers."""

import contextlib
import os
import signal

import pytest


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds``: a hung feed fails, not stalls."""

    def expire(*_):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
