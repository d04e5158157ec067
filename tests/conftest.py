"""Suite-wide guards."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.

    ``pipeline`` forks a view worker for every training run; a run that
    leaves it behind fails here, in the test that caused it, instead of
    leaving a stray process for the rest of the session.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child {pid} unreaped (exit status {status})")
