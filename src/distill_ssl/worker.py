"""A process forked to work ahead of its parent, and its one protocol.

``Worker`` forks a child that runs the subclass's ``_produce`` generator
and sends one byte on a ready pipe for each item it yields.  The items
themselves go into arrays the subclass made with ``shared`` before the
fork, which parent and child then see alike.  The parent's ``_wait``
takes one item's byte; ``_release`` sends a byte on the free pipe, for a
child that must wait before it overwrites memory the parent still reads.
A child that raises sends its traceback on the ready pipe, and ``_wait``
raises it as ``WorkerError``.  Leaving the ``with`` block closes both of
the parent's pipe ends, which ends a child that is still running (EOF on
the free pipe, EPIPE on the ready pipe), and kills and reaps it.

A fork, not a fresh interpreter: the child starts from the parent's
arrays and objects without a copy or a second start-up.  The parent runs
no threads of its own, and BLAS results do not depend on its thread
count, so the child computes the bits the parent would.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import traceback

import numpy as np

_READY, _FAILED = b"r", b"!"
_ERROR_CHARS = 4000  # of a failed child's traceback, sent to the parent


class WorkerError(RuntimeError):
    """A forked worker failed, or ended before the item its parent waited for."""


def shared(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array in an anonymous mmap that a fork shares, not copies."""
    return np.ndarray(shape, dtype, mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize))


class Worker:
    """A forked child that makes ``count`` items ahead of its parent.

    Subclasses set up their shared arrays, then call ``__init__``, which
    forks; they name the worker and its items for error messages.
    """

    name, item = "worker", "item"

    def __init__(self, count: int):
        self._count, self._received = count, 0
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            self._pid = os.fork()
        except BaseException:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            raise
        if self._pid == 0:
            self._run_child(ready=ready_w, free=free_r, parent_ends=(ready_r, free_w))
        os.close(ready_w)
        os.close(free_r)
        self._ready, self._free = ready_r, free_w

    def _produce(self, free: int):
        """In the child: a generator that yields once per item it has made.
        ``free`` is the free pipe's read end; EOF there means the parent is gone."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        os.close(self._free)
        os.close(self._ready)
        os.kill(self._pid, signal.SIGKILL)  # not even a stuck child may keep us waiting
        os.waitpid(self._pid, 0)

    def _wait(self) -> None:
        """Block until the child has made one more item."""
        status = os.read(self._ready, 1)
        if status != _READY:
            raise WorkerError(self._failure(status))
        self._received += 1

    def _release(self) -> None:
        """Tell the child that one more item's memory may be reused."""
        os.write(self._free, _READY)

    def _failure(self, status: bytes) -> str:
        if status == _FAILED:
            text = b"".join(iter(lambda: os.read(self._ready, 65536), b""))
            return f"{self.name} failed:\n" + text.decode(errors="replace")
        return f"{self.name} ended before {self.item} {self._received + 1} of {self._count}"

    def _run_child(self, ready: int, free: int, parent_ends) -> None:
        """The child's whole life: make every item, then exit.

        It never returns, so no atexit handler, stdio buffer or other state
        inherited from the parent runs a second time.
        """
        code = 0
        try:
            for fd in parent_ends:  # the parent's exit must show here as EOF and EPIPE
                os.close(fd)
            for _ in self._produce(free):
                os.write(ready, _READY)
        except BrokenPipeError:
            pass  # the parent stopped reading
        except BaseException:
            code = 1
            with contextlib.suppress(OSError):
                os.write(ready, _FAILED + traceback.format_exc()[-_ERROR_CHARS:].encode())
        finally:
            os._exit(code)
