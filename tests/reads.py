"""Which rows of a dataset a process, and the workers it forks, read."""

import contextlib
import os

from distill_ssl import data


def log_row_reads(monkeypatch, log):
    """Append one line per ``Dataset.rows`` call to the file ``log``, from
    this process and from every worker it forks afterwards: the pid, the
    rows the call read and the rows its dataset's source holds."""
    real = data.Dataset.rows

    def rows(self, index):
        out = real(self, index)
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {len(out)} {self._source.shape[0]}\n".encode())
        finally:
            os.close(fd)
        return out

    monkeypatch.setattr(data.Dataset, "rows", rows)


def row_reads(log) -> list[tuple[int, int, int]]:
    """The reads ``log_row_reads`` logged, as (pid, rows read, rows in the source)."""
    if not os.path.exists(log):
        return []
    with open(log) as fh:
        return [tuple(map(int, line.split())) for line in fh]


def assert_no_read_covers_every_row(log, worker_only: bool) -> None:
    """Every logged read left rows of its source unread; with ``worker_only``,
    this process read none and a forked worker some."""
    reads = row_reads(log)
    assert reads and all(n < total for _, n, total in reads), reads
    if worker_only:
        assert os.getpid() not in {pid for pid, _, _ in reads}, reads


def holds_open(path) -> bool:
    """Whether this process has a file descriptor open on ``path``."""
    fds, target = "/proc/self/fd", os.path.realpath(path)
    names = set()
    for fd in os.listdir(fds):
        with contextlib.suppress(OSError):  # the listing's own descriptor is gone
            names.add(os.readlink(os.path.join(fds, fd)))
    return target in names
