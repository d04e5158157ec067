"""The gradient check itself: every row of the table must be able to fail."""

import pytest

import distill_ssl.tensor as T
from distill_ssl.cli import run
from distill_ssl.gradcheck import CASES, DEFAULT_TOLERANCE, run_gradcheck


@pytest.fixture
def skewed_backward(monkeypatch):
    """Every recorded backward rule receives its output gradient times 1.001."""
    record = T.record
    monkeypatch.setattr(
        T, "record", lambda out, backward_fn: record(out, lambda g: backward_fn(g * 1.001))
    )


def test_skewed_backward_fails_every_row(skewed_backward):
    report = run_gradcheck(instances=2)
    assert list(report) == [name for name, _, _ in CASES]
    for name, entry in report.items():
        assert entry["max_rel_err"] > DEFAULT_TOLERANCE, f"{name} checks nothing"


def test_cli_exits_1_and_writes_every_row_on_failure(skewed_backward, tmp_path):
    out = tmp_path / "gc"
    assert run(["gradcheck", "--gradcheck-instances", "2", "--out", str(out)]) == 1
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "op,max_rel_err,instances"
    rows = [line.split(",") for line in lines[1:]]
    assert [op for op, _, _ in rows] == [name for name, _, _ in CASES]
    assert all(float(err) > DEFAULT_TOLERANCE for _, err, _ in rows)
