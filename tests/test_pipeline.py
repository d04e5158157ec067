"""Stage orchestration surface: runs, teacher persistence, model saving,
and the forked worker that builds every batch's views."""

import contextlib
import os
import signal
import time
from collections import Counter

import numpy as np
import pytest

from distill_ssl import contrastive as C
from distill_ssl import distill
from distill_ssl import pipeline as P
from distill_ssl.augment import AugmentConfig
from distill_ssl.data import BatchStream, generate_synthetic_dataset, load_checkpoint, target_spec
from distill_ssl.rng import Rng

TOY_ENC = C.EncoderConfig(conv_channels=(4, 6), d_backbone=12, d=8, input_size=(12, 12))


def toy_cfg(**overrides):
    base = dict(
        batch_size=8,
        queue_size=16,
        steps=6,
        seed=7,
        augment=AugmentConfig(output_size=(12, 12), noise_sigma=0.01),
    )
    base.update(overrides)
    return C.TrainConfig(**base)


def toy_dataset(seed=3):
    return generate_synthetic_dataset(target_spec(4, 12, (12, 12)), seed)


@pytest.fixture(scope="module")
def stage_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("stages")
    cfg = toy_cfg()
    run_g = P.pretrain(toy_dataset(9), TOY_ENC, cfg)
    P.save_model(run_g.state, root / "generic")
    run_t = P.adapt_teacher(toy_dataset(), root / "generic", TOY_ENC, cfg)
    P.save_model(run_t.state, root / "teacher")
    return root, run_g, run_t


def test_pretrain_run_shape(stage_artifacts):
    _, run_g, _ = stage_artifacts
    assert len(run_g.steps) == 6
    assert all(r.total == r.l_con for r in run_g.steps)
    assert all(r.l_dis == 0.0 for r in run_g.steps)
    assert run_g.state.step_count == 6


def test_save_model_writes_all_four_sets(stage_artifacts):
    root, _, _ = stage_artifacts
    named, _ = load_checkpoint(root / "generic")
    assert set(named) == {"query.backbone", "query.head", "key.backbone", "key.head"}


def test_adapt_teacher_counts_steps_and_freezes(stage_artifacts):
    _, _, run_t = stage_artifacts
    assert run_t.state.step_count == 6
    assert run_t.state.query.backbone.frozen


def test_load_teacher_round_trip(stage_artifacts):
    root, _, run_t = stage_artifacts
    cfg = toy_cfg()
    encoders = C.load_encoders(root / "teacher", TOY_ENC, freeze_backbone=True)
    teacher = C.MoCoState(*encoders, C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg)
    for ps_a, ps_b in (
        (teacher.query.backbone, run_t.state.query.backbone),
        (teacher.query.head, run_t.state.query.head),
        (teacher.key.head, run_t.state.key.head),
    ):
        for name, t in ps_a.items():
            assert np.array_equal(t.data, ps_b[name].data)
    assert teacher.query.backbone.frozen and teacher.key.backbone.frozen


def test_pretrain_distilled_reports_all_three_losses(stage_artifacts):
    root, _, _ = stage_artifacts
    run_s = P.pretrain_distilled(toy_dataset(), root / "teacher", TOY_ENC, toy_cfg())
    assert len(run_s.steps) == 6
    for r in run_s.steps:
        assert abs(r.total - (r.l_con + 5.0 * r.l_dis)) <= 1e-12
        assert r.l_dis > 0.0


def test_pretrain_init_from_checkpoint(stage_artifacts):
    root, _, run_t = stage_artifacts
    run = P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(steps=0), init_from=root / "teacher")
    for name, t in run.state.query.head.items():
        assert np.array_equal(t.data, run_t.state.query.head[name].data)


def test_stages_look_up_step_functions_when_they_run(stage_artifacts, monkeypatch):
    # The benchmark replaces these module attributes before a run; a stage
    # that bound its step at import time would bypass the replacement.
    root, _, _ = stage_artifacts
    calls = Counter()
    for name in ("moco_train_step", "teacher_adapt_step", "distilled_train_step"):

        def counting(*args, _name=name, _step=getattr(P, name)):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(P, name, counting)
    cfg = toy_cfg()
    stages = (
        ("moco_train_step", lambda: P.pretrain(toy_dataset(9), TOY_ENC, cfg)),
        ("moco_train_step",
         lambda: P.pretrain(toy_dataset(), TOY_ENC, cfg, init_from=root / "teacher")),
        ("teacher_adapt_step",
         lambda: P.adapt_teacher(toy_dataset(), root / "generic", TOY_ENC, cfg)),
        ("distilled_train_step",
         lambda: P.pretrain_distilled(toy_dataset(), root / "teacher", TOY_ENC, cfg)),
    )
    for name, stage in stages:
        calls.clear()
        stage()
        assert calls == {name: cfg.steps}


# ---------------------------------------------------------------------------
# views built ahead in a worker process


def hand_run(state, dataset, step, teacher=None):
    """The loop ``_run`` replaces: plain batches, views built in process."""
    cfg = state.cfg
    stream, rng = BatchStream(dataset.frames, cfg.batch_size, cfg.seed), Rng(cfg.seed)
    C.warm_up_queue(state, stream, rng, teacher)
    return [step(state, stream.next_batch(), rng) for _ in range(cfg.steps)]


def assert_states_equal(a, b):
    for enc_a, enc_b in ((a.query, b.query), (a.key, b.key)):
        for ps_a, ps_b in ((enc_a.backbone, enc_b.backbone), (enc_a.head, enc_b.head)):
            assert ps_a.shapes() == ps_b.shapes()
            for name, t in ps_a.items():
                assert np.array_equal(t.data, ps_b[name].data), name
    assert np.array_equal(a.queue.rows, b.queue.rows)
    assert (a.queue.ptr, a.step_count) == (b.queue.ptr, b.step_count)


@pytest.mark.parametrize("stage", ["pretrain", "pretrain_init_from", "adapt_teacher", "distilled"])
def test_stages_equal_a_hand_loop_with_in_process_views(stage_artifacts, stage):
    root, _, _ = stage_artifacts
    cfg, data = toy_cfg(steps=5), toy_dataset()
    teacher = None
    if stage == "pretrain":
        run = P.pretrain(data, TOY_ENC, cfg)
        state, step = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed)), C.moco_train_step
    elif stage == "pretrain_init_from":
        run = P.pretrain(data, TOY_ENC, cfg, init_from=root / "teacher")
        state, step = P._loaded_state(root / "teacher", TOY_ENC, cfg), C.moco_train_step
    elif stage == "adapt_teacher":
        run = P.adapt_teacher(data, root / "generic", TOY_ENC, cfg)
        state = P._loaded_state(root / "generic", TOY_ENC, cfg, ("query", "query"), True)
        step = distill.teacher_adapt_step
    else:
        run = P.pretrain_distilled(data, root / "teacher", TOY_ENC, cfg)
        state = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
        teacher = P._loaded_state(root / "teacher", TOY_ENC, cfg, freeze_backbone=True)
        step = lambda s, b, r: distill.distilled_train_step(s, teacher, b, r)
    assert run.steps == hand_run(state, data, step, teacher)
    assert_states_equal(run.state, state)


def test_training_loop_builds_no_views_itself(monkeypatch):
    # the step finds its views on the batch; only the worker, which calls
    # pipeline.build_views, may build them
    def forbidden(*args):
        raise AssertionError("views built in the training process")

    monkeypatch.setattr(C, "build_views", forbidden)
    run = P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(steps=3))
    assert run.state.step_count == 3


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


def test_worker_reaped_after_a_stage():
    P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(steps=2))
    assert_no_child()


def test_worker_reaped_after_a_step_raises(monkeypatch):
    real, calls = P.moco_train_step, []

    def fails_at_step_2(state, batch, rng):
        if len(calls) == 2:
            raise C.NonFiniteLossError(f"l_con is nan at step {state.step_count}")
        calls.append(1)
        return real(state, batch, rng)

    monkeypatch.setattr(P, "moco_train_step", fails_at_step_2)
    with deadline(10), pytest.raises(C.NonFiniteLossError, match="at step 2"):
        P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(steps=6))
    assert_no_child()


def test_failing_worker_raises_in_the_loop_and_is_reaped(monkeypatch):
    def broken(*args):
        raise ValueError("no views today")

    monkeypatch.setattr(P, "build_views", broken)  # before the fork: the worker inherits it
    with deadline(5), pytest.raises(P.ViewWorkerError, match="view worker") as info:
        P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(steps=4))
    assert "ValueError: no views today" in str(info.value)
    assert_no_child()


def wait_for_exit(pid, seconds=5.0):
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"view worker {pid} still running after {seconds} s")
        time.sleep(0.01)


def feed(count=50):
    cfg = toy_cfg()
    return P._ViewFeed(toy_dataset().frames, cfg, Rng(cfg.seed), count)


def test_worker_ends_when_the_loop_closes_its_pipes_unread():
    f = feed()
    os.close(f._ready)
    os.close(f._free)
    assert os.waitstatus_to_exitcode(wait_for_exit(f._pid)) == 0


def test_worker_ends_when_the_loop_stops_reading():
    # the free pipe stays open, so only EPIPE on the ready pipe can end it
    f = feed()
    os.close(f._ready)
    for _ in range(3):
        os.write(f._free, b"r")
    try:
        assert os.waitstatus_to_exitcode(wait_for_exit(f._pid)) == 0
    finally:
        os.close(f._free)


def test_worker_ends_when_the_training_process_is_killed():
    pid_r, pid_w = os.pipe()
    parent = os.fork()
    if parent == 0:  # a training process that dies with its feed open
        try:
            os.close(pid_r)
            os.write(pid_w, str(feed()._pid).encode())
            time.sleep(60)
        finally:
            os._exit(1)
    os.close(pid_w)
    worker = int(os.read(pid_r, 64))
    os.close(pid_r)
    os.kill(parent, signal.SIGKILL)
    os.waitpid(parent, 0)
    # the orphaned worker is no longer our child; watch its /proc entry
    deadline = time.monotonic() + 5.0
    while True:
        try:
            with open(f"/proc/{worker}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            break
        if state in ("Z", "X"):
            break
        if time.monotonic() > deadline:
            os.kill(worker, signal.SIGKILL)  # alive, so the pid is still the worker's
            pytest.fail(f"orphaned view worker {worker} still running ({state}) after 5 s")
        time.sleep(0.01)


def test_feed_batches_carry_the_views_build_views_makes():
    cfg = toy_cfg()
    data = toy_dataset()
    stream, rng = BatchStream(data.frames, cfg.batch_size, cfg.seed), Rng(cfg.seed)
    with deadline(10), P._ViewFeed(data.frames, cfg, Rng(cfg.seed), 7) as f:
        for _ in range(7):
            got, expected = f.next_batch(), stream.next_batch()
            assert np.array_equal(got.indices, expected.indices) and got.epoch == expected.epoch
            views = C.build_views(expected, cfg.augment, rng)
            assert [v.tobytes() for v in got.views] == [v.tobytes() for v in views]
        with pytest.raises(P.ViewWorkerError, match="ended before batch 8 of 7"):
            f.next_batch()
    assert_no_child()
