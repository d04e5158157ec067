"""Stage orchestration surface: runs, teacher persistence, model saving,
and the forked worker that builds every batch's views."""

import copy
import os
import re
import signal
import time
from collections import Counter

import numpy as np
import pytest

from distill_ssl import contrastive as C
from distill_ssl import distill
from distill_ssl import pipeline as P
from distill_ssl.augment import AugmentConfig
from distill_ssl.data import (BatchStream, generate_synthetic_dataset, load_checkpoint,
                              load_dataset, save_dataset, target_spec)
from distill_ssl.rng import Rng
from distill_ssl.worker import WorkerError

from digests import sha256_of
from procs import assert_no_child, deadline
from reads import assert_no_read_covers_every_row, holds_open, log_row_reads

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
    C.save_model(run_g.state, root / "generic")
    run_t = P.adapt_teacher(toy_dataset(), root / "generic", cfg)
    C.save_model(run_t.state, root / "teacher")
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
    encoders = C.load_encoders(root / "teacher", 1, freeze_backbone=True)
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
         lambda: P.adapt_teacher(toy_dataset(), root / "generic", cfg)),
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
    """``_run`` without the worker: the same batches, prepared in process."""
    batches = P.PreparedBatches(dataset, state.cfg, teacher)
    C.warm_up_queue(state, batches)
    return [step(state, batches.next_batch()) for _ in range(state.cfg.steps)]


def assert_states_equal(a, b):
    """Parameters, SGD velocities, queue rows and pointer, and step count."""
    for enc_a, enc_b in ((a.query, b.query), (a.key, b.key)):
        for ps_a, ps_b in ((enc_a.backbone, enc_b.backbone), (enc_a.head, enc_b.head)):
            assert ps_a.shapes() == ps_b.shapes()
            for name, t in ps_a.items():
                assert np.array_equal(t.data, ps_b[name].data), name
            assert ps_a._velocity.keys() == ps_b._velocity.keys()
            assert all(np.array_equal(v, ps_b._velocity[n]) for n, v in ps_a._velocity.items())
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
        state, step = P._loaded_state(root / "teacher", cfg, 1), C.moco_train_step
    elif stage == "adapt_teacher":
        run = P.adapt_teacher(data, root / "generic", cfg)
        state = P._loaded_state(root / "generic", cfg, 1, ("query", "query"), True)
        step = distill.teacher_adapt_step
    else:
        run = P.pretrain_distilled(data, root / "teacher", TOY_ENC, cfg)
        state = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
        teacher = P._loaded_state(root / "teacher", cfg, 1, freeze_backbone=True)
        step = distill.distilled_train_step
    assert run.steps == hand_run(state, toy_dataset(), step, teacher)  # the run took data over
    assert_states_equal(run.state, state)


def run_digest(run):
    """sha256 over every parameter, queue row, pointer, step count and StepResult."""
    state = run.state
    params = [part for enc in (state.query, state.key) for ps in (enc.backbone, enc.head)
              for name, t in ps.items() for part in (name, t.data)]
    counts = np.array((state.queue.ptr, state.queue.filled, state.step_count), np.int64)
    losses = np.array([(r.l_con, r.l_dis, r.total) for r in run.steps])
    return sha256_of(*params, state.queue.rows, counts, losses)


# Taken with numpy 2.4.6 on x86-64; a refactor that keeps every bit keeps these.
PINNED_STAGE_DIGESTS = {
    "pretrain": "cb111afddb4a65851390593b2e94e2b32144093dac0503d5621646350928ab25",
    "pretrain_init_from": "6a717a9b5f8699fb1d0d84e2cc24d4745db8ca8da9b5596e3928b4bea8265dcc",
    "adapt_teacher": "d955190236fe9f01308e20b58ac42f02017e6214ca40a356f201ef64feb9d06e",
    "distilled": "bcf151ccaab0ebae4d447f526bba1f8e799cae1c971387d7ae96bd0b70ed4fae",
}


@pytest.mark.parametrize("stage", sorted(PINNED_STAGE_DIGESTS))
def test_stage_outputs_pinned(stage_artifacts, stage):
    root, _, _ = stage_artifacts
    cfg, data = toy_cfg(), toy_dataset()
    run = {
        "pretrain": lambda: P.pretrain(data, TOY_ENC, cfg),
        "pretrain_init_from": lambda: P.pretrain(data, TOY_ENC, cfg, init_from=root / "teacher"),
        "adapt_teacher": lambda: P.adapt_teacher(data, root / "generic", cfg),
        "distilled": lambda: P.pretrain_distilled(data, root / "teacher", TOY_ENC, cfg),
    }[stage]()
    assert run_digest(run) == PINNED_STAGE_DIGESTS[stage]


@pytest.mark.parametrize("stage", ["pretrain", "adapt_teacher"])
def test_steps_and_warm_up_refuse_a_batch_without_views(stage_artifacts, stage):
    # a step reads the views its batch carries and never builds them
    root, _, _ = stage_artifacts
    cfg, data = toy_cfg(), toy_dataset()
    if stage == "pretrain":
        state, step = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed)), C.moco_train_step
    else:
        state = P._loaded_state(root / "generic", cfg, 1, ("query", "query"), True)
        step = distill.teacher_adapt_step
    bare = BatchStream(data, cfg.batch_size, cfg.seed)
    before = copy.deepcopy(state)
    with pytest.raises(C.ContractError, match="no views"):
        C.warm_up_queue(state, bare)
    assert_states_equal(state, before)
    C.warm_up_queue(state, P.PreparedBatches(data, cfg))
    before = copy.deepcopy(state)
    with pytest.raises(C.ContractError, match="no views"):
        step(state, bare.next_batch())
    assert_states_equal(state, before)


def test_a_step_refuses_a_warm_up_batch():
    # a warm-up batch carries no query views, and no step may take it for a full one
    cfg = toy_cfg()
    state = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
    batches = P.PreparedBatches(toy_dataset(), cfg)
    C.warm_up_queue(state, P.PreparedBatches(toy_dataset(), cfg))
    batch = batches.next_batch()
    assert batch.views[0] is None and batch.views[1].shape[0] == cfg.batch_size
    before = copy.deepcopy(state)
    with pytest.raises(C.ContractError, match="only key views"):
        C.moco_train_step(state, batch)
    assert_states_equal(state, before)


def test_distilled_step_refuses_a_batch_without_soft_targets():
    # the step reads the teacher's targets from its batch and never runs a teacher
    cfg = toy_cfg()
    state = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
    batches = P.PreparedBatches(toy_dataset(), cfg)
    C.warm_up_queue(state, batches)
    before = copy.deepcopy(state)
    with pytest.raises(C.ContractError, match="no teacher soft targets"):
        distill.distilled_train_step(state, batches.next_batch())
    assert_states_equal(state, before)


@pytest.mark.parametrize("where", ["frozen backbone", "key encoder"])
def test_a_gradient_where_none_belongs_changes_no_state(stage_artifacts, where):
    # a step checks every set that must hold no gradient before its first update
    root, _, _ = stage_artifacts
    cfg = toy_cfg()
    if where == "frozen backbone":
        state = P._loaded_state(root / "generic", cfg, 1, ("query", "query"), True)
        step, bad = distill.teacher_adapt_step, state.query.backbone["conv1.kernels"]
    else:
        state = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
        step, bad = C.moco_train_step, state.key.head["fc1.weight"]
    batches = P.PreparedBatches(toy_dataset(), cfg)
    C.warm_up_queue(state, batches)
    step(state, batches.next_batch())  # every trained set now has a velocity to keep
    bad.grad = np.full_like(bad.data, 0.5)
    before = copy.deepcopy(state)
    with pytest.raises(C.ContractError, match="received gradient"):
        step(state, batches.next_batch())
    assert_states_equal(state, before)


@pytest.mark.parametrize("distilled", [False, True], ids=["plain", "distilled"])
def test_keys_off_the_unit_sphere_stop_the_step_before_any_update(stage_artifacts, distilled):
    # the keys are checked right after the key forward pass, not first at the queue push
    root, _, _ = stage_artifacts
    cfg = toy_cfg()
    state, teacher, step = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed)), None, C.moco_train_step
    if distilled:
        teacher = P._loaded_state(root / "teacher", cfg, 1, freeze_backbone=True)
        step = distill.distilled_train_step
    batches = P.PreparedBatches(toy_dataset(), cfg, teacher)
    C.warm_up_queue(state, batches)
    step(state, batches.next_batch())  # every trained set now has a velocity to keep
    for _, t in state.key.head.items():
        t.data[...] = 0.0  # every key embedding is now the zero vector
    before = copy.deepcopy(state)
    with pytest.raises(C.ContractError,
                       match=r"^key embeddings not unit-norm at step 1 \(worst deviation 1\.000e\+00\)$"):
        step(state, batches.next_batch())
    assert_states_equal(state, before)


def test_a_non_finite_gradient_stops_the_step_before_any_update():
    # an inf already in a gradient slot adds no floating-point exception, so
    # only the check before sgd_step can name it
    cfg = toy_cfg()
    state = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
    batches = P.PreparedBatches(toy_dataset(), cfg)
    C.warm_up_queue(state, batches)
    C.moco_train_step(state, batches.next_batch())  # every trained set now has a velocity to keep
    state.query.backbone["conv1.kernels"].grad[0, 0, 1, 1] = np.inf
    before = copy.deepcopy(state)
    with pytest.raises(C.DivergenceError,
                       match=r"^query backbone 'conv1\.kernels' gradient is inf at step 1$"):
        C.moco_train_step(state, batches.next_batch())
    assert_states_equal(state, before)


# Accepted extremes of every value a step reads: TrainConfig's and the view
# noise and brightness, which the views are clipped after.
EXTREMES = [("lr", 0.0), ("lr", 1e6), ("lr", 1e308), ("weight_decay", 1e6),
            ("tau", 1e-6), ("tau", 1e6), ("distill_tau", 1e-6), ("distill_tau", 1e6),
            ("m", 0.0), ("m", 1.0 - 1e-9), ("momentum", 0.0), ("momentum", 1.0 - 1e-9),
            ("noise_sigma", 1e6), ("brightness_delta", 1e6)]


@pytest.mark.parametrize("distilled", [False, True], ids=["plain", "distilled"])
@pytest.mark.parametrize("key, value", EXTREMES, ids=[f"{k}={v!r}" for k, v in EXTREMES])
def test_an_accepted_extreme_trains_finite_or_stops_named_before_any_update(
    stage_artifacts, key, value, distilled
):
    root, _, _ = stage_artifacts
    if key in ("noise_sigma", "brightness_delta"):
        cfg = toy_cfg(steps=30, augment=AugmentConfig(**{"output_size": (12, 12),
                                                         "noise_sigma": 0.01, key: value}))
    else:
        cfg = toy_cfg(steps=30, **{key: value})
    state, teacher, step = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed)), None, C.moco_train_step
    if distilled:
        teacher = P._loaded_state(root / "teacher", cfg, 1, freeze_backbone=True)
        step = distill.distilled_train_step
    before = []

    def kept_step(state, batch):
        before[:] = [copy.deepcopy(state)]
        return step(state, batch)

    try:
        run = P._run(toy_dataset(), state, kept_step, teacher)
    except (C.DivergenceError, C.ContractError) as exc:
        assert re.search(rf"at step {before[0].step_count}\b", str(exc)), str(exc)
        assert_states_equal(state, before[0])
    else:
        assert len(run.steps) == 30
        for enc in (state.query, state.key):
            for ps in (enc.backbone, enc.head):
                assert all(np.isfinite(t.data).all() for _, t in ps.items())


def test_loop_batches_carry_the_workers_views_but_no_frames():
    # only the worker gathers frames and keeps their order
    cfg, data = toy_cfg(), toy_dataset()
    prepared = P.PreparedBatches(data, cfg)
    with P._ViewFeed(data, cfg, 8) as f:  # 6 batches per epoch: crosses into epoch 1
        for _ in range(8):
            got, want = f.next_batch(), prepared.next_batch()
            assert got.frames is None and got.indices is None and got.epoch is None
            assert all(np.array_equal(a, b) for a, b in zip(got.views, want.views))


@pytest.mark.parametrize("stage", ["pretrain", "adapt_teacher", "distilled"])
def test_the_training_process_holds_no_frames_by_its_first_step(
    stage_artifacts, stage, tmp_path, monkeypatch
):
    # only the view worker reads rows, a batch's at a time; the loop's process
    # reads none and closes its handle on the blob once the worker has forked
    root, _, _ = stage_artifacts
    save_dataset(toy_dataset(), tmp_path / "d")
    dataset = load_dataset(tmp_path / "d")[0]
    log_row_reads(monkeypatch, tmp_path / "reads")
    name, run = {
        "pretrain": ("moco_train_step", lambda: P.pretrain(dataset, TOY_ENC, toy_cfg())),
        "adapt_teacher": ("teacher_adapt_step",
                          lambda: P.adapt_teacher(dataset, root / "generic", toy_cfg())),
        "distilled": ("distilled_train_step",
                      lambda: P.pretrain_distilled(dataset, root / "teacher", TOY_ENC, toy_cfg())),
    }[stage]
    real, held = getattr(P, name), []

    def step(state, batch):
        held.append(holds_open(tmp_path / "d.bin"))
        return real(state, batch)

    monkeypatch.setattr(P, name, step)
    assert len(run().steps) == 6
    assert held == [False] * 6
    assert_no_read_covers_every_row(tmp_path / "reads", worker_only=True)
    assert len(dataset) == 48 and dataset.labels.shape == (48,)  # the labels stay
    for use in (lambda: dataset.frames, lambda: dataset.subset([0]),
                lambda: P.pretrain(dataset, TOY_ENC, toy_cfg())):
        with pytest.raises(RuntimeError, match="frames were taken over by a stage"):
            use()
    assert_no_child()


def test_worker_reaped_after_a_stage():
    P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(steps=2))
    assert_no_child()


def test_worker_reaped_after_a_step_raises(monkeypatch):
    real, calls = P.moco_train_step, []

    def fails_at_step_2(state, batch):
        if len(calls) == 2:
            raise C.NonFiniteLossError(f"l_con is nan at step {state.step_count}")
        calls.append(1)
        return real(state, batch)

    monkeypatch.setattr(P, "moco_train_step", fails_at_step_2)
    with deadline(10), pytest.raises(C.NonFiniteLossError, match="at step 2"):
        P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(steps=6))
    assert_no_child()


def test_failing_worker_raises_in_the_loop_and_is_reaped(monkeypatch):
    def broken(*args):
        raise ValueError("no views today")

    monkeypatch.setattr(P, "build_views", broken)  # before the fork: the worker inherits it
    with deadline(5), pytest.raises(WorkerError, match="view worker") as info:
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
    return P._ViewFeed(toy_dataset(), cfg, count)


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
    # the warm-up batches carry only their key views, with the bits of a full build
    cfg = toy_cfg()
    data = toy_dataset()
    stream, rng = BatchStream(data, cfg.batch_size, cfg.seed), Rng(cfg.seed)
    warm = cfg.queue_size // cfg.batch_size
    with deadline(10), P._ViewFeed(data, cfg, 7) as f:
        for i in range(7):
            got, expected = f.next_batch(), stream.next_batch()
            views_q, views_k = C.build_views(expected, cfg.augment, rng)
            assert got.views[1].tobytes() == views_k.tobytes()
            if i < warm:
                assert got.views[0] is None
            else:
                assert got.views[0].tobytes() == views_q.tobytes()
        with pytest.raises(WorkerError, match="ended before batch 8 of 7"):
            f.next_batch()
    assert_no_child()


# ---------------------------------------------------------------------------
# the frozen teacher run in the same worker


def test_feed_batches_carry_the_teacher_soft_targets(stage_artifacts):
    root, _, _ = stage_artifacts
    cfg, data = toy_cfg(), toy_dataset()
    teacher = P._loaded_state(root / "teacher", cfg, 1, freeze_backbone=True)
    hand = P._loaded_state(root / "teacher", cfg, 1, freeze_backbone=True)
    stream, rng = BatchStream(data, cfg.batch_size, cfg.seed), Rng(cfg.seed)
    warm = cfg.queue_size // cfg.batch_size
    with deadline(10), P._ViewFeed(data, cfg, warm + 5, teacher) as f:
        for i in range(warm + 5):
            got = f.next_batch()
            views_q, views_k = C.build_views(stream.next_batch(), cfg.augment, rng)
            keys = C.encode(hand.key, views_k).data
            if i < warm:
                assert got.log_p_t is None and got.teacher_ptr is None
            else:
                q_t = C.encode(hand.query, views_q).data
                log_p_t = distill.soft_targets(q_t, keys, hand.queue, cfg.effective_distill_tau)
                assert got.log_p_t.tobytes() == log_p_t.tobytes()
                assert got.teacher_ptr == hand.queue.ptr
            hand.queue.push(keys)
    assert teacher.queue.filled == 0  # only the worker's copy was pushed
    assert_no_child()


def test_feed_batches_carry_no_targets_without_a_teacher():
    with deadline(10), feed(4) as f:
        for _ in range(4):
            batch = f.next_batch()
            assert batch.log_p_t is None and batch.teacher_ptr is None


def test_failing_teacher_raises_in_the_loop_and_is_reaped(stage_artifacts, monkeypatch):
    root, _, _ = stage_artifacts

    def broken(*args):
        raise ValueError("no soft targets today")

    monkeypatch.setattr(distill, "soft_targets", broken)  # before the fork: the worker inherits it
    with deadline(5), pytest.raises(WorkerError, match="view worker") as info:
        P.pretrain_distilled(toy_dataset(), root / "teacher", TOY_ENC, toy_cfg(steps=4))
    assert "ValueError: no soft targets today" in str(info.value)
    assert_no_child()
