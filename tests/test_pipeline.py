"""Stage orchestration surface: runs, teacher persistence, model saving."""

from collections import Counter

import numpy as np
import pytest

from distill_ssl import contrastive as C
from distill_ssl import pipeline as P
from distill_ssl.augment import AugmentConfig
from distill_ssl.data import generate_synthetic_dataset, load_checkpoint, target_spec

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
