"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
for every criterion as it completes.  The desk-scale pipeline (criteria
8-11) runs once in a module fixture through the real CLI entry points.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import distill_ssl.tensor as T
from distill_ssl import contrastive as C
from distill_ssl import distill as K
from distill_ssl import eval as E
from distill_ssl import pipeline as P
from distill_ssl.augment import AugmentConfig
from distill_ssl.cli import run as cli_run
from distill_ssl.data import (
    generate_synthetic_dataset,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    target_spec,
)
from distill_ssl.gradcheck import run_gradcheck
from distill_ssl.rng import Rng


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num:2d} FAIL  {desc}", flush=True)
        raise
    print(f"[ACCEPTANCE] criterion {num:2d} PASS  {desc}", flush=True)


def unit_rows(rng, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


TOY_ENC = C.EncoderConfig(conv_channels=(4, 6), d_backbone=12, d=8, input_size=(12, 12))


def toy_cfg(**overrides):
    base = dict(
        batch_size=8,
        queue_size=32,
        steps=10,
        seed=7,
        augment=AugmentConfig(output_size=(12, 12), noise_sigma=0.01),
    )
    base.update(overrides)
    return C.TrainConfig(**base)


def toy_dataset(seed=3):
    return generate_synthetic_dataset(target_spec(4, 16, (12, 12)), seed)


# ---------------------------------------------------------------------------
# desk-scale pipeline (shared by criteria 8-11)


@pytest.fixture(scope="module")
def pipeline_artifacts(tmp_path_factory):
    """Default pipeline via the CLI: data, generic, teacher, distilled
    student (timed for criterion 8), plus the extra transfer arms."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    start = time.time()
    assert cli_run(["gen-data", "--out", str(data)]) == 0
    assert cli_run([
        "pretrain-generic", "--data", str(data / "generic"), "--out", str(root / "generic"),
    ]) == 0
    assert cli_run([
        "adapt-teacher", "--data", str(data / "target"),
        "--generic", str(root / "generic" / "checkpoint"), "--out", str(root / "teacher"),
    ]) == 0
    assert cli_run([
        "pretrain-student", "--data", str(data / "target"), "--distill",
        "--teacher", str(root / "teacher" / "checkpoint"), "--out", str(root / "distilled"),
    ]) == 0
    core_elapsed = time.time() - start

    assert cli_run([
        "pretrain-student", "--data", str(data / "target"), "--out", str(root / "plain"),
    ]) == 0
    assert cli_run([
        "pretrain-student", "--data", str(data / "target"),
        "--init-from", str(root / "teacher" / "checkpoint"), "--out", str(root / "init"),
    ]) == 0
    return {"root": root, "data": data, "core_elapsed": core_elapsed}


def _probe_accuracy(artifacts, ckpt_name: str, fraction: float, seeds=(0, 1, 2)) -> float:
    with load_dataset(artifacts["data"] / "target")[0] as dataset:
        train_set, test_set = E.split_dataset(dataset, 0.5, seed=7)
    (enc,) = C.load_encoders(artifacts["root"] / ckpt_name / "checkpoint", 1, ("query",))
    with train_set, test_set:
        ftr = E.extract_features(enc, None, train_set, "student")
        fte = E.extract_features(enc, None, test_set, "student")
    accs = []
    for seed in seeds:
        probe = E.fit_linear_probe(ftr, E.ProbeConfig(label_fraction=fraction, seed=seed), 4)
        accs.append(E.compute_phase_metrics(probe.predict(fte.features), fte.labels, 4).accuracy)
    return float(np.mean(accs))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_fidelity():
    with criterion(1, "analytic gradients match finite differences (<= 1e-5, < 2 min)"):
        start = time.time()
        report = run_gradcheck(instances=100)
        elapsed = time.time() - start
        needed = {
            "affine", "conv2d", "relu", "global_avg_pool", "l2_normalize",
            "softmax_with_temperature", "info_nce_loss", "kl_distillation_loss",
            "combined_objective",
        }
        assert needed <= set(report)
        for name, entry in report.items():
            assert entry["max_rel_err"] <= 1e-5, f"{name}: {entry['max_rel_err']:.2e}"
            if name != "encoder_chain":
                assert entry["instances"] >= 100
        assert elapsed < 120.0, f"gradcheck took {elapsed:.0f}s"


def test_criterion_2_closed_form_infonce():
    with criterion(2, "InfoNCE closed forms: ln(M+1) uniform, ln(1+M/e) orthogonal"):
        for m in (1, 2, 8):
            d = m + 2
            v = np.zeros((1, d))
            v[0, 0] = 1.0
            queue = C.KeyQueue(m, d)
            queue.push(np.tile(v, (m, 1)))
            loss = float(C.info_nce_loss(T.constant(v), v, queue, tau=0.07).data)
            assert abs(loss - math.log(m + 1)) <= 1e-12

            queue = C.KeyQueue(m, d)
            queue.push(np.eye(d)[1 : m + 1])
            loss = float(C.info_nce_loss(T.constant(v), v, queue, tau=1.0).data)
            assert abs(loss - math.log(1 + m / math.e)) <= 1e-12


def test_criterion_3_kl_properties():
    def kl(a, b):
        return float(K.kl_distillation_loss(np.log(a[None]), T.Tensor(np.log(b[None]))).data)

    with criterion(3, "KL non-negativity (1e4 pairs), zero iff equal, hand value"):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a = rng.uniform(0.01, 1.0, size=6)
            b = rng.uniform(0.01, 1.0, size=6)
            a /= a.sum()
            b /= b.sum()
            assert kl(a, b) >= -1e-15
        for _ in range(100):
            a = rng.uniform(0.05, 1.0, size=5)
            a /= a.sum()
            assert abs(kl(a, a)) <= 1e-12
            b = a.copy()
            b[0] += 0.02
            b[1] -= 0.02
            if b.min() > 0:
                assert kl(a, b) > 1e-12
        assert abs(kl(np.array([0.5, 0.5]), np.array([0.25, 0.75])) - 0.14384) <= 1e-5


def test_criterion_4_momentum_and_queue_invariants():
    with criterion(4, "momentum endpoints bitwise; ring pointer and FIFO vs oracle (1e3 runs)"):
        key = C.init_encoder(TOY_ENC, Rng(1))
        query = C.init_encoder(TOY_ENC, Rng(2))
        before = {n: t.data.copy() for n, t in key.backbone.items()}
        C.momentum_update(key, query, 1.0)
        assert all(np.array_equal(t.data, before[n]) for n, t in key.backbone.items())
        C.momentum_update(key, query, 0.0)
        assert all(
            np.array_equal(t.data, query.backbone[n].data) for n, t in key.backbone.items()
        )

        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = int(rng.choice([4, 8, 16]))
            n = int(rng.choice([d for d in (1, 2, 4, 8) if m % d == 0]))
            queue = C.KeyQueue(m, 3)
            history = []
            pushes = int(rng.integers(1, 3 * m // n + 1))
            for k in range(1, pushes + 1):
                keys = unit_rows(rng, (n, 3))
                queue.push(keys)
                history.extend(list(keys))
                assert queue.ptr == (k * n) % m
            recent = history[-m:]
            # FIFO oracle: the queue holds exactly the most recent M keys
            got = sorted(row.tobytes() for row in queue.rows if np.any(row != 0.0))
            expected = sorted(np.asarray(r).tobytes() for r in recent)
            if len(history) >= m:
                assert got == expected
            else:
                assert set(expected) <= set(got) or got == expected


def _fresh_teacher(path, cfg, freeze_backbone):
    """Query and key both start as the checkpoint's query encoder."""
    encoders = C.load_encoders(path, 1, ("query", "query"), freeze_backbone)
    return C.MoCoState(*encoders, C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg)


def test_criterion_5_semantic_preserving_freeze(tmp_path):
    with criterion(5, "frozen backbone bitwise over 100 adapt steps; unfrozen equals plain step"):
        cfg = toy_cfg(steps=100)
        run_gen = P.pretrain(toy_dataset(11), TOY_ENC, toy_cfg(steps=5))
        gpath = tmp_path / "gen"
        C.save_model(run_gen.state, gpath)

        teacher = _fresh_teacher(gpath, cfg, freeze_backbone=True)
        backbone_before = {n: t.data.copy() for n, t in teacher.query.backbone.items()}
        head_before = {n: t.data.copy() for n, t in teacher.query.head.items()}
        data = toy_dataset()
        batches = P.PreparedBatches(data, cfg)
        C.warm_up_queue(teacher, batches)
        for _ in range(100):
            K.teacher_adapt_step(teacher, batches.next_batch())
        for n, t in teacher.query.backbone.items():
            assert np.array_equal(t.data, backbone_before[n])
        for n, t in teacher.key.backbone.items():
            assert np.array_equal(t.data, backbone_before[n])
        assert any(
            not np.array_equal(t.data, head_before[n]) for n, t in teacher.query.head.items()
        )

        # freeze disabled: bitwise identical to plain training from the same state
        unfrozen = _fresh_teacher(gpath, cfg, freeze_backbone=False)
        batches_a = P.PreparedBatches(data, cfg)
        C.warm_up_queue(unfrozen, batches_a)
        for _ in range(10):
            K.teacher_adapt_step(unfrozen, batches_a.next_batch())

        plain = _fresh_teacher(gpath, cfg, freeze_backbone=False)
        moco = C.MoCoState(plain.query, plain.key, C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg)
        batches_b = P.PreparedBatches(data, cfg)
        C.warm_up_queue(moco, batches_b)
        for _ in range(10):
            C.moco_train_step(moco, batches_b.next_batch())
        for ps_a, ps_b in (
            (unfrozen.query.backbone, moco.query.backbone),
            (unfrozen.query.head, moco.query.head),
            (unfrozen.key.backbone, moco.key.backbone),
            (unfrozen.key.head, moco.key.head),
        ):
            for name, t in ps_a.items():
                assert np.array_equal(t.data, ps_b[name].data)


def _teacher_checkpoint(tmp_path):
    run_gen = P.pretrain(toy_dataset(11), TOY_ENC, toy_cfg(steps=5))
    gpath = tmp_path / "gen"
    C.save_model(run_gen.state, gpath)
    run_teach = P.adapt_teacher(toy_dataset(), gpath, toy_cfg(steps=5))
    tpath = tmp_path / "teach"
    C.save_model(run_teach.state, tpath)
    return tpath


def _paired_student(tmp_path, lam, steps=50):
    cfg = toy_cfg(lam=lam, steps=steps)
    tpath = _teacher_checkpoint(tmp_path)
    student = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
    encoders = C.load_encoders(tpath, 1, freeze_backbone=True)
    teacher = C.MoCoState(*encoders, C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg)
    batches = P.PreparedBatches(toy_dataset(), cfg, teacher)
    C.warm_up_queue(student, batches)
    return student, teacher, batches


def test_criterion_6_degenerate_weight_equivalence(tmp_path):
    with criterion(6, "lambda=0 distilled training bitwise equals plain over 50 steps"):
        student_a, _, batches_a = _paired_student(tmp_path, lam=0.0)
        for _ in range(50):
            K.distilled_train_step(student_a, batches_a.next_batch())

        cfg = toy_cfg(lam=0.0, steps=50)
        student_b = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
        batches_b = P.PreparedBatches(toy_dataset(), cfg)
        C.warm_up_queue(student_b, batches_b)
        for _ in range(50):
            C.moco_train_step(student_b, batches_b.next_batch())

        for ps_a, ps_b in (
            (student_a.query.backbone, student_b.query.backbone),
            (student_a.query.head, student_b.query.head),
            (student_a.key.backbone, student_b.key.backbone),
            (student_a.key.head, student_b.key.head),
        ):
            for name, t in ps_a.items():
                assert np.array_equal(t.data, ps_b[name].data)
        assert np.array_equal(student_a.queue.rows, student_b.queue.rows)
        assert student_a.queue.ptr == student_b.queue.ptr


def test_criterion_6_through_the_view_worker(tmp_path):
    # pretrain_distilled runs the teacher in the view worker; the student
    # must still follow plain pretraining bit for bit at lambda = 0
    with criterion(6, "lambda=0 pretrain_distilled bitwise equals pretrain over 20 steps"):
        cfg = toy_cfg(lam=0.0, steps=20)
        distilled = P.pretrain_distilled(toy_dataset(), _teacher_checkpoint(tmp_path), TOY_ENC, cfg)
        plain = P.pretrain(toy_dataset(), TOY_ENC, cfg)
        assert [(r.l_con, r.total) for r in distilled.steps] == [
            (r.l_con, r.total) for r in plain.steps
        ]
        assert all(r.l_dis > 0.0 for r in distilled.steps)  # reported, not trained on
        a, b = distilled.state, plain.state
        for enc_a, enc_b in ((a.query, b.query), (a.key, b.key)):
            for ps_a, ps_b in ((enc_a.backbone, enc_b.backbone), (enc_a.head, enc_b.head)):
                for name, t in ps_a.items():
                    assert np.array_equal(t.data, ps_b[name].data), name
        assert np.array_equal(a.queue.rows, b.queue.rows)
        assert (a.queue.ptr, a.step_count) == (b.queue.ptr, b.step_count)


def test_criterion_7_self_teacher_zero_distillation(tmp_path):
    with criterion(7, "self-teacher keeps L_dis < 1e-10 at every step for 20 steps"):
        student, teacher, batches = _paired_student(tmp_path, lam=5.0, steps=20)
        for _ in range(20):
            teacher.query.copy_from(student.query)
            teacher.key.copy_from(student.key)
            np.copyto(teacher.queue.rows, student.queue.rows)
            teacher.queue.ptr = student.queue.ptr
            res = K.distilled_train_step(student, batches.next_batch())
            assert res.l_dis < 1e-10


def test_criterion_8_desk_scale_end_to_end(pipeline_artifacts):
    with criterion(8, "default pipeline <= 10 min; loss < 60% of initial; probe@10% >= 37.5%"):
        start = time.time()
        acc = _probe_accuracy(pipeline_artifacts, "distilled", fraction=0.1, seeds=(0, 1, 2))
        probe_elapsed = time.time() - start
        total = pipeline_artifacts["core_elapsed"] + probe_elapsed
        assert total <= 600.0, f"pipeline took {total:.0f}s"

        metrics = (pipeline_artifacts["root"] / "distilled" / "metrics.csv").read_text()
        rows = [line.split(",") for line in metrics.splitlines()[1:]]
        losses = [float(r[1]) for r in rows]
        initial, final = losses[0], float(np.mean(losses[-10:]))
        assert final < 0.6 * initial, f"loss {initial:.3f} -> {final:.3f}"
        assert acc >= 0.375, f"probe accuracy {acc:.3f}"


def test_criterion_9_label_efficiency_trend(pipeline_artifacts):
    with criterion(9, "probe accuracy non-decreasing in label fraction (2pp tolerance)"):
        out = pipeline_artifacts["root"] / "sweep"
        assert cli_run([
            "sweep-labels",
            "--data", str(pipeline_artifacts["data"] / "target"),
            "--teacher", str(pipeline_artifacts["root"] / "teacher" / "checkpoint"),
            "--plain", str(pipeline_artifacts["root"] / "plain" / "checkpoint"),
            "--distilled", str(pipeline_artifacts["root"] / "distilled" / "checkpoint"),
            "--init-student", str(pipeline_artifacts["root"] / "init" / "checkpoint"),
            "--fractions", "0.05,0.1,0.5,1.0",
            "--probe-seeds", "0,1,2",
            "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 6  # teacher, plain, addition, concatenation, init, distillation
        for encoder, per_fraction in summary.items():
            means = [per_fraction[str(f)]["mean_accuracy"] for f in (0.05, 0.1, 0.5, 1.0)]
            for lo, hi in zip(means, means[1:]):
                assert hi >= lo - 0.02, f"{encoder}: {means}"


def test_criterion_10_transfer_mode_ablation(pipeline_artifacts):
    with criterion(10, "all four transfer arms run end-to-end into one comparison CSV"):
        path = pipeline_artifacts["root"] / "sweep" / "metrics.csv"
        assert path.exists(), "sweep output missing (criterion 9 produces it)"
        lines = path.read_text().splitlines()
        assert lines[0] == "encoder,mode,fraction,seed,accuracy,precision,recall,jaccard"
        arms = {line.split(",")[0] for line in lines[1:]}
        assert {"addition", "concatenation", "initialization", "distillation"} <= arms
        rows_per_arm = 3 * 3 + 1  # seeds at each fraction below 1; one probe at 1.0
        assert len(lines) - 1 == len(arms) * rows_per_arm


def test_criterion_11_persistence(pipeline_artifacts, tmp_path):
    with criterion(11, "checkpoint round-trips bitwise; identical seeded CLI runs identical"):
        for name in ("generic", "teacher", "distilled", "plain", "init"):
            src = pipeline_artifacts["root"] / name / "checkpoint"
            named, config = load_checkpoint(src)
            copy = tmp_path / f"{name}_copy"
            save_checkpoint(named, copy, config)
            reloaded, _ = load_checkpoint(copy)
            for set_name, ps in named.items():
                for pname, t in ps.items():
                    assert np.array_equal(reloaded[set_name][pname].data, t.data)
            assert (src.parent / "checkpoint.bin").read_bytes() == copy.with_suffix(".bin").read_bytes()

        config = tmp_path / "small.json"
        config.write_text(json.dumps({
            "steps": 15, "batch_size": 8, "queue_size": 16,
            "target_frames_per_phase": 12, "generic_frames_per_phase": 8, "seed": 5,
        }))
        data = tmp_path / "d"
        assert cli_run(["gen-data", "--config", str(config), "--out", str(data)]) == 0
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli_run([
                "pretrain-student", "--config", str(config),
                "--data", str(data / "target"), "--out", str(out),
            ]) == 0
            blobs.append((out / "checkpoint.bin").read_bytes())
        assert blobs[0] == blobs[1]
