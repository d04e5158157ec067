"""Teacher adaptation and distilled training: freezes, KL, equivalences."""

import math

import numpy as np
import pytest

import distill_ssl.tensor as T
from distill_ssl import contrastive as C
from distill_ssl import distill as K
from distill_ssl import pipeline as P
from distill_ssl.augment import AugmentConfig
from distill_ssl.data import generate_synthetic_dataset, target_spec
from distill_ssl.rng import Rng

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


def fresh_teacher(path, cfg, freeze_backbone=True):
    """Query and key both start as the checkpoint's query encoder."""
    encoders = C.load_encoders(path, TOY_ENC, ("query", "query"), freeze_backbone)
    return C.MoCoState(*encoders, C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg)


def unit_rows(rng, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.fixture()
def generic_ckpt(tmp_path):
    cfg = toy_cfg(steps=5)
    run = P.pretrain(toy_dataset(9), TOY_ENC, cfg)
    path = tmp_path / "generic"
    P.save_model(run.state, path)
    return path


class TestInitTeacher:
    def test_load_fidelity_bitwise(self, generic_ckpt):
        from distill_ssl.data import load_checkpoint

        named, _ = load_checkpoint(generic_ckpt)
        teacher = fresh_teacher(generic_ckpt, toy_cfg())
        for side in (teacher.query, teacher.key):
            for ps, tag in ((side.backbone, "backbone"), (side.head, "head")):
                for name, t in ps.items():
                    assert np.array_equal(t.data, named[f"query.{tag}"][name].data)

    def test_wrong_shape_head_fails_atomically(self, tmp_path, generic_ckpt):
        wrong = C.EncoderConfig(conv_channels=(4, 6), d_backbone=12, d=4, input_size=(12, 12))
        from distill_ssl.data import TensorShapeError

        with pytest.raises(TensorShapeError, match=r"query\.head/fc2\.weight"):
            C.load_encoders(generic_ckpt, wrong, ("query", "query"))

    def test_wrong_shape_key_side_fails_atomically(self, tmp_path, generic_ckpt):
        from distill_ssl.data import TensorShapeError, load_checkpoint, save_checkpoint

        named, _ = load_checkpoint(generic_ckpt)
        narrow = C.EncoderConfig(conv_channels=(4, 6), d_backbone=12, d=4, input_size=(12, 12))
        named["key.head"] = C.init_encoder(narrow, Rng(0)).head
        save_checkpoint(named, tmp_path / "bad_key")
        # the query side alone is intact and loads; asking for both sides loads nothing
        assert len(C.load_encoders(tmp_path / "bad_key", TOY_ENC, ("query",))) == 1
        with pytest.raises(TensorShapeError, match=r"key\.head/fc2\.weight"):
            C.load_encoders(tmp_path / "bad_key", TOY_ENC, ("query", "key"))

    def test_backbones_frozen(self, generic_ckpt):
        teacher = fresh_teacher(generic_ckpt, toy_cfg())
        assert teacher.query.backbone.frozen and teacher.key.backbone.frozen
        for _, t in teacher.query.backbone.items():
            assert not t.requires_grad

    def test_freeze_disabled_leaves_backbone_trainable(self, generic_ckpt):
        teacher = fresh_teacher(generic_ckpt, toy_cfg(), freeze_backbone=False)
        assert not teacher.query.backbone.frozen


class TestTeacherAdaptStep:
    def run_steps(self, generic_ckpt, steps, freeze=True, seed=7):
        cfg = toy_cfg(seed=seed)
        teacher = fresh_teacher(generic_ckpt, cfg, freeze_backbone=freeze)
        batches = P.PreparedBatches(toy_dataset(), cfg)
        C.warm_up_queue(teacher, batches)
        losses = [K.teacher_adapt_step(teacher, batches.next_batch()) for _ in range(steps)]
        return teacher, losses

    def test_backbone_bitwise_frozen_over_100_steps(self, generic_ckpt):
        teacher0 = fresh_teacher(generic_ckpt, toy_cfg())
        before = {n: t.data.copy() for n, t in teacher0.query.backbone.items()}
        teacher, _ = self.run_steps(generic_ckpt, 100)
        for n, t in teacher.query.backbone.items():
            assert np.array_equal(t.data, before[n])
        for n, t in teacher.key.backbone.items():
            assert np.array_equal(t.data, before[n])

    @pytest.mark.parametrize("freeze", (True, False))
    def test_frozen_backbone_records_no_conv(self, generic_ckpt, monkeypatch, freeze):
        teacher0 = fresh_teacher(generic_ckpt, toy_cfg())
        before = {n: t.data.copy() for n, t in teacher0.query.backbone.items()}
        recorded = []
        conv2d = T.conv2d

        def spy(*args, **kwargs):
            recorded.append(T.recording())
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(T, "conv2d", spy)
        teacher, _ = self.run_steps(generic_ckpt, 2, freeze=freeze)
        # unfrozen, each step records the query encoder's two convolutions
        assert sum(recorded) == (0 if freeze else 4)
        if freeze:
            for side in (teacher.query, teacher.key):
                for n, t in side.backbone.items():
                    assert np.array_equal(t.data, before[n])

    def test_head_moves_after_one_step(self, generic_ckpt):
        teacher0 = fresh_teacher(generic_ckpt, toy_cfg())
        before = {n: t.data.copy() for n, t in teacher0.query.head.items()}
        teacher, _ = self.run_steps(generic_ckpt, 1)
        assert any(not np.array_equal(t.data, before[n]) for n, t in teacher.query.head.items())

    def test_unfrozen_adapt_equals_moco_step_bitwise(self, generic_ckpt):
        cfg = toy_cfg()
        data = toy_dataset()

        teacher = fresh_teacher(generic_ckpt, cfg, freeze_backbone=False)
        batches_a = P.PreparedBatches(data, cfg)
        C.warm_up_queue(teacher, batches_a)
        for _ in range(3):
            K.teacher_adapt_step(teacher, batches_a.next_batch())

        # identical starting state, stepped with moco_train_step instead
        fresh = fresh_teacher(generic_ckpt, cfg, freeze_backbone=False)
        moco = C.MoCoState(
            fresh.query, fresh.key, C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg
        )
        batches_b = P.PreparedBatches(data, cfg)
        C.warm_up_queue(moco, batches_b)
        for _ in range(3):
            C.moco_train_step(moco, batches_b.next_batch())

        for ps_t, ps_m in (
            (teacher.query.backbone, moco.query.backbone),
            (teacher.query.head, moco.query.head),
            (teacher.key.backbone, moco.key.backbone),
            (teacher.key.head, moco.key.head),
        ):
            for name, t in ps_t.items():
                assert np.array_equal(t.data, ps_m[name].data)
        assert np.array_equal(teacher.queue.rows, moco.queue.rows)


class TestSoftTargets:
    def make_queue(self, rows):
        queue = C.KeyQueue(rows.shape[0], rows.shape[1])
        queue.push(rows)
        return queue

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        queue = self.make_queue(unit_rows(rng, (8, 5)))
        log_p = K.soft_targets(unit_rows(rng, (4, 5)), unit_rows(rng, (4, 5)), queue, 0.07)
        assert np.abs(np.exp(log_p).sum(axis=1) - 1.0).max() <= 1e-12

    def test_equal_similarities_uniform(self):
        d = 5
        v = np.zeros((1, d))
        v[0, 0] = 1.0
        queue = self.make_queue(np.tile(v, (4, 1)))
        log_p = K.soft_targets(v, v, queue, 0.07)
        assert np.abs(np.exp(log_p) - 1.0 / 5.0).max() <= 1e-12

    def test_closed_form_three_way(self):
        # sims [1, 0, 0] at tau=1: [e, 1, 1] / (e + 2)
        d = 3
        q = np.array([[1.0, 0.0, 0.0]])
        rows = np.eye(3)[1:]
        queue = self.make_queue(rows)
        log_p = K.soft_targets(q, q, queue, 1.0)
        e = math.e
        assert np.allclose(np.exp(log_p[0]), [e / (e + 2), 1 / (e + 2), 1 / (e + 2)], atol=1e-12)

    def test_bad_tau(self):
        queue = self.make_queue(np.eye(2))
        with pytest.raises(T.ParameterError):
            K.soft_targets(np.eye(2)[:1], np.eye(2)[:1], queue, -1.0)


def log_dist(probs):
    """Log-probabilities of a probability row batch, as the KL takes them."""
    return np.log(np.asarray(probs, dtype=np.float64))


def kl(log_p_t, log_p_s):
    return float(K.kl_distillation_loss(log_p_t, T.Tensor(log_p_s)).data)


def kl_gradient_error(seed, n, d, m, tau):
    """KL of random unit rows at tau and its gradient's error against
    finite differences, relative to the larger gradient."""
    rng = np.random.default_rng(seed)
    q0 = unit_rows(rng, (n, d))
    kp = unit_rows(rng, (n, d))
    queue = C.KeyQueue(m, d)
    queue.push(unit_rows(rng, (m, d)))
    tq = C.KeyQueue(m, d)
    tq.push(unit_rows(rng, (m, d)))
    log_p_t = K.soft_targets(unit_rows(rng, (n, d)), unit_rows(rng, (n, d)), tq, tau)

    qt = T.parameter(q0.copy())
    graph = T.Graph()
    with graph:
        log_p_s = K.student_similarity_distribution(qt, kp, queue, tau)
        loss = K.kl_distillation_loss(log_p_t, log_p_s)
    graph.backward(loss)

    def f(x):
        with T.no_grad():
            log_p = K.student_similarity_distribution(T.Tensor(x), kp, queue, tau)
            return float(K.kl_distillation_loss(log_p_t, log_p).data)

    fd = T.finite_diff_gradient(f, q0.copy())
    scale = max(np.abs(qt.grad).max(), np.abs(fd).max(), 1e-12)
    return float(loss.data), np.abs(qt.grad - fd).max() / scale


class TestKlDistillationLoss:
    def test_identical_distributions_zero(self):
        p = log_dist([[0.2, 0.3, 0.5]])
        q = log_dist([[0.2, 0.3, 0.5]])
        assert abs(kl(p, q)) <= 1e-12

    def test_hand_case(self):
        p = log_dist([[0.5, 0.5]])
        q = log_dist([[0.25, 0.75]])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(kl(p, q) - expected) <= 1e-12
        assert abs(expected - 0.14384) <= 1e-5

    def test_nonnegativity_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = rng.uniform(0.01, 1.0, size=7)
            b = rng.uniform(0.01, 1.0, size=7)
            assert kl(log_dist((a / a.sum())[None]), log_dist((b / b.sum())[None])) >= -1e-15

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.1, 1.0, size=6)
        a /= a.sum()
        b = a.copy()
        b[0] += 0.05
        b[1] -= 0.05
        p = log_dist(a[None])
        q = log_dist(b[None])
        assert kl(p, q) > 1e-12
        assert kl(p, p) <= 1e-12

    def test_zero_teacher_mass_convention(self):
        # a teacher log-probability of -1e4 is a probability of exactly 0
        p = np.array([[-1e4, 0.0]])
        assert np.exp(p)[0, 0] == 0.0
        q = log_dist([[0.5, 0.5]])
        assert abs(kl(p, q) - math.log(2.0)) <= 1e-12

    def test_zero_mass_in_both_gives_zero_gradient(self):
        # 0 * (log 0 - log 0) is 0 in the loss, and its gradient entry is 0 too
        log_p_t = np.array([[0.0, -1e4]])
        log_ps = T.parameter(np.array([[0.0, -1e4]]))
        graph = T.Graph()
        with graph:
            loss = K.kl_distillation_loss(log_p_t, log_ps)
        graph.backward(loss)
        assert float(loss.data) == 0.0
        np.testing.assert_array_equal(log_ps.grad, [[-1.0, 0.0]])

    def test_length_mismatch_rejected(self):
        p = log_dist([[0.5, 0.5]])
        q = log_dist([[0.2, 0.3, 0.5]])
        with pytest.raises(C.ContractError):
            kl(p, q)

    def test_gradient_matches_finite_differences(self):
        _, err = kl_gradient_error(3, n=3, d=6, m=4, tau=0.07)
        assert err <= 1e-5

    def test_finite_where_student_probabilities_underflow(self):
        # At tau = 1e-3, p_s of random unit queue keys underflows to exactly
        # 0 where p_t is not 0; the KL taken from log-probabilities, and its
        # gradient, stay finite and match finite differences.
        loss, err = kl_gradient_error(5, n=4, d=8, m=16, tau=1e-3)
        assert math.isfinite(loss) and loss > 0.0
        assert err <= 1e-5

    def test_student_rejects_bad_tau(self):
        queue = C.KeyQueue(2, 2)
        queue.push(np.eye(2))
        with pytest.raises(T.ParameterError):
            K.student_similarity_distribution(T.Tensor(np.eye(2)[:1]), np.eye(2)[:1], queue, 0.0)

    def test_one_hot_teacher_recovers_cross_entropy(self):
        # With a one-hot target at the positive, the KL equals the InfoNCE
        # value (the teacher entropy term vanishes).
        rng = np.random.default_rng(4)
        n, d, m = 4, 6, 4
        q = unit_rows(rng, (n, d))
        kp = unit_rows(rng, (n, d))
        queue = C.KeyQueue(m, d)
        queue.push(unit_rows(rng, (m, d)))
        log_onehot = np.full((n, m + 1), -1e4)  # exp(-1e4) is exactly 0
        log_onehot[:, 0] = 0.0
        with T.no_grad():
            log_p_s = K.student_similarity_distribution(T.Tensor(q), kp, queue, 0.07)
            kl_value = float(K.kl_distillation_loss(log_onehot, log_p_s).data)
            nce = float(C.info_nce_loss(T.Tensor(q), kp, queue, 0.07).data)
        assert abs(kl_value - nce) <= 1e-10


def train_teacher(tmp_path, cfg):
    """Checkpoint path of a toy teacher adapted from a toy generic model."""
    run_g = P.pretrain(toy_dataset(11), TOY_ENC, cfg)
    gpath = tmp_path / "gen"
    P.save_model(run_g.state, gpath)
    run_t = P.adapt_teacher(toy_dataset(), gpath, TOY_ENC, cfg)
    tpath = tmp_path / "teach"
    P.save_model(run_t.state, tpath)
    return tpath


def pair_from(tpath, cfg):
    """Fresh student plus the teacher at tpath, queues warmed in sync, and
    the batches that carry the teacher's soft targets."""
    student = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
    encoders = C.load_encoders(tpath, TOY_ENC, freeze_backbone=True)
    teacher = C.MoCoState(*encoders, C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg)
    batches = P.PreparedBatches(toy_dataset(), cfg, teacher)
    C.warm_up_queue(student, batches)
    return student, teacher, batches


def build_pair(tmp_path, seed=7, lam=5.0, distill_tau=None):
    """Student state plus an adapted toy teacher, queues synchronized."""
    cfg = toy_cfg(seed=seed, lam=lam, steps=5, distill_tau=distill_tau)
    return pair_from(train_teacher(tmp_path, cfg), cfg)


class TestDistilledTrainStep:
    def test_carried_pointer_mismatch_rejected_before_any_update(self, shared_teacher):
        cfg = toy_cfg(steps=2)
        student, _, batches = pair_from(shared_teacher, cfg)
        batch = batches.next_batch()
        batch.teacher_ptr = (batch.teacher_ptr + cfg.batch_size) % cfg.queue_size
        before = state_snapshot(student)
        with pytest.raises(C.ContractError, match="queues desynchronized"):
            K.distilled_train_step(student, batch)
        after = state_snapshot(student)
        assert all(np.array_equal(a, b) for a, b in zip(before[0], after[0]))
        assert np.array_equal(before[1], after[1]) and after[2:] == before[2:]

    def test_lambda_zero_bitwise_equals_plain(self, tmp_path):
        student_a, _, batches_a = build_pair(tmp_path, lam=0.0)
        for _ in range(5):
            K.distilled_train_step(student_a, batches_a.next_batch())

        cfg = toy_cfg(lam=0.0, steps=5)
        student_b = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
        batches_b = P.PreparedBatches(toy_dataset(), cfg)
        C.warm_up_queue(student_b, batches_b)
        for _ in range(5):
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

    def test_self_teacher_gives_zero_distillation(self, tmp_path):
        student, teacher, batches = build_pair(tmp_path)
        for _ in range(5):
            teacher.query.copy_from(student.query)
            teacher.key.copy_from(student.key)
            np.copyto(teacher.queue.rows, student.queue.rows)
            teacher.queue.ptr = student.queue.ptr
            res = K.distilled_train_step(student, batches.next_batch())
            assert res.l_dis < 1e-10

    def test_total_is_weighted_sum(self, tmp_path):
        student, teacher, batches = build_pair(tmp_path, lam=5.0)
        res = K.distilled_train_step(student, batches.next_batch())
        assert abs(res.total - (res.l_con + 5.0 * res.l_dis)) <= 1e-12

    def test_queue_pointers_stay_synchronized(self, tmp_path):
        student, teacher, batches = build_pair(tmp_path)
        for _ in range(4):
            K.distilled_train_step(student, batches.next_batch())
            assert student.queue.ptr == teacher.queue.ptr

    def test_desynchronized_queues_rejected(self, tmp_path):
        student, teacher, batches = build_pair(tmp_path)
        teacher.queue.push(teacher.queue.rows[: student.cfg.batch_size].copy())
        with pytest.raises(C.ContractError, match="desynchronized"):
            K.distilled_train_step(student, batches.next_batch())

    def test_teacher_receives_no_gradient(self, tmp_path):
        student, teacher, batches = build_pair(tmp_path)
        before = {
            n: t.data.copy()
            for ps in (teacher.query.backbone, teacher.query.head)
            for n, t in ps.items()
        }
        for _ in range(3):
            K.distilled_train_step(student, batches.next_batch())
        for ps in (teacher.query.backbone, teacher.query.head):
            for n, t in ps.items():
                assert np.array_equal(t.data, before[n])
                assert t.grad is None or np.all(t.grad == 0.0)


@pytest.fixture(scope="module")
def shared_teacher(tmp_path_factory):
    return train_teacher(tmp_path_factory.mktemp("teacher"), toy_cfg(steps=5))


@pytest.mark.parametrize("m", [0.0, 0.999])
@pytest.mark.parametrize("lam", [0.0, 100.0])
@pytest.mark.parametrize("distill_tau", [1e-4, 1e-3, 10.0])
@pytest.mark.parametrize("tau", [1e-4, 1e-3, 10.0])
def test_losses_and_parameters_finite_across_accepted_range(shared_teacher, tau, distill_tau, lam, m):
    cfg = toy_cfg(tau=tau, distill_tau=distill_tau, lam=lam, m=m, steps=4)
    student, teacher, batches = pair_from(shared_teacher, cfg)
    for _ in range(4):
        res = K.distilled_train_step(student, batches.next_batch())
        assert all(math.isfinite(v) for v in (res.l_con, res.l_dis, res.total))
    for enc in (student.query, student.key):
        for ps in (enc.backbone, enc.head):
            for name, t in ps.items():
                assert np.isfinite(t.data).all(), name
    assert np.isfinite(student.queue.rows).all()


def state_snapshot(state):
    params = [
        t.data.copy()
        for enc in (state.query, state.key)
        for ps in (enc.backbone, enc.head)
        for _, t in ps.items()
    ]
    return params, state.queue.rows.copy(), state.queue.ptr, state.step_count


class TestNonFiniteLoss:
    def test_non_finite_kl_raises_before_any_update(self, tmp_path):
        student, teacher, batches = build_pair(tmp_path)
        K.distilled_train_step(student, batches.next_batch())
        # One NaN teacher key makes every teacher log-probability NaN.
        teacher.queue.rows[0] = np.nan
        before = state_snapshot(student)
        with pytest.raises(C.NonFiniteLossError, match=r"^l_dis is nan at step 1$"):
            K.distilled_train_step(student, batches.next_batch())
        after = state_snapshot(student)
        for a, b in zip(before[0], after[0]):
            assert np.array_equal(a, b)
        assert np.array_equal(before[1], after[1])
        assert after[2:] == before[2:]
        assert student.step_count == 1
