"""Momentum-contrastive machinery: encoders, queue, InfoNCE, train steps."""

import math
import tracemalloc

import numpy as np
import pytest

import distill_ssl.tensor as T
from distill_ssl import contrastive as C
from distill_ssl import pipeline as P
from distill_ssl.augment import AugmentConfig
from distill_ssl.data import generate_synthetic_dataset, target_spec
from distill_ssl.rng import Rng

from digests import sha256_of

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


def toy_dataset(seed=3, phases=4, per_phase=16):
    spec = target_spec(phases, per_phase, (12, 12))
    return generate_synthetic_dataset(spec, seed)


def warmed_state(cfg=None, seed=7):
    cfg = cfg or toy_cfg()
    state = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
    batches = P.PreparedBatches(toy_dataset().frames, cfg)
    C.warm_up_queue(state, batches)
    return state, batches


def unit_rows(rng: np.random.Generator, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestEncode:
    def test_rows_unit_norm(self):
        enc = C.init_encoder(TOY_ENC, Rng(0))
        x = np.random.default_rng(1).uniform(size=(5, 1, 12, 12))
        out = C.encode(enc, x)
        norms = np.sqrt((out.data**2).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_deterministic(self):
        enc = C.init_encoder(TOY_ENC, Rng(0))
        x = np.random.default_rng(1).uniform(size=(3, 1, 12, 12))
        assert np.array_equal(C.encode(enc, x).data, C.encode(enc, x).data)

    def test_matches_manual_op_composition(self):
        enc = C.init_encoder(TOY_ENC, Rng(4))
        x = np.random.default_rng(2).uniform(size=(2, 1, 12, 12))
        got = C.encode(enc, x).data
        with T.no_grad():
            t = T.constant(C.center_input(x))
            h = T.relu(T.conv2d(t, enc.backbone["conv1.kernels"], 2, 1))
            h = T.relu(T.conv2d(h, enc.backbone["conv2.kernels"], 2, 1))
            f = T.affine(T.global_avg_pool(h), enc.backbone["fc.weight"], enc.backbone["fc.bias"])
            h2 = T.relu(T.affine(f, enc.head["fc1.weight"], enc.head["fc1.bias"]))
            manual = T.l2_normalize(T.affine(h2, enc.head["fc2.weight"], enc.head["fc2.bias"])).data
        assert np.array_equal(got, manual)

    def test_record_grads_requires_graph(self):
        enc = C.init_encoder(TOY_ENC, Rng(0))
        x = np.zeros((1, 1, 12, 12))
        with pytest.raises(T.GraphError):
            C.encode(enc, x, record_grads=True)

    def test_channel_mismatch_rejected(self):
        enc = C.init_encoder(TOY_ENC, Rng(0))
        with pytest.raises(T.ShapeError):
            C.encode(enc, np.zeros((1, 3, 12, 12)))

    def test_frozen_backbone_records_no_conv_and_head_gets_gradients(self, monkeypatch):
        enc = C.init_encoder(TOY_ENC, Rng(0))
        enc.backbone.set_frozen(True)
        recorded = []
        conv2d = T.conv2d

        def spy(*args, **kwargs):
            recorded.append(T.recording())
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(T, "conv2d", spy)
        x = np.random.default_rng(1).uniform(size=(3, 1, 12, 12))
        graph = T.Graph()
        with graph:
            out = C.encode(enc, x, record_grads=True)
            weights = T.constant(np.random.default_rng(2).normal(size=out.data.shape))
            loss = T.tensor_sum(T.multiply(out, weights))
        graph.backward(loss)
        assert recorded == [False, False]
        for _, t in enc.backbone.items():
            assert not np.any(t.grad)
        for name, t in enc.head.items():
            assert np.any(t.grad), name


class TestInitEncoder:
    def test_seeded_and_deterministic(self):
        a = C.init_encoder(TOY_ENC, Rng(9))
        b = C.init_encoder(TOY_ENC, Rng(9))
        for ps_a, ps_b in ((a.backbone, b.backbone), (a.head, b.head)):
            for name, t in ps_a.items():
                assert np.array_equal(t.data, ps_b[name].data)

    def test_fan_in_bounds(self):
        enc = C.init_encoder(TOY_ENC, Rng(1))
        k = enc.backbone["conv1.kernels"].data
        assert np.abs(k).max() <= 1.0 / math.sqrt(1 * 3 * 3)
        w = enc.head["fc1.weight"].data
        assert np.abs(w).max() <= 1.0 / math.sqrt(TOY_ENC.d_backbone)

    # sha256 of every parameter's bytes in param_shapes order at Rng(0):
    # any change to the draw order or a fan-in changes it
    @pytest.mark.parametrize(
        "cfg, digest",
        (
            (C.EncoderConfig(), "f75e5d47eb5ed12fa725ce6a1f9cf0b8a6ab377f049c103225dbfb13d0d43044"),
            (
                C.EncoderConfig(in_channels=3, conv_channels=(2, 3), kernel_size=5, d_backbone=6, d=4),
                "ec67771c5590939d133820d0342449502b6efe6140bfa5d3c2dc2b4d0969ded7",
            ),
        ),
    )
    def test_parameter_bytes_pinned(self, cfg, digest):
        enc = C.init_encoder(cfg, Rng(0))
        params = [t.data for part in cfg.param_shapes() for _, t in getattr(enc, part).items()]
        assert sha256_of(*params) == digest

    def test_param_shapes_match_declaration(self):
        enc = C.init_encoder(TOY_ENC, Rng(1))
        declared = TOY_ENC.param_shapes()
        assert enc.backbone.shapes() == declared["backbone"]
        assert enc.head.shapes() == declared["head"]


class TestMomentumUpdate:
    def test_m_one_is_identity_bitwise(self):
        key = C.init_encoder(TOY_ENC, Rng(1))
        query = C.init_encoder(TOY_ENC, Rng(2))
        before = {n: t.data.copy() for n, t in key.backbone.items()}
        C.momentum_update(key, query, 1.0)
        for n, t in key.backbone.items():
            assert np.array_equal(t.data, before[n])

    def test_m_zero_is_copy_bitwise(self):
        key = C.init_encoder(TOY_ENC, Rng(1))
        query = C.init_encoder(TOY_ENC, Rng(2))
        C.momentum_update(key, query, 0.0)
        for ps_k, ps_q in ((key.backbone, query.backbone), (key.head, query.head)):
            for n, t in ps_k.items():
                assert np.array_equal(t.data, ps_q[n].data)

    def test_scalar_formula(self):
        key = C.EncoderParams(
            T.ParamSet({"w": np.array([1.0])}), T.ParamSet({"v": np.array([1.0])}), TOY_ENC
        )
        query = C.EncoderParams(
            T.ParamSet({"w": np.array([0.0])}), T.ParamSet({"v": np.array([0.0])}), TOY_ENC
        )
        C.momentum_update(key, query, 0.999)
        assert np.allclose(key.backbone["w"].data, [0.999], atol=1e-15)

    def test_frozen_query_backbone_not_averaged(self):
        key = C.init_encoder(TOY_ENC, Rng(1))
        query = C.init_encoder(TOY_ENC, Rng(2))
        query.backbone.set_frozen(True)
        backbone = {n: t.data.copy() for n, t in key.backbone.items()}
        head = {n: t.data.copy() for n, t in key.head.items()}
        C.momentum_update(key, query, 0.9)
        for n, t in key.backbone.items():
            assert np.array_equal(t.data, backbone[n])
        for n, t in key.head.items():
            assert np.array_equal(t.data, 0.9 * head[n] + (1.0 - 0.9) * query.head[n].data)
            assert not np.array_equal(t.data, head[n])

    def test_shape_mismatch_rejected(self):
        a = C.EncoderParams(T.ParamSet({"w": np.zeros(2)}), T.ParamSet({}), TOY_ENC)
        b = C.EncoderParams(T.ParamSet({"w": np.zeros(3)}), T.ParamSet({}), TOY_ENC)
        with pytest.raises(C.ContractError):
            C.momentum_update(a, b, 0.5)


class TestKeyQueue:
    def test_ring_enumeration(self):
        queue = C.KeyQueue(4, 2)
        vecs = {name: np.array([[1.0, 0.0]]) * 0 + unit_rows(np.random.default_rng(i), (1, 2))
                for i, name in enumerate("abcdef")}
        queue.push(np.concatenate([vecs["a"], vecs["b"]]))
        queue.push(np.concatenate([vecs["c"], vecs["d"]]))
        queue.push(np.concatenate([vecs["e"], vecs["f"]]))
        expected = np.concatenate([vecs["e"], vecs["f"], vecs["c"], vecs["d"]])
        assert np.array_equal(queue.rows, expected)

    def test_full_fill_from_empty(self):
        queue = C.KeyQueue(8, 3)
        keys = unit_rows(np.random.default_rng(0), (8, 3))
        queue.push(keys)
        assert queue.warmed and np.array_equal(queue.rows, keys)

    def test_pointer_arithmetic(self):
        queue = C.KeyQueue(12, 2)
        rng = np.random.default_rng(1)
        for k in range(1, 10):
            queue.push(unit_rows(rng, (4, 2)))
            assert queue.ptr == (k * 4) % 12

    def test_non_unit_rows_rejected(self):
        queue = C.KeyQueue(4, 2)
        with pytest.raises(C.ContractError, match="unit-norm"):
            queue.push(np.full((2, 2), 0.9))

    def test_batch_must_divide_capacity(self):
        queue = C.KeyQueue(4, 2)
        with pytest.raises(C.ContractError, match="divide"):
            queue.push(unit_rows(np.random.default_rng(0), (3, 2)))

    def test_fifo_matches_independent_simulation(self):
        # Oracle: queue contents equal the most recent M pushed keys,
        # tracked with a flat list rather than ring arithmetic.
        rng = np.random.default_rng(7)
        for trial in range(100):
            m = int(rng.choice([4, 8, 12]))
            n = int(rng.choice([d for d in (1, 2, 4) if m % d == 0]))
            queue = C.KeyQueue(m, 3)
            history: list[np.ndarray] = []
            for _ in range(int(rng.integers(m // n, 4 * m // n + 1))):
                keys = unit_rows(rng, (n, 3))
                queue.push(keys)
                history.extend(keys)
            recent = history[-m:] if len(history) >= m else history
            got = {row.tobytes() for row in queue.rows if np.any(row != 0.0)}
            expected = {np.asarray(r).tobytes() for r in recent}
            assert expected <= got


class TestInfoNce:
    def test_orthogonal_queue_closed_form(self):
        for m in (1, 2, 8):
            d = m + 1
            q = np.zeros((1, d))
            q[0, 0] = 1.0
            rows = np.eye(d)[1 : m + 1]
            queue = C.KeyQueue(m, d)
            queue.push(rows)
            loss = C.info_nce_loss(T.constant(q), q, queue, tau=1.0)
            assert abs(float(loss.data) - math.log(1 + m / math.e)) <= 1e-12

    def test_uniform_similarities_give_log_m_plus_one(self):
        d, m = 6, 8
        v = np.zeros((1, d))
        v[0, 0] = 1.0
        queue = C.KeyQueue(m, d)
        queue.push(np.tile(v, (m, 1)))
        loss = C.info_nce_loss(T.constant(v), v, queue, tau=0.07)
        assert abs(float(loss.data) - math.log(m + 1)) <= 1e-12

    def test_matches_softmax_composition(self):
        rng = np.random.default_rng(3)
        n, d, m = 5, 8, 16
        q, kp = unit_rows(rng, (n, d)), unit_rows(rng, (n, d))
        queue = C.KeyQueue(m, d)
        queue.push(unit_rows(rng, (m, d)))
        loss = float(C.info_nce_loss(T.constant(q), kp, queue, tau=0.07).data)
        logits = np.concatenate([(q * kp).sum(1, keepdims=True), q @ queue.rows.T], axis=1)
        probs = T.softmax_with_temperature(T.constant(logits), 0.07).data
        assert abs(loss - float(-np.log(probs[:, 0]).mean())) <= 1e-12

    def test_loss_nonnegative_and_positive_without_domination(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q, kp = unit_rows(rng, (4, 6)), unit_rows(rng, (4, 6))
            queue = C.KeyQueue(8, 6)
            queue.push(unit_rows(rng, (8, 6)))
            loss = float(C.info_nce_loss(T.constant(q), kp, queue, tau=0.07).data)
            assert loss > 0.0

    def test_queue_permutation_invariance(self):
        rng = np.random.default_rng(9)
        q, kp = unit_rows(rng, (3, 5)), unit_rows(rng, (3, 5))
        rows = unit_rows(rng, (8, 5))
        losses = []
        for perm_seed in range(3):
            perm = np.random.default_rng(perm_seed).permutation(8)
            queue = C.KeyQueue(8, 5)
            queue.push(rows[perm])
            losses.append(float(C.info_nce_loss(T.constant(q), kp, queue, 0.07).data))
        assert max(losses) - min(losses) <= 1e-12

    def test_gradients_flow_to_query_only(self):
        rng = np.random.default_rng(10)
        q = T.parameter(unit_rows(rng, (3, 5)))
        kp = unit_rows(rng, (3, 5))
        queue = C.KeyQueue(4, 5)
        queue.push(unit_rows(rng, (4, 5)))
        rows_before = queue.rows.copy()
        graph = T.Graph()
        with graph:
            loss = C.info_nce_loss(q, kp, queue, 0.07)
        graph.backward(loss)
        assert np.any(q.grad != 0.0)
        assert np.array_equal(queue.rows, rows_before)

    def test_bad_tau_rejected(self):
        queue = C.KeyQueue(2, 2)
        queue.push(np.eye(2))
        with pytest.raises(T.ParameterError):
            C.info_nce_loss(T.constant(np.eye(2)), np.eye(2), queue, tau=0.0)


class TestMocoTrainStep:
    def test_key_params_follow_momentum_formula_exactly(self):
        state, batches = warmed_state()
        old_key = {n: t.data.copy() for n, t in state.key.head.items()}
        C.moco_train_step(state, batches.next_batch())
        m = state.cfg.m
        for n, t in state.key.head.items():
            expected = old_key[n] * m
            expected += (1.0 - m) * state.query.head[n].data
            assert np.array_equal(t.data, expected)

    def test_queue_pointer_advances_by_batch(self):
        state, batches = warmed_state()
        ptr = state.queue.ptr
        C.moco_train_step(state, batches.next_batch())
        assert state.queue.ptr == (ptr + state.cfg.batch_size) % state.cfg.queue_size
        assert state.step_count == 1

    def test_key_gradients_identically_zero_after_step(self):
        state, batches = warmed_state()
        C.moco_train_step(state, batches.next_batch())
        for ps in (state.key.backbone, state.key.head):
            for _, t in ps.items():
                assert t.grad is None or np.all(t.grad == 0.0)

    def test_queue_rows_stay_unit_norm(self):
        state, batches = warmed_state()
        for _ in range(12):
            C.moco_train_step(state, batches.next_batch())
        norms = np.sqrt((state.queue.rows**2).sum(axis=1))
        assert np.abs(norms - 1.0).max() < 1e-6

    def test_loss_decreases_on_fixed_toy_dataset(self):
        # 64-frame toy, seed 7: training signal must appear within 50 steps.
        spec = target_spec(4, 16, (12, 12))
        frames = generate_synthetic_dataset(spec, 7).frames
        cfg = toy_cfg(batch_size=16, queue_size=32, lr=0.06)
        state = C.init_moco_state(TOY_ENC, cfg, Rng(7))
        batches = P.PreparedBatches(frames, cfg)
        C.warm_up_queue(state, batches)
        losses = [C.moco_train_step(state, batches.next_batch()).l_con for _ in range(50)]
        assert np.mean(losses[-5:]) < losses[0]

    @pytest.mark.parametrize("side", [0, 1])
    def test_wrong_batch_size_rejected(self, side):
        state, batches = warmed_state()
        batch = batches.next_batch()
        views = list(batch.views)
        views[side] = views[side][:4]
        batch.views = tuple(views)
        with pytest.raises(C.ContractError, match="config says 8"):
            C.moco_train_step(state, batch)

    def test_unwarmed_queue_rejected(self):
        cfg = toy_cfg()
        state = C.init_moco_state(TOY_ENC, cfg, Rng(cfg.seed))
        batches = P.PreparedBatches(toy_dataset().frames, cfg)
        with pytest.raises(C.ContractError, match="warmed"):
            C.moco_train_step(state, batches.next_batch())

    def test_a_default_step_holds_at_most_5_mib(self):
        # backward frees each op's saved buffers once it has run, and the key
        # pass is done before the query graph opens: 7.5 MiB before, 4.6 now
        cfg = C.TrainConfig()
        state = C.init_moco_state(C.EncoderConfig(), cfg, Rng(cfg.seed))
        batches = P.PreparedBatches(generate_synthetic_dataset(target_spec(4, 40), 3).frames, cfg)
        C.warm_up_queue(state, batches)
        C.moco_train_step(state, batches.next_batch())  # every SGD velocity now exists
        batch = batches.next_batch()
        tracemalloc.start()
        try:
            C.moco_train_step(state, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_two_runs_identical_bitwise(self):
        results = []
        for _ in range(2):
            state, batches = warmed_state()
            losses = [C.moco_train_step(state, batches.next_batch()) for _ in range(5)]
            results.append((losses, {n: t.data.copy() for n, t in state.query.head.items()}))
        assert results[0][0] == results[1][0]
        for n in results[0][1]:
            assert np.array_equal(results[0][1][n], results[1][1][n])


class TestTrainConfigValidation:
    def test_queue_multiple_of_batch(self):
        with pytest.raises(T.ParameterError):
            toy_cfg(batch_size=8, queue_size=30)

    def test_parameter_ranges(self):
        with pytest.raises(T.ParameterError):
            toy_cfg(tau=0.0)
        with pytest.raises(T.ParameterError):
            toy_cfg(m=1.0)
        with pytest.raises(T.ParameterError):
            toy_cfg(lam=-0.5)
        with pytest.raises(T.ParameterError):
            toy_cfg(distill_tau=0.0)
        with pytest.raises(T.ParameterError, match="steps"):
            toy_cfg(steps=-1)
        for bad in (0, -32):
            with pytest.raises(T.ParameterError, match="batch_size"):
                toy_cfg(batch_size=bad)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(T.ParameterError, match="momentum"):
                toy_cfg(momentum=bad)
        with pytest.raises(T.ParameterError, match="weight_decay"):
            toy_cfg(weight_decay=-1e-4)
