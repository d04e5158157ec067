"""Feature extraction modes, linear probe, metrics, sweeps."""

import os
from dataclasses import replace

import numpy as np
import pytest

from distill_ssl import contrastive as C
from distill_ssl import eval as E
from distill_ssl import pipeline as P
from distill_ssl import tensor as T
from distill_ssl.augment import AugmentConfig, resize_to
from distill_ssl.data import generate_synthetic_dataset, load_dataset, save_dataset, target_spec
from distill_ssl.rng import Rng

from digests import sha256_of
from procs import assert_no_child
from reads import assert_no_read_covers_every_row, holds_open, log_row_reads, row_reads

TOY_ENC = C.EncoderConfig(conv_channels=(4, 6), d_backbone=12, d=8, input_size=(12, 12))


def toy_cfg(**overrides):
    base = dict(
        batch_size=8,
        queue_size=16,
        steps=3,
        seed=7,
        augment=AugmentConfig(output_size=(12, 12), noise_sigma=0.01),
    )
    base.update(overrides)
    return C.TrainConfig(**base)


def toy_dataset(seed=3, per_phase=16):
    return generate_synthetic_dataset(target_spec(4, per_phase, (12, 12)), seed)


def per_frame_resize_features(enc, frames):
    """Every frame through resize_to, then one backbone pass: the unconditional path."""
    stacked = np.stack([resize_to(f, enc.cfg.input_size) for f in frames])
    with T.no_grad():
        return C.forward_backbone(enc, T.constant(C.center_input(stacked))).data


def probe_objective_curve(fs, cfg):
    """The probe's objective, cross-entropy plus L2 term, at iterates 0..cfg.steps.

    A fit of k steps reproduces the k-th iterate of a longer fit bitwise,
    so iterate k comes from ``fit_linear_probe`` at ``steps=k``.
    """
    subset = E.stratified_indices(fs.labels, cfg.label_fraction, cfg.seed)
    x, y = fs.features[subset], fs.labels[subset]
    curve = []
    for k in range(cfg.steps + 1):
        probe = E.fit_linear_probe(fs, replace(cfg, steps=k))
        _, log_p = T.softmax_and_log(x @ probe.weight + probe.bias)
        ce = float(-log_p[np.arange(y.size), y].mean())
        curve.append(ce + 0.5 * cfg.weight_decay * float((probe.weight**2).sum()))
    return np.array(curve)


def reference_fit(fs, cfg, num_classes):
    """The probe's fit as a row-major loop: weights D x classes, a separate
    bias, and the residual transposed samples-major for each gradient."""
    subset = E.stratified_indices(fs.labels, cfg.label_fraction, cfg.seed)
    x, y = fs.features[subset], fs.labels[subset]
    n = x.shape[0]
    onehot = np.zeros((num_classes, n))
    onehot[y, np.arange(n)] = 1.0
    w, b = np.zeros((x.shape[1], num_classes)), np.zeros(num_classes)
    for _ in range(cfg.steps):
        z = E._softmax_class_major((x @ w).T + b[:, None])
        d = np.ascontiguousarray(((z - onehot) / n).T)
        w -= cfg.lr * (x.T @ d + cfg.weight_decay * w)
        b -= cfg.lr * d.sum(axis=0)
    return E.LinearProbe(w, b)


def query_encoder(path):
    (enc,) = C.load_encoders(path, 1, ("query",))
    return enc


def transfer_state(path, cfg):
    """A student whose query and key encoders start as the checkpoint's."""
    return C.MoCoState(*C.load_encoders(path, 1), C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg)


@pytest.fixture(scope="module")
def ckpts(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpts")
    run_a = P.pretrain(toy_dataset(), TOY_ENC, toy_cfg())
    C.save_model(run_a.state, root / "a")
    run_b = P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(seed=9))
    C.save_model(run_b.state, root / "b")
    return root / "a", root / "b"


class TestExtractFeatures:
    def test_concatenation_dimension(self, ckpts):
        a, b = (query_encoder(p) for p in ckpts)
        data = toy_dataset().subset(slice(6))
        fs = E.extract_features(a, b, data, "concatenation")
        assert fs.features.shape == (6, 2 * TOY_ENC.d_backbone)

    def test_addition_with_identical_encoders_doubles(self, ckpts):
        a = query_encoder(ckpts[0])
        data = toy_dataset().subset(slice(5))
        single = E.extract_features(a, None, data, "student")
        double = E.extract_features(a, a, data, "addition")
        assert np.array_equal(double.features, 2.0 * single.features)

    def test_deterministic(self, ckpts):
        a = query_encoder(ckpts[0])
        data = toy_dataset().subset(slice(5))
        x = E.extract_features(a, None, data, "student").features
        y = E.extract_features(a, None, data, "student").features
        assert np.array_equal(x, y)

    def test_features_are_backbone_dimension(self, ckpts):
        a = query_encoder(ckpts[0])
        data = toy_dataset().subset(slice(4))
        fs = E.extract_features(a, None, data, "student")
        assert fs.features.shape == (4, TOY_ENC.d_backbone)

    def test_unknown_mode_rejected(self, ckpts):
        a = query_encoder(ckpts[0])
        with pytest.raises(ValueError, match="unknown mode"):
            E.extract_features(a, None, toy_dataset(), "blend")

    def test_missing_encoder_rejected(self, ckpts):
        a = query_encoder(ckpts[0])
        with pytest.raises(C.ContractError):
            E.extract_features(a, None, toy_dataset(), "addition")

    def test_addition_with_mismatched_dims_rejected_before_any_backbone_pass(self, ckpts):
        a = query_encoder(ckpts[0])
        narrow = C.EncoderConfig(conv_channels=(4, 6), d_backbone=10, d=8, input_size=(12, 12))
        b = C.init_encoder(narrow, Rng(0))
        data = toy_dataset().subset(slice(3))
        calls = []

        def counting(enc, dataset):
            calls.append(enc.cfg.d_backbone)
            return E._backbone_features(enc, dataset)

        with pytest.raises(C.ContractError, match="matching feature dims, got 10 and 12"):
            E.extract_features(a, b, data, "addition", backbone=counting)
        assert calls == []


class TestResize:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_other_size_frames_equal_per_frame_resize(self, channels, monkeypatch, tmp_path):
        enc_cfg = C.EncoderConfig(in_channels=channels, conv_channels=(4, 6), d_backbone=12, d=8,
                                  input_size=(12, 12))
        enc = C.init_encoder(enc_cfg, Rng(channels))
        spec = target_spec(4, 20, (16, 20))  # 80 frames: batches of 64 and 16
        data = generate_synthetic_dataset(replace(spec, channels=channels), 5)
        want = per_frame_resize_features(enc, data.frames)
        calls = []

        def counted_resize(px, size):
            calls.append(px.shape)
            return resize_to(px, size)

        monkeypatch.setattr(E, "resize_to", counted_resize)
        log_row_reads(monkeypatch, tmp_path / "reads")
        fs = E.extract_features(enc, None, data, "student")
        # each batch is read and resized as its turn comes, in one call each
        assert calls == [(64, channels, 16, 20), (16, channels, 16, 20)]
        assert_no_read_covers_every_row(tmp_path / "reads", worker_only=False)
        assert fs.features.shape == (80, enc_cfg.d_backbone)
        assert np.array_equal(fs.features, want)
        assert np.array_equal(fs.labels, data.labels)

    @pytest.mark.parametrize("size", [(12, 12), (23, 29)], ids=["down", "up"])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_stack_resize_equals_per_frame_calls_bitwise(self, channels, size):
        frames = np.random.default_rng(channels).uniform(size=(3, channels, 16, 20))
        got = resize_to(frames, size)
        expected = np.stack([resize_to(f, size) for f in frames])
        assert got.shape == (3, channels, *size)
        assert got.tobytes() == expected.tobytes()

    def test_equal_size_frames_skip_resize_bitwise(self, ckpts, monkeypatch):
        a = query_encoder(ckpts[0])
        data = toy_dataset().subset(slice(10))
        expected = per_frame_resize_features(a, data.frames)

        def no_resize(*args):
            raise AssertionError("resize_to called at equal size")

        monkeypatch.setattr(E, "resize_to", no_resize)
        assert np.array_equal(E.extract_features(a, None, data, "student").features, expected)


class TestLinearProbe:
    def separable_features(self, n_per_class=30, k=3, d=6, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.eye(k, d) * 5.0
        feats = np.concatenate(
            [centers[c] + rng.normal(scale=0.1, size=(n_per_class, d)) for c in range(k)]
        )
        labels = np.repeat(np.arange(k), n_per_class)
        return E.FeatureSet(feats, labels)

    def test_separable_reaches_full_training_accuracy(self):
        fs = self.separable_features()
        probe = E.fit_linear_probe(fs, E.ProbeConfig(lr=0.5, steps=200, label_fraction=1.0))
        assert (probe.predict(fs.features) == fs.labels).mean() == 1.0

    def test_full_fraction_uses_every_row_once(self):
        labels = np.repeat(np.arange(3), 10)
        idx = E.stratified_indices(labels, 1.0, seed=5)
        assert np.array_equal(idx, np.arange(30))

    def test_stratified_counts_are_ceil(self):
        labels = np.array([0] * 10 + [1] * 7 + [2] * 3)
        idx = E.stratified_indices(labels, 0.34, seed=1)
        chosen = labels[idx]
        assert (chosen == 0).sum() == 4  # ceil(3.4)
        assert (chosen == 1).sum() == 3  # ceil(2.38)
        assert (chosen == 2).sum() == 2  # ceil(1.02)

    def test_same_config_identical_weights_bitwise(self):
        fs = self.separable_features()
        cfg = E.ProbeConfig(lr=0.3, steps=50, label_fraction=0.5, seed=3)
        a = E.fit_linear_probe(fs, cfg)
        b = E.fit_linear_probe(fs, cfg)
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)

    def test_absent_class_raises_sampling_error(self):
        feats = np.zeros((10, 4))
        labels = np.array([0] * 10)
        fs = E.FeatureSet(feats, labels)
        with pytest.raises(E.SamplingError):
            E.fit_linear_probe(fs, E.ProbeConfig(label_fraction=0.5), num_classes=2)

    def test_loss_non_increasing_at_small_lr(self):
        fs = self.separable_features(seed=4)
        curve = probe_objective_curve(fs, E.ProbeConfig(lr=0.01, steps=120, label_fraction=1.0))
        diffs = np.diff(curve)
        assert (diffs <= 1e-12).all()

    def test_loss_non_increasing_on_backbone_features(self, ckpts):
        enc = query_encoder(ckpts[0])
        dataset = toy_dataset(per_phase=10)
        fs = E.extract_features(enc, None, dataset, "student")
        curve = probe_objective_curve(fs, E.ProbeConfig(lr=0.01, steps=150, label_fraction=1.0))
        assert (np.diff(curve) <= 1e-12).all()

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            E.ProbeConfig(label_fraction=0.0)

    @pytest.mark.parametrize("field, value", (("steps", -1), ("weight_decay", -1e-4)))
    def test_negative_steps_or_weight_decay_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            E.ProbeConfig(**{field: value})
        E.ProbeConfig(**{field: 0})  # the boundary itself is accepted

    @pytest.mark.parametrize("field, value", (("lr", -1.0), ("lr", np.nan), ("lr", np.inf),
                                              ("weight_decay", np.nan), ("weight_decay", np.inf)))
    def test_negative_or_non_finite_rate_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            E.ProbeConfig(**{field: value})

    def test_bias_takes_no_weight_decay(self):
        # zero features leave the bias gradient independent of the weights;
        # unbalanced classes make it move
        fs = E.FeatureSet(np.zeros((20, 5)), np.repeat(np.arange(4), (2, 4, 6, 8)))
        decayed = E.fit_linear_probe(fs, E.ProbeConfig(weight_decay=10.0, steps=50))
        free = E.fit_linear_probe(fs, E.ProbeConfig(weight_decay=0.0, steps=50))
        assert np.array_equal(decayed.bias, free.bias) and np.abs(free.bias).min() > 0
        assert (decayed.weight == 0).all() and (free.weight == 0).all()

    def test_diverged_fit_raises_instead_of_scoring(self):
        # a finite rate so large that the weights overflow to inf, then NaN
        with pytest.raises(C.DivergenceError, match="not finite after 300 steps at lr 1e"):
            E.fit_linear_probe(self.separable_features(), E.ProbeConfig(lr=1e200))


@pytest.fixture(scope="module")
def pinned_features(ckpts):
    """Student and concatenation features of a toy 4-class set."""
    a, b = (query_encoder(p) for p in ckpts)
    data = toy_dataset(per_phase=32)
    return {"student": E.extract_features(a, None, data, "student"),
            "concatenation": E.extract_features(a, b, data, "concatenation")}


# sha256 of the weight and bias bytes of the default probe's fits at seeds 0,
# 1 and 2, taken with numpy 2.4.6 on x86-64; a change that keeps every bit
# keeps these, as it keeps the sweep's rows below.
PINNED_PROBES = {
    ("student", 0.05):
        "510fd9ff220b2b7c01062a640ff671f62902536de5d2985bf95ef11fb2c3962e",
    ("student", 0.1):
        "368a8a3749886b6c2a838cd56979bad0c67d019ffa2e6658a1b6e71f6622d623",
    ("student", 0.5):
        "921d927e9f8a962eae6f861dc94ff1a5868596f1345dbaba59d690c91644c795",
    ("student", 1.0):
        "c3ce83ad39c4373b8c36ef4bc39e7da86e37486e7404c9e1436ddb7927f31afc",
    ("concatenation", 0.05):
        "9797b36b4f7fbe7a6337f6d91277eba03874efe5f848585258640f1e09846dec",
    ("concatenation", 0.1):
        "a1909147212762372e1ec09e390e8965e5f8982efaa73e884d58a65a0bb6a001",
    ("concatenation", 0.5):
        "59fdad95e1e864a44d2871e9434b0b51e22f4041e6152fc1f2ba9202108cbe92",
    ("concatenation", 1.0):
        "b2f64ae7dcd35c6564b5b003aef95b1c3bb1792c93e0f146e65a45369fac5ddf",
}
PINNED_SWEEP_ROWS = "0331f1b86867f65b8c674d4b52e43f689f2137d4d6af9c214c3e89653497adc0"


class TestProbeOutputsPinned:
    @pytest.mark.parametrize("mode, fraction", sorted(PINNED_PROBES))
    def test_fits_pinned(self, pinned_features, mode, fraction):
        fits = [E.fit_linear_probe(pinned_features[mode], E.ProbeConfig(label_fraction=fraction,
                                                                        seed=seed), 4)
                for seed in (0, 1, 2)]
        assert sha256_of(*(a for fit in fits for a in (fit.weight, fit.bias))) == \
            PINNED_PROBES[mode, fraction]

    @pytest.mark.parametrize("weight_decay", (E.ProbeConfig.weight_decay, 0.05))
    @pytest.mark.parametrize("mode, fraction", sorted(PINNED_PROBES))
    def test_fits_match_the_row_major_reference(self, pinned_features, mode, fraction,
                                                weight_decay):
        fs = pinned_features[mode]
        for seed in (0, 1, 2):
            cfg = E.ProbeConfig(label_fraction=fraction, seed=seed, weight_decay=weight_decay)
            fit, ref = E.fit_linear_probe(fs, cfg, 4), reference_fit(fs, cfg, 4)
            assert np.abs(fit.weight - ref.weight).max() <= 1e-12
            assert np.abs(fit.bias - ref.bias).max() <= 1e-12
            assert np.array_equal(fit.predict(fs.features), ref.predict(fs.features))

    def test_sweep_rows_pinned(self, ckpts, tmp_path):
        a, b = (query_encoder(p) for p in ckpts)
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=32), 0.5, seed=0)
        encoders = [E.SweepEncoder("plain", "student", a),
                    E.SweepEncoder("concatenation", "concatenation", a, b)]
        rows, _ = E.label_efficiency_sweep(encoders, [0.05, 0.1, 0.5, 1.0], [0, 1, 2],
                                           train_set, test_set, 4)
        E.write_results_csv(rows, tmp_path / "metrics.csv")
        assert sha256_of((tmp_path / "metrics.csv").read_bytes()) == PINNED_SWEEP_ROWS


class TestPhaseMetrics:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        m = E.compute_phase_metrics(labels, labels, 3)
        assert m.accuracy == m.precision == m.recall == m.jaccard == 1.0

    def test_all_predictions_one_class(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        preds = np.zeros(8, dtype=int)
        m = E.compute_phase_metrics(preds, labels, 2)
        assert m.accuracy == 0.5
        assert m.recall == 0.5
        assert m.jaccard == 0.25
        # class 1 has no predictions: undefined precision scored 0
        assert m.precision == 0.25

    def test_three_class_confusion_hand_case(self):
        # rows true, cols predicted: [[2,1,0],[0,2,0],[1,0,2]]
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        preds = np.array([0, 0, 1, 1, 1, 0, 2, 2])
        m = E.compute_phase_metrics(preds, labels, 3)
        assert m.accuracy == 6 / 8
        assert abs(m.precision - (2 / 3 + 2 / 3 + 1.0) / 3) <= 1e-12
        assert abs(m.recall - (2 / 3 + 1.0 + 2 / 3) / 3) <= 1e-12
        assert abs(m.jaccard - (0.5 + 2 / 3 + 2 / 3) / 3) <= 1e-12

    def test_vacuous_class_excluded(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 0, 1, 1])
        m = E.compute_phase_metrics(preds, labels, 3)
        # class 2 never appears: excluded, so the means stay 1 (scored, they would be 2/3)
        assert m.precision == m.recall == m.jaccard == 1.0

    def test_jaccard_bounded_by_precision_and_recall_per_class(self):
        # tp/(tp+fp+fn) <= tp/(tp+fp) and <= tp/(tp+fn) for every included
        # class (an undefined precision or recall means tp = 0), so for the means too
        rng = np.random.default_rng(0)
        for _ in range(50):
            labels = rng.integers(0, 4, size=40)
            preds = rng.integers(0, 4, size=40)
            m = E.compute_phase_metrics(preds, labels, 4)
            assert m.jaccard <= m.precision + 1e-12
            assert m.jaccard <= m.recall + 1e-12

    def test_accuracy_invariant_under_consistent_relabeling(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=30)
        preds = rng.integers(0, 3, size=30)
        base = E.compute_phase_metrics(preds, labels, 3).accuracy
        perm = np.array([2, 0, 1])
        permuted = E.compute_phase_metrics(perm[preds], perm[labels], 3).accuracy
        assert base == permuted

    def test_length_mismatch_rejected(self):
        with pytest.raises(C.ContractError):
            E.compute_phase_metrics(np.zeros(3, int), np.zeros(4, int), 2)


class TestSweep:
    def test_row_count_and_degenerate_sweep(self, ckpts):
        a = query_encoder(ckpts[0])

        def splits():  # a sweep takes its splits' frames over: one fresh pair per call
            return E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)

        encoders = [E.SweepEncoder("a", "student", student=a)]
        probe = E.ProbeConfig(lr=0.5, steps=40)
        rows, summary = E.label_efficiency_sweep(
            encoders, [0.5, 1.0], [0, 1, 2], *splits(), 4, probe
        )
        # every seed draws the whole split at fraction 1.0: one probe there, seed 0's
        assert [(r["fraction"], r["seed"]) for r in rows] == [(0.5, 0), (0.5, 1), (0.5, 2),
                                                              (1.0, 0)]
        assert [summary["a"][f]["seeds"] for f in ("0.5", "1.0")] == [3, 1]
        # degenerate sweep equals a direct probe run
        single_rows, _ = E.label_efficiency_sweep(encoders, [1.0], [0], *splits(), 4, probe)
        train_set, test_set = splits()
        ftr = E.extract_features(a, None, train_set, "student")
        fte = E.extract_features(a, None, test_set, "student")
        model = E.fit_linear_probe(ftr, E.ProbeConfig(lr=0.5, steps=40, label_fraction=1.0, seed=0), 4)
        direct = E.compute_phase_metrics(model.predict(fte.features), fte.labels, 4)
        assert single_rows[0]["accuracy"] == direct.accuracy

    def test_shared_encoders_run_once_per_split_with_per_arm_rows(self, ckpts, monkeypatch):
        a, b = query_encoder(ckpts[0]), query_encoder(ckpts[1])
        a_again = query_encoder(ckpts[0])  # equal weights, another object
        arms = [("teacher", "teacher", None, b), ("plain", "student", a, None),
                ("addition", "addition", a, b), ("concatenation", "concatenation", a, b),
                ("initialization", "student", a_again, None)]
        encoders = [E.SweepEncoder(*arm) for arm in arms]
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        probe = E.ProbeConfig(lr=0.5, steps=40)
        fractions, seeds = [0.5, 1.0], [0, 1, 2]
        assert len({E.stratified_indices(train_set.labels, 0.5, s).tobytes() for s in seeds}) == 3

        oracle = []  # one row per (arm, fraction, seed), every seed fitted
        for name, mode, student, teacher in arms:
            ftr = E.extract_features(student, teacher, train_set, mode)
            fte = E.extract_features(student, teacher, test_set, mode)
            for fraction in fractions:
                for seed in seeds:
                    cfg = replace(probe, label_fraction=fraction, seed=seed)
                    model = E.fit_linear_probe(ftr, cfg, 4)
                    m = E.compute_phase_metrics(model.predict(fte.features), fte.labels, 4)
                    oracle.append({"encoder": name, "mode": mode, "fraction": fraction,
                                   "seed": seed, **vars(m)})
        # at fraction 1.0 the seeds share one subset, so only the first one's row stays
        kept = [row for row in oracle if row["fraction"] < 1.0 or row["seed"] == seeds[0]]

        # the passes and every arm's extraction run in this process, every
        # pass before the first fit
        events, original, extract, fit = [], E.forward_backbone, E.extract_features, \
            E.fit_linear_probe

        def counted(enc, x):
            events.append(("pass", os.getpid(), id(enc), x.data.shape[0]))
            return original(enc, x)

        def extracting(*args):
            events.append(("extract", os.getpid()))
            return extract(*args)

        def fitting(fs, cfg, num_classes):
            events.append(("fit", cfg.label_fraction, cfg.seed))
            return fit(fs, cfg, num_classes)

        monkeypatch.setattr(E, "forward_backbone", counted)
        monkeypatch.setattr(E, "extract_features", extracting)
        monkeypatch.setattr(E, "fit_linear_probe", fitting)
        rows, _ = E.label_efficiency_sweep(encoders, fractions, seeds, train_set, test_set, 4,
                                           probe)
        passes = [event[1:] for event in events if event[0] == "pass"]
        extractions = [event[1] for event in events if event[0] == "extract"]
        fits = [event[1:] for event in events if event[0] == "fit"]
        assert rows == kept
        assert fits == [(r["fraction"], r["seed"]) for r in rows]  # 3 + 1 per arm
        assert len(rows) == len(arms) * (3 + 1)
        assert len(extractions) == 2 * len(arms)  # one per (arm, split)
        assert set(extractions) | {pid for pid, _, _ in passes} == {os.getpid()}
        first_fit = [event[0] for event in events].index("fit")
        assert "pass" not in [event[0] for event in events[first_fit:]]
        # one batch per split here: a, b and a_again each run once on train and once on test
        assert len(train_set) <= 64 and len(test_set) <= 64
        assert sorted(p[1:] for p in passes) == sorted((id(e), len(s)) for e in (a, b, a_again)
                                                       for s in (train_set, test_set))

    def test_a_seed_that_redraws_an_earlier_subset_is_dropped_below_fraction_one(
        self, ckpts, monkeypatch
    ):
        # 3 training frames per class, 2 of them drawn at fraction 0.5
        a = query_encoder(ckpts[0])
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=6), 0.5, seed=0)
        subsets = {s: E.stratified_indices(train_set.labels, 0.5, s).tobytes() for s in (5, 6, 7)}
        assert subsets[6] == subsets[7] != subsets[5]
        fits, fit = [], E.fit_linear_probe

        def fitting(fs, cfg, num_classes):
            fits.append(cfg.seed)
            return fit(fs, cfg, num_classes)

        monkeypatch.setattr(E, "fit_linear_probe", fitting)
        rows, summary = E.label_efficiency_sweep([E.SweepEncoder("a", "student", student=a)],
                                                 [0.5], [7, 5, 6], train_set, test_set, 4,
                                                 E.ProbeConfig(lr=0.5, steps=40))
        # seed 6 repeats seed 7's subset, which comes first in seed order
        assert [row["seed"] for row in rows] == fits == [7, 5]
        assert summary["a"]["0.5"]["seeds"] == 2

    def test_a_failing_backbone_raises_its_own_error_before_any_fit(self, ckpts, monkeypatch):
        a = query_encoder(ckpts[0])
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        fits = []

        def broken(enc, x):
            raise ValueError("no features today")

        monkeypatch.setattr(E, "forward_backbone", broken)
        monkeypatch.setattr(E, "fit_linear_probe", lambda *args: fits.append(args))
        with pytest.raises(ValueError, match="no features today"):
            E.label_efficiency_sweep([E.SweepEncoder("a", "student", student=a)], [1.0], [0],
                                     train_set, test_set, 4)
        assert fits == []
        assert_no_child()

    def test_probe_error_mid_sweep_propagates_and_leaves_no_child(self, ckpts, monkeypatch):
        a, b = query_encoder(ckpts[0]), query_encoder(ckpts[1])
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        real, fits = E.fit_linear_probe, []

        def fails_at_fit_3(fs, cfg, num_classes=None):
            fits.append(cfg)
            if len(fits) == 3:
                raise E.SamplingError("classes [3] absent from probe subset")
            return real(fs, cfg, num_classes)

        monkeypatch.setattr(E, "fit_linear_probe", fails_at_fit_3)
        arms = [E.SweepEncoder("a", "student", student=a), E.SweepEncoder("b", "student", student=b)]
        with pytest.raises(E.SamplingError, match="absent"):
            E.label_efficiency_sweep(arms, [0.5, 1.0], [0], train_set, test_set, 4,
                                     E.ProbeConfig(steps=5))
        assert len(fits) == 3  # the second arm's first fit
        assert_no_child()

    @pytest.mark.parametrize("arm, error, match", (
        (lambda a, narrow: E.SweepEncoder("a", "teacher", teacher=a), ValueError,
         r"repeated: \['a'\]"),
        (lambda a, narrow: E.SweepEncoder("b", "blend", student=a), ValueError, "unknown mode"),
        (lambda a, narrow: E.SweepEncoder("b", "addition", student=a), C.ContractError,
         "'addition' needs teacher parameters"),
        (lambda a, narrow: E.SweepEncoder("b", "addition", a, narrow), C.ContractError,
         "matching feature dims, got 10 and 12"),
    ), ids=("repeated-name", "unknown-mode", "missing-encoder", "unequal-addition-widths"))
    def test_arms_refused_before_any_backbone_pass(self, ckpts, monkeypatch, arm, error,
                                                    match):
        a = query_encoder(ckpts[0])
        narrow = C.init_encoder(replace(TOY_ENC, d_backbone=10), Rng(0))
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        passes, fits = [], []
        monkeypatch.setattr(E, "forward_backbone", lambda *args: passes.append(args))
        monkeypatch.setattr(E, "fit_linear_probe", lambda *args: fits.append(args))
        # the bad arm comes last: a check made only as the sweep reaches it would pass arm "a"
        arms = [E.SweepEncoder("a", "student", student=a), arm(a, narrow)]
        with pytest.raises(error, match=match):
            E.label_efficiency_sweep(arms, [1.0], [0], train_set, test_set, 4)
        assert passes == fits == []
        assert_no_child()

    def test_a_fraction_out_of_range_is_refused_before_any_backbone_pass(self, ckpts,
                                                                         monkeypatch):
        a = query_encoder(ckpts[0])
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        passes = []
        monkeypatch.setattr(E, "forward_backbone", lambda *args: passes.append(args))
        with pytest.raises(ValueError, match=r"label_fraction must be in \(0, 1\], got 1.5"):
            E.label_efficiency_sweep([E.SweepEncoder("a", "student", student=a)], [1.0, 1.5],
                                     [0], train_set, test_set, 4)
        assert passes == []
        assert train_set.rows(slice(1)).shape[0] == 1  # not released

    def test_the_sweep_process_holds_no_frames_by_its_first_fit(self, ckpts, tmp_path,
                                                                 monkeypatch):
        # the splits read the loaded blob, as the CLI makes them; the sweep reads
        # each split's rows in 64-row batches, once per encoder, and closes both
        # handles before its first fit
        a, b = query_encoder(ckpts[0]), query_encoder(ckpts[1])
        save_dataset(toy_dataset(per_phase=40), tmp_path / "d")
        with load_dataset(tmp_path / "d")[0] as loaded:
            train_set, test_set = E.split_dataset(loaded, 0.5, seed=0)
        log_row_reads(monkeypatch, tmp_path / "reads")
        real, held = E.fit_linear_probe, []

        def fit(*args):
            held.append(holds_open(tmp_path / "d.bin"))
            return real(*args)

        monkeypatch.setattr(E, "fit_linear_probe", fit)
        arms = [E.SweepEncoder("plain", "student", student=a),
                E.SweepEncoder("addition", "addition", a, b)]
        rows, _ = E.label_efficiency_sweep(arms, [1.0], [0, 1], train_set, test_set, 4,
                                           E.ProbeConfig(steps=5))
        assert len(rows) == 2 and held == [False] * 2  # fraction 1.0: one probe per arm
        # a, then b (the addition arm's first encoder), on 80-row train and test splits
        assert row_reads(tmp_path / "reads") == [(os.getpid(), n, 160) for _ in range(4)
                                                 for n in (64, 16)]
        assert train_set.labels.shape == test_set.labels.shape == (80,)
        for split in (train_set, test_set):
            with pytest.raises(RuntimeError, match="frames were taken over by a stage"):
                E.extract_features(a, None, split, "student")
        assert_no_child()

    def test_split_is_stratified_and_deterministic(self):
        dataset = toy_dataset(per_phase=12)
        a1, b1 = E.split_dataset(dataset, 0.5, seed=4)
        a2, b2 = E.split_dataset(dataset, 0.5, seed=4)
        assert np.array_equal(a1.labels, a2.labels) and np.array_equal(a1.frames, a2.frames)
        assert all((a1.labels == c).sum() == 6 for c in range(4))
        assert len(a1) + len(b1) == len(dataset)

    @pytest.mark.parametrize("holdout, counts", ((0.99, "0 train and 12 held-out"),
                                                 (0.01, "12 train and 0 held-out")))
    def test_split_that_empties_a_class_names_it(self, holdout, counts):
        with pytest.raises(E.SamplingError, match=f"class 0 into {counts} frames"):
            E.split_dataset(toy_dataset(per_phase=12), holdout)

    @pytest.mark.parametrize("holdout", (0.0, 1.0, 1.5, -0.5))
    def test_split_rejects_holdout_outside_open_unit_interval(self, holdout):
        with pytest.raises(ValueError, match="holdout_fraction"):
            E.split_dataset(toy_dataset(per_phase=4), holdout)

    def test_empty_arguments_rejected(self, ckpts):
        a = query_encoder(ckpts[0])
        dataset = toy_dataset(per_phase=8)
        tr, te = E.split_dataset(dataset, 0.5, seed=0)
        with pytest.raises(ValueError):
            E.label_efficiency_sweep([], [1.0], [0], tr, te, 4)
        with pytest.raises(ValueError):
            E.label_efficiency_sweep(
                [E.SweepEncoder("a", "student", student=a)], [1.5], [0], tr, te, 4
            )


class TestInitTransfer:
    def test_parameters_copied_bitwise(self, ckpts):
        from distill_ssl.data import load_checkpoint

        named, _ = load_checkpoint(ckpts[0])
        state = transfer_state(ckpts[0], toy_cfg())
        for side, tag in ((state.query, "query"), (state.key, "key")):
            for ps, part in ((side.backbone, "backbone"), (side.head, "head")):
                for name, t in ps.items():
                    assert np.array_equal(t.data, named[f"{tag}.{part}"][name].data)

    def test_zero_step_features_match_teacher(self, ckpts):
        state = transfer_state(ckpts[0], toy_cfg())
        teacher_enc = query_encoder(ckpts[0])
        data = toy_dataset().subset(slice(6))
        a = E.extract_features(state.query, None, data, "student").features
        b = E.extract_features(teacher_enc, None, data, "student").features
        assert np.array_equal(a, b)

    def test_one_step_changes_parameters(self, ckpts):
        from distill_ssl.pipeline import PreparedBatches

        cfg = toy_cfg()
        state = transfer_state(ckpts[0], cfg)
        before = {n: t.data.copy() for n, t in state.query.head.items()}
        batches = PreparedBatches(toy_dataset(), cfg)
        C.warm_up_queue(state, batches)
        C.moco_train_step(state, batches.next_batch())
        assert any(not np.array_equal(t.data, before[n]) for n, t in state.query.head.items())


class TestEmission:
    def test_csv_json_svg_outputs(self, tmp_path, ckpts):
        a = query_encoder(ckpts[0])
        dataset = toy_dataset(per_phase=8)
        tr, te = E.split_dataset(dataset, 0.5, seed=0)
        rows, summary = E.label_efficiency_sweep(
            [E.SweepEncoder("a", "student", student=a)], [0.5, 1.0], [0],
            tr, te, 4, E.ProbeConfig(lr=0.5, steps=30),
        )
        E.write_results_csv(rows, tmp_path / "r.csv")
        E.write_summary_json(summary, tmp_path / "s.json")
        E.write_accuracy_svg(summary, tmp_path / "c.svg")
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header == "encoder,mode,fraction,seed,accuracy,precision,recall,jaccard"
        import json

        loaded = json.loads((tmp_path / "s.json").read_text())
        assert "a" in loaded and "1.0" in loaded["a"]
        svg = (tmp_path / "c.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
