"""Feature extraction modes, linear probe, metrics, sweeps."""

import os
import weakref
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
from distill_ssl.worker import WorkerError

from digests import sha256_of
from procs import assert_no_child, deadline
from reads import assert_no_read_covers_every_row, holds_open, log_row_reads

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


def query_encoder(path, enc_cfg):
    (enc,) = C.load_encoders(path, enc_cfg, ("query",))
    return enc


def transfer_state(path, cfg):
    """A student whose query and key encoders start as the checkpoint's."""
    return C.MoCoState(*C.load_encoders(path, TOY_ENC), C.KeyQueue(cfg.queue_size, TOY_ENC.d), cfg)


@pytest.fixture(scope="module")
def ckpts(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpts")
    run_a = P.pretrain(toy_dataset(), TOY_ENC, toy_cfg())
    P.save_model(run_a.state, root / "a")
    run_b = P.pretrain(toy_dataset(), TOY_ENC, toy_cfg(seed=9))
    P.save_model(run_b.state, root / "b")
    return root / "a", root / "b"


class TestExtractFeatures:
    def test_concatenation_dimension(self, ckpts):
        a, b = (query_encoder(p, TOY_ENC) for p in ckpts)
        data = toy_dataset().subset(slice(6))
        fs = E.extract_features(a, b, data, "concatenation")
        assert fs.features.shape == (6, 2 * TOY_ENC.d_backbone)

    def test_addition_with_identical_encoders_doubles(self, ckpts):
        a = query_encoder(ckpts[0], TOY_ENC)
        data = toy_dataset().subset(slice(5))
        single = E.extract_features(a, None, data, "student")
        double = E.extract_features(a, a, data, "addition")
        assert np.array_equal(double.features, 2.0 * single.features)

    def test_deterministic(self, ckpts):
        a = query_encoder(ckpts[0], TOY_ENC)
        data = toy_dataset().subset(slice(5))
        x = E.extract_features(a, None, data, "student").features
        y = E.extract_features(a, None, data, "student").features
        assert np.array_equal(x, y)

    def test_features_are_backbone_dimension(self, ckpts):
        a = query_encoder(ckpts[0], TOY_ENC)
        data = toy_dataset().subset(slice(4))
        fs = E.extract_features(a, None, data, "student")
        assert fs.features.shape == (4, TOY_ENC.d_backbone)

    def test_unknown_mode_rejected(self, ckpts):
        a = query_encoder(ckpts[0], TOY_ENC)
        with pytest.raises(ValueError, match="unknown mode"):
            E.extract_features(a, None, toy_dataset(), "blend")

    def test_missing_encoder_rejected(self, ckpts):
        a = query_encoder(ckpts[0], TOY_ENC)
        with pytest.raises(C.ContractError):
            E.extract_features(a, None, toy_dataset(), "addition")

    def test_addition_with_mismatched_dims_rejected(self, ckpts):
        a = query_encoder(ckpts[0], TOY_ENC)
        narrow = C.EncoderConfig(conv_channels=(4, 6), d_backbone=10, d=8, input_size=(12, 12))
        b = C.init_encoder(narrow, Rng(0))
        data = toy_dataset().subset(slice(3))
        with pytest.raises(C.ContractError, match="matching feature dims"):
            E.extract_features(a, b, data, "addition")


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
        a = query_encoder(ckpts[0], TOY_ENC)
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
        enc = query_encoder(ckpts[0], TOY_ENC)
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


@pytest.fixture(scope="module")
def pinned_features(ckpts):
    """Student and concatenation features of a toy 4-class set."""
    a, b = (query_encoder(p, TOY_ENC) for p in ckpts)
    data = toy_dataset(per_phase=32)
    return {"student": E.extract_features(a, None, data, "student"),
            "concatenation": E.extract_features(a, b, data, "concatenation")}


# sha256 of the weight and bias bytes of the default probe's fits at seeds 0,
# 1 and 2, taken with numpy 2.4.6 on x86-64; a change that keeps every bit
# keeps these, as it keeps the sweep's rows below.
PINNED_PROBES = {
    ("student", 0.05):
        "7f078c29fa0c1c94f2307a025bbb5ada59c855e4f391fd1c5fb8a229a33fe741",
    ("student", 0.1):
        "d22dd1fbdddaa38d225b3ec7733d8fa2871073279d4a67c1e330d643ff1ea949",
    ("student", 0.5):
        "8b4fc115a958090c44af388ec691b55a47cc574961fedc47fd5951c3aae06a20",
    ("student", 1.0):
        "5274d2712eef0bcbfef1a96ef178fb2233eb0f8058c8253521328a21c5bc54e4",
    ("concatenation", 0.05):
        "5791e3fa2be659c185b181ab2c89946cf6dc24a0a03fc9065a5b48b79ee1785c",
    ("concatenation", 0.1):
        "3e7f413d6b9ecd6b1152fdf796fa5a34867012a93cf25b27e28c151547cb3ece",
    ("concatenation", 0.5):
        "81f6ca4cce76f6591d52394311dabea070bdfbedae03f7c18f5e7cf61753b8ff",
    ("concatenation", 1.0):
        "14a70097395264f4b556268fb680cc63a8331e3448d723bc3680f8925e4424a1",
}
PINNED_SWEEP_ROWS = "d879e3bf1beb3eb483d8b88d3dec3c65e01d7f5d6017b1d6233e7cda51440959"


class TestProbeOutputsPinned:
    @pytest.mark.parametrize("mode, fraction", sorted(PINNED_PROBES))
    def test_fits_pinned(self, pinned_features, mode, fraction):
        fits = [E.fit_linear_probe(pinned_features[mode], E.ProbeConfig(label_fraction=fraction,
                                                                        seed=seed), 4)
                for seed in (0, 1, 2)]
        assert sha256_of(*(a for fit in fits for a in (fit.weight, fit.bias))) == \
            PINNED_PROBES[mode, fraction]

    def test_sweep_rows_pinned(self, ckpts, tmp_path):
        a, b = (query_encoder(p, TOY_ENC) for p in ckpts)
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
        a = query_encoder(ckpts[0], TOY_ENC)

        def splits():  # a sweep takes its splits' frames over: one fresh pair per call
            return E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)

        encoders = [E.SweepEncoder("a", "student", student=a)]
        probe = E.ProbeConfig(lr=0.5, steps=40)
        rows, summary = E.label_efficiency_sweep(
            encoders, [0.5, 1.0], [0, 1, 2], *splits(), 4, probe
        )
        assert len(rows) == 1 * 2 * 3
        # degenerate sweep equals a direct probe run
        single_rows, _ = E.label_efficiency_sweep(encoders, [1.0], [0], *splits(), 4, probe)
        train_set, test_set = splits()
        ftr = E.extract_features(a, None, train_set, "student")
        fte = E.extract_features(a, None, test_set, "student")
        model = E.fit_linear_probe(ftr, E.ProbeConfig(lr=0.5, steps=40, label_fraction=1.0, seed=0), 4)
        direct = E.compute_phase_metrics(model.predict(fte.features), fte.labels, 4)
        assert single_rows[0]["accuracy"] == direct.accuracy

    def test_shared_encoders_run_once_per_split_with_per_arm_rows(self, ckpts, monkeypatch):
        a, b = query_encoder(ckpts[0], TOY_ENC), query_encoder(ckpts[1], TOY_ENC)
        a_again = query_encoder(ckpts[0], TOY_ENC)  # equal weights, another object
        arms = [("teacher", "teacher", None, b), ("plain", "student", a, None),
                ("addition", "addition", a, b), ("concatenation", "concatenation", a, b),
                ("initialization", "student", a_again, None)]
        encoders = [E.SweepEncoder(*arm) for arm in arms]
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        probe = E.ProbeConfig(lr=0.5, steps=40)
        fractions, seeds = [0.5, 1.0], [0, 1]

        oracle = []
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

        # the passes and every arm's extraction run in the forked feature
        # worker, which reports each on a pipe
        report, reported = os.pipe()
        original, extract = E.forward_backbone, E.extract_features

        def counted(enc, x):
            os.write(reported, f"pass {os.getpid()} {id(enc)} {x.data.shape[0]}\n".encode())
            return original(enc, x)

        def extracting(*args):
            os.write(reported, f"extract {os.getpid()}\n".encode())
            return extract(*args)

        monkeypatch.setattr(E, "forward_backbone", counted)
        monkeypatch.setattr(E, "extract_features", extracting)
        try:
            rows, _ = E.label_efficiency_sweep(encoders, fractions, seeds, train_set, test_set, 4,
                                               probe)
        finally:
            os.close(reported)
        with os.fdopen(report) as fh:  # EOF: the reaped worker held the only other write end
            lines = [line.split() for line in fh]
        passes = [tuple(map(int, rest)) for tag, *rest in lines if tag == "pass"]
        extractions = [int(rest[0]) for tag, *rest in lines if tag == "extract"]
        assert rows == oracle
        assert len(extractions) == 2 * len(arms)  # one per (arm, split)
        pids = set(extractions) | {pid for pid, _, _ in passes}
        assert len(pids) == 1 and os.getpid() not in pids  # all in the one worker
        # one batch per split here: a, b and a_again each run once on train and once on test
        assert len(train_set) <= 128 and len(test_set) <= 128
        assert sorted(p[1:] for p in passes) == sorted((id(e), len(s)) for e in (a, b, a_again)
                                                       for s in (train_set, test_set))

    def test_failing_backbone_raises_the_workers_traceback_and_is_reaped(self, ckpts, monkeypatch):
        a = query_encoder(ckpts[0], TOY_ENC)
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)

        def broken(enc, x):
            raise ValueError("no features today")

        monkeypatch.setattr(E, "forward_backbone", broken)  # before the fork: the worker inherits it
        with deadline(5), pytest.raises(WorkerError, match="feature worker failed") as info:
            E.label_efficiency_sweep([E.SweepEncoder("a", "student", student=a)], [1.0], [0],
                                     train_set, test_set, 4)
        assert "Traceback" in str(info.value) and "ValueError: no features today" in str(info.value)
        assert_no_child()

    def test_probe_error_mid_sweep_propagates_and_reaps_the_worker(self, ckpts, monkeypatch):
        a, b = query_encoder(ckpts[0], TOY_ENC), query_encoder(ckpts[1], TOY_ENC)
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        real, fits = E.fit_linear_probe, []

        def fails_at_fit_3(fs, cfg, num_classes=None):
            fits.append(cfg)
            if len(fits) == 3:
                raise E.SamplingError("classes [3] absent from probe subset")
            return real(fs, cfg, num_classes)

        monkeypatch.setattr(E, "fit_linear_probe", fails_at_fit_3)
        arms = [E.SweepEncoder("a", "student", student=a), E.SweepEncoder("b", "student", student=b)]
        with deadline(5), pytest.raises(E.SamplingError, match="absent"):
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
    def test_arms_refused_before_the_fork(self, ckpts, monkeypatch, arm, error, match):
        a = query_encoder(ckpts[0], TOY_ENC)
        narrow = C.init_encoder(replace(TOY_ENC, d_backbone=10), Rng(0))
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        fits = []
        monkeypatch.setattr(E, "fit_linear_probe", lambda *args: fits.append(args))
        # the bad arm comes last: a check made only as the sweep reaches it would fit arm "a"
        arms = [E.SweepEncoder("a", "student", student=a), arm(a, narrow)]
        with deadline(5), pytest.raises(error, match=match):
            E.label_efficiency_sweep(arms, [1.0], [0], train_set, test_set, 4)
        assert fits == []
        assert_no_child()

    def test_taken_features_are_released_with_the_callers_reference(self, ckpts):
        a, b = query_encoder(ckpts[0], TOY_ENC), query_encoder(ckpts[1], TOY_ENC)
        train_set, test_set = E.split_dataset(toy_dataset(per_phase=12), 0.5, seed=0)
        arms = [E.SweepEncoder("plain", "student", student=a),
                E.SweepEncoder("concatenation", "concatenation", a, b)]
        with deadline(5), E._FeatureFeed(arms, (train_set, test_set)) as feed:
            for arm in arms:
                for split in (train_set, test_set):
                    fs = feed.take()
                    want = E.extract_features(arm.student, arm.teacher, split, arm.mode)
                    assert np.array_equal(fs.features, want.features)
                    assert np.array_equal(fs.labels, split.labels)
                    array, mapping = weakref.ref(fs.features), weakref.ref(fs.features.base)
                    del fs
                    assert array() is None and mapping() is None  # the feed kept no reference
        assert_no_child()

    def test_the_sweep_process_holds_no_frames_by_its_first_fit(self, ckpts, tmp_path,
                                                                 monkeypatch):
        # the splits read the loaded blob, as the CLI makes them; the sweep process
        # reads no row, and closes both handles once its feature worker has forked
        a, b = query_encoder(ckpts[0], TOY_ENC), query_encoder(ckpts[1], TOY_ENC)
        save_dataset(toy_dataset(per_phase=12), tmp_path / "d")
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
        with deadline(10):
            rows, _ = E.label_efficiency_sweep(arms, [1.0], [0, 1], train_set, test_set, 4,
                                               E.ProbeConfig(steps=5))
        assert len(rows) == 4 and held == [False] * 4
        assert_no_read_covers_every_row(tmp_path / "reads", worker_only=True)
        assert train_set.labels.shape == test_set.labels.shape == (24,)
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
        a = query_encoder(ckpts[0], TOY_ENC)
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
        teacher_enc = query_encoder(ckpts[0], TOY_ENC)
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
        a = query_encoder(ckpts[0], TOY_ENC)
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
