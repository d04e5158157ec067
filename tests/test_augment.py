"""Two-view augmentation: determinism, identity cases, statistics."""

import numpy as np
import pytest

from distill_ssl.augment import (
    AugmentConfig,
    Frame,
    crop_resize,
    gaussian_noise,
    horizontal_flip,
    photometric_jitter,
    resize_to,
    sample_view,
    sample_views,
    two_views,
    view_stream,
)
from distill_ssl.contrastive import build_views
from distill_ssl.data import Batch
from distill_ssl.rng import Rng

IDENTITY_CFG = AugmentConfig(
    crop_scale_range=(1.0, 1.0),
    flip_prob=0.0,
    brightness_delta=0.0,
    contrast_range=(1.0, 1.0),
    noise_sigma=0.0,
    output_size=(8, 8),
)


def toy_frame(seed: int = 0, c: int = 1, h: int = 8, w: int = 8) -> Frame:
    rng = np.random.default_rng(seed)
    return Frame(rng.uniform(0.0, 1.0, size=(c, h, w)))


class TestSampleView:
    def test_all_transforms_disabled_is_identity(self):
        frame = toy_frame()
        out = sample_view(frame, IDENTITY_CFG, Rng(5))
        assert np.abs(out.pixels - frame.pixels).max() <= 1e-12

    def test_same_seed_twice_is_bitwise(self):
        frame = toy_frame(1)
        cfg = AugmentConfig(output_size=(8, 8))
        a = sample_view(frame, cfg, Rng(77))
        b = sample_view(frame, cfg, Rng(77))
        assert np.array_equal(a.pixels, b.pixels)

    def test_different_seeds_differ(self):
        frame = toy_frame(1)
        cfg = AugmentConfig(output_size=(8, 8))
        a = sample_view(frame, cfg, Rng(77))
        b = sample_view(frame, cfg, Rng(78))
        assert not np.array_equal(a.pixels, b.pixels)

    def test_flip_rate_over_seeded_draws(self):
        # flips governed by one uniform per view; count over 1000 streams
        flips = 0
        for i in range(1000):
            rng = Rng(1).derive(i)
            rng.uniform()  # crop fraction
            rng.uniform()  # aspect
            # skip position draws only if the box fits; emulate by sampling the view
            frame = Frame(np.tile(np.linspace(0, 1, 16), (1, 16, 1)))
            cfg = AugmentConfig(crop_scale_range=(1.0, 1.0), flip_prob=0.5,
                                brightness_delta=0.0, contrast_range=(1.0, 1.0),
                                noise_sigma=0.0, output_size=(16, 16))
            out = sample_view(frame, cfg, Rng(1).derive(i))
            if not np.array_equal(out.pixels, frame.pixels):
                flips += 1
        assert 450 <= flips <= 550

    def test_output_size_contract(self):
        frame = toy_frame(2, h=11, w=17)
        cfg = AugmentConfig(output_size=(5, 9))
        out = sample_view(frame, cfg, Rng(3))
        assert out.pixels.shape == (1, 5, 9)

    def test_values_stay_in_unit_interval(self):
        frame = toy_frame(4)
        cfg = AugmentConfig(brightness_delta=0.5, noise_sigma=0.3, output_size=(8, 8))
        for i in range(20):
            out = sample_view(frame, cfg, Rng(i))
            assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


ORACLE_CONFIGS = {
    "default": AugmentConfig(),
    "no_noise": AugmentConfig(noise_sigma=0.0),
    "no_jitter": AugmentConfig(brightness_delta=0.0, contrast_range=(1.0, 1.0)),
    # frac = 1 fits only near-square aspects: most views fall back to the full frame
    "full_frame_crop": AugmentConfig(crop_scale_range=(1.0, 1.0)),
    "never_flip": AugmentConfig(flip_prob=0.0),
    "always_flip": AugmentConfig(flip_prob=1.0),
    "non_square_output": AugmentConfig(output_size=(17, 23)),
    "single_pixel_output": AugmentConfig(output_size=(1, 1)),
}


class TestBatchedViews:
    """build_views (one batched pass) against sample_view (one view at a time)."""

    @pytest.mark.parametrize("frame_shape", [(1, 32, 32), (3, 19, 27)], ids=["gray", "rgb_non_square"])
    @pytest.mark.parametrize("cfg", ORACLE_CONFIGS.values(), ids=ORACLE_CONFIGS.keys())
    def test_build_views_bitwise_equals_sample_view(self, cfg, frame_shape):
        frames = np.random.default_rng(0).uniform(size=(6, *frame_shape))
        indices = np.array([5, 0, 11, 3, 7, 2])
        root = Rng(2024)
        for epoch in (0, 1):
            views = build_views(Batch(frames, indices, epoch), cfg, root)
            for view_index, got in enumerate(views):
                expected = np.stack([
                    sample_view(Frame(f), cfg, view_stream(root, epoch, int(i), view_index)).pixels
                    for f, i in zip(frames, indices)
                ])
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_streams_advance_as_in_sample_view(self):
        frames = np.random.default_rng(1).uniform(size=(3, 2, 10, 14))
        cfg = AugmentConfig(output_size=(5, 6))
        batched = [Rng(s) for s in range(6)]
        single = [Rng(s) for s in range(6)]
        sample_views(frames, cfg, batched)
        for i, r in enumerate(single):
            sample_view(Frame(frames[i % 3]), cfg, r)
        assert [r.uniform() for r in batched] == [r.uniform() for r in single]


class TestCropResize:
    def test_full_frame_identity(self):
        frame = toy_frame(3)
        out = crop_resize(frame, (0, 0, 8, 8), (8, 8))
        assert np.abs(out.pixels - frame.pixels).max() <= 1e-12

    def test_constant_image_stays_constant(self):
        frame = Frame(np.full((2, 6, 6), 0.37))
        out = crop_resize(frame, (1, 2, 4, 3), (5, 5))
        assert np.abs(out.pixels - 0.37).max() <= 1e-12

    def test_bilinear_midpoint(self):
        frame = Frame(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
        out = crop_resize(frame, (0, 0, 2, 2), (1, 1))
        assert abs(out.pixels[0, 0, 0] - 0.5) <= 1e-12

    def test_out_of_bounds_box_rejected(self):
        frame = toy_frame(0)
        for box in ((0, 0, 9, 8), (-1, 0, 4, 4), (5, 5, 4, 4)):
            with pytest.raises(ValueError, match="out of bounds"):
                crop_resize(frame, box, (4, 4))

    def test_resize_to_identity_when_sizes_match(self):
        frame = toy_frame(5)
        assert np.abs(resize_to(frame, (8, 8)).pixels - frame.pixels).max() <= 1e-12


class TestHorizontalFlip:
    def test_involution_bitwise(self):
        frame = toy_frame(6)
        assert np.array_equal(horizontal_flip(horizontal_flip(frame)).pixels, frame.pixels)

    def test_symmetric_image_unchanged(self):
        half = np.random.default_rng(0).uniform(size=(1, 4, 2))
        frame = Frame(np.concatenate([half, half[:, :, ::-1]], axis=2))
        assert np.array_equal(horizontal_flip(frame).pixels, frame.pixels)

    def test_enumeration(self):
        out = horizontal_flip(Frame(np.array([[[1.0, 2.0, 3.0]]])))
        assert np.array_equal(out.pixels, [[[3.0, 2.0, 1.0]]])


class TestPhotometricJitter:
    def test_neutral_parameters_identity(self):
        frame = toy_frame(7)
        out = photometric_jitter(frame, 0.0, 1.0)
        assert np.abs(out.pixels - frame.pixels).max() <= 1e-12

    def test_brightness_clips_at_one(self):
        frame = Frame(np.full((1, 3, 3), 0.8))
        out = photometric_jitter(frame, 0.5, 1.0)
        assert np.array_equal(out.pixels, np.ones((1, 3, 3)))

    def test_contrast_contracts_toward_channel_mean(self):
        frame = toy_frame(8)
        mean = frame.pixels.mean(axis=(1, 2), keepdims=True)
        out = photometric_jitter(frame, 0.0, 1e-9)
        assert np.abs(out.pixels - np.clip(mean, 0, 1)).max() <= 1e-6

    def test_nonpositive_contrast_rejected(self):
        with pytest.raises(ValueError):
            photometric_jitter(toy_frame(), 0.0, 0.0)


class TestGaussianNoise:
    def test_zero_sigma_identity_bitwise(self):
        frame = toy_frame(9)
        out = gaussian_noise(frame, 0.0, Rng(1))
        assert np.array_equal(out.pixels, frame.pixels)

    def test_sample_mean_preserved(self):
        frame = Frame(np.full((1, 320, 320), 0.5))
        out = gaussian_noise(frame, 0.05, Rng(123))
        assert abs(out.pixels.mean() - 0.5) <= 0.002

    def test_clipping_contract(self):
        frame = toy_frame(10)
        out = gaussian_noise(frame, 5.0, Rng(2))
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestViewStreams:
    def test_view_q_independent_of_view_k(self):
        frame = toy_frame(11)
        cfg = AugmentConfig(output_size=(8, 8))
        root = Rng(99)
        vq_alone = sample_view(frame, cfg, view_stream(root, 0, 3, 0))
        vq_paired, _ = two_views(frame, cfg, root, 0, 3)
        assert np.array_equal(vq_alone.pixels, vq_paired.pixels)

    def test_views_differ_between_epochs_and_samples(self):
        frame = toy_frame(12)
        cfg = AugmentConfig(output_size=(8, 8))
        root = Rng(5)
        a = sample_view(frame, cfg, view_stream(root, 0, 1, 0))
        b = sample_view(frame, cfg, view_stream(root, 1, 1, 0))
        c = sample_view(frame, cfg, view_stream(root, 0, 2, 0))
        assert not np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)


class TestAugmentConfigValidation:
    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(crop_scale_range=(0.9, 0.4))
        with pytest.raises(ValueError):
            AugmentConfig(flip_prob=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(contrast_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            AugmentConfig(noise_sigma=-0.1)
