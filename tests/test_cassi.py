import numpy as np
import pytest

from bisrnet.cassi import (
    CassiSystem,
    add_shot_noise,
    crop_augment,
    forward_capture,
    random_mask,
    shift_back,
    shift_mask,
    synth_scene,
)
from bisrnet.errors import ArgumentError, DimensionError, DomainError


def ones_system(h=6, w=8, step=2, n_bands=4):
    return CassiSystem(np.ones((h, w), dtype=np.float32), step=step, n_bands=n_bands)


class TestCassiSystem:
    def test_mask_is_copied(self):
        m = np.full((3, 4), 0.5, dtype=np.float32)
        s = CassiSystem(m, step=1, n_bands=2)
        m[0, 0] = 5
        assert s.mask2d[0, 0] == 0.5

    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
    def test_mask_outside_unit_interval_rejected(self, bad):
        m = np.full((3, 4), 0.5, dtype=np.float32)
        m[1, 2] = bad
        with pytest.raises(DomainError):
            CassiSystem(m)

    def test_all_nan_mask_rejected(self):
        with pytest.raises(DomainError):
            CassiSystem(np.full((3, 4), np.nan, dtype=np.float32))

    @pytest.mark.parametrize("n_bands", [0, -1])
    def test_band_count_below_one_rejected(self, n_bands):
        with pytest.raises(ArgumentError):
            CassiSystem(np.ones((3, 4), dtype=np.float32), n_bands=n_bands)


class TestForwardCapture:
    def test_single_band_no_dispersion(self):
        sys = ones_system(n_bands=1)
        rng = np.random.default_rng(0)
        cube = rng.random((1, 6, 8)).astype(np.float32)
        y = forward_capture(cube, sys)
        assert y.shape == (6, 8)
        np.testing.assert_allclose(y, cube[0], rtol=1e-6)

    def test_masked_single_band(self):
        mask = random_mask(3, 6, 8)
        sys = CassiSystem(mask, step=2, n_bands=1)
        cube = np.ones((1, 6, 8), dtype=np.float32)
        np.testing.assert_array_equal(forward_capture(cube, sys), mask)

    def test_impulse_lands_at_shifted_column(self):
        sys = ones_system()
        cube = np.zeros((4, 6, 8), dtype=np.float32)
        cube[3, 2, 5] = 1.0
        y = forward_capture(cube, sys)
        assert y[2, 5 + 2 * 3] == 1.0
        y[2, 11] = 0.0
        assert not y.any()

    def test_linearity(self):
        sys = ones_system()
        rng = np.random.default_rng(1)
        s1 = rng.random((4, 6, 8))
        s2 = rng.random((4, 6, 8))
        a, b = 0.3, 1.7
        lhs = forward_capture(a * s1 + b * s2, sys)
        rhs = a * forward_capture(s1, sys) + b * forward_capture(s2, sys)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            forward_capture(np.zeros((4, 5, 8)), ones_system())


class TestShiftBack:
    def test_zero_step_copies_window(self):
        sys = ones_system(step=0)
        rng = np.random.default_rng(2)
        y = rng.random((6, 8)).astype(np.float32)
        back = shift_back(y, sys)
        for n in range(4):
            np.testing.assert_array_equal(back[n], y)

    def test_impulse_returns_home(self):
        sys = ones_system()
        y = np.zeros((6, sys.measurement_width), dtype=np.float32)
        y[1, 2 * 3 + 4] = 1.0  # band 3, column 4
        back = shift_back(y, sys)
        assert back[3, 1, 4] == 1.0

    def test_capture_then_shift_back_recovers_single_band(self):
        sys = ones_system()
        rng = np.random.default_rng(3)
        for band in range(4):
            cube = np.zeros((4, 6, 8), dtype=np.float32)
            cube[band] = rng.random((6, 8))
            back = shift_back(forward_capture(cube, sys), sys)
            np.testing.assert_array_equal(back[band], cube[band])

    def test_wrong_width(self):
        with pytest.raises(DimensionError):
            shift_back(np.zeros((6, 8)), ones_system())


class TestShiftMask:
    def test_channels_align_with_capture(self):
        # Band n of the shifted mask must hold exactly the values that
        # multiplied cube band n, verified through single-band captures.
        mask = random_mask(7, 6, 8)
        sys = CassiSystem(mask, step=2, n_bands=4)
        m3 = shift_mask(sys)
        rng = np.random.default_rng(4)
        for band in range(4):
            cube = np.zeros((4, 6, 8), dtype=np.float32)
            cube[band] = rng.random((6, 8))
            back = shift_back(forward_capture(cube, sys), sys)
            np.testing.assert_allclose(back[band], m3[band] * cube[band], rtol=1e-6)

    def test_constant_mask(self):
        sys = CassiSystem(np.full((4, 5), 0.5, dtype=np.float32), step=1, n_bands=3)
        m3 = shift_mask(sys)
        np.testing.assert_array_equal(m3, np.full((3, 4, 5), 0.5, dtype=np.float32))

    def test_shape(self):
        assert shift_mask(ones_system()).shape == (4, 6, 8)


class TestShotNoise:
    def test_zero_measurement_stays_zero(self):
        y = np.zeros((4, 4), dtype=np.float32)
        np.testing.assert_array_equal(add_shot_noise(y, seed=1), y)

    def test_mean_preserved(self):
        y = np.full((100, 100), 0.5, dtype=np.float32)
        noisy = add_shot_noise(y, bit_depth=11, seed=2)
        assert abs(noisy.mean() - 0.5) / 0.5 < 0.02

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        y = rng.random((16, 16)).astype(np.float32)
        np.testing.assert_array_equal(add_shot_noise(y, seed=9), add_shot_noise(y, seed=9))
        assert not np.array_equal(add_shot_noise(y, seed=9), add_shot_noise(y, seed=10))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            add_shot_noise(np.array([[-0.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        y = np.full((3, 3), 0.5, dtype=np.float32)
        y[1, 2] = bad
        with pytest.raises(DomainError):
            add_shot_noise(y)

    @pytest.mark.parametrize("bit_depth", [0, -1, 63, np.nan])
    def test_bit_depth_out_of_range_rejected(self, bit_depth):
        with pytest.raises(ArgumentError):
            add_shot_noise(np.full((3, 3), 0.5, dtype=np.float32), bit_depth=bit_depth)

    @pytest.mark.parametrize("bit_depth", [1, 62])
    def test_bit_depth_range_ends_accepted(self, bit_depth):
        y = np.random.default_rng(3).random((8, 8)).astype(np.float32)
        noisy = add_shot_noise(y, bit_depth=bit_depth, seed=4)
        assert noisy.dtype == np.float32 and np.isfinite(noisy).all()
        if bit_depth == 62:
            # 2^62 - 1 counts at full scale: noise far below float32 spacing.
            np.testing.assert_allclose(noisy, y, rtol=1e-6)


class TestSynthScene:
    def test_range(self):
        cube = synth_scene(0, 32, 32, 8)
        assert cube.min() >= 0.0 and cube.max() <= 1.0
        assert cube.shape == (8, 32, 32)

    def test_deterministic(self):
        np.testing.assert_array_equal(synth_scene(3, 16, 16, 4), synth_scene(3, 16, 16, 4))
        assert not np.array_equal(synth_scene(3, 16, 16, 4), synth_scene(4, 16, 16, 4))

    def test_spectral_smoothness(self):
        # Adjacent bands must be closer than bands five apart, on average
        # over seeds.
        d1, d5 = [], []
        for seed in range(8):
            cube = synth_scene(seed, 24, 24, 12).astype(np.float64)
            d1.append(np.mean(np.abs(cube[1:] - cube[:-1])))
            d5.append(np.mean(np.abs(cube[5:] - cube[:-5])))
        assert np.mean(d1) < np.mean(d5)

    def test_mask_density_and_determinism(self):
        m = random_mask(0, 64, 64)
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert 0.4 < m.mean() < 0.6
        np.testing.assert_array_equal(m, random_mask(0, 64, 64))


class TestCropAugment:
    def test_deterministic(self):
        cube = synth_scene(0, 32, 32, 4)
        mask = random_mask(1, 32, 32)
        a = crop_augment(cube, mask, 16, seed=5)
        b = crop_augment(cube, mask, 16, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_identity_transform_is_plain_crop(self):
        cube = synth_scene(1, 32, 32, 4)
        mask = random_mask(2, 32, 32)
        # Find a seed whose transform is (rot 0, no flip) by checking that
        # the cropped mask appears verbatim inside the original.
        for seed in range(64):
            cc, mm = crop_augment(cube, mask, 8, seed=seed)
            rng = np.random.default_rng(seed)
            r = int(rng.integers(0, 25))
            c = int(rng.integers(0, 25))
            k = int(rng.integers(0, 4))
            flip = bool(rng.integers(0, 2))
            if k == 0 and not flip:
                np.testing.assert_array_equal(cc, cube[:, r : r + 8, c : c + 8])
                np.testing.assert_array_equal(mm, mask[r : r + 8, c : c + 8])
                return
        pytest.fail("no identity transform among seeds 0..63")

    def test_scene_and_mask_transform_together(self):
        # Track a bright impulse through the transform via the mask.
        cube = np.zeros((2, 16, 16), dtype=np.float32)
        mask = np.zeros((16, 16), dtype=np.float32)
        cube[:, 5, 11] = 1.0
        mask[5, 11] = 1.0
        for seed in range(10):
            cc, mm = crop_augment(cube, mask, 16, seed=seed)
            np.testing.assert_array_equal(cc[0] > 0, mm > 0)

    def test_patch_too_large(self):
        with pytest.raises(ArgumentError):
            crop_augment(np.zeros((2, 8, 8)), np.zeros((8, 8)), 9, 0)
