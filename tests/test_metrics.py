import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgrestore.kernels import delta_kernel, gaussian_kernel
from pgrestore.linops import CircularConvolution, ShapeMismatchError
from pgrestore.metrics import NoiseSpec, degrade, mse, psnr

SHAPE = (1, 10, 10)


class TestDegrade:
    def test_noiseless_equals_apply(self, rng):
        op = CircularConvolution(gaussian_kernel(3, 1.0), SHAPE)
        x = rng.standard_normal(SHAPE)
        assert np.array_equal(degrade(op, x, NoiseSpec(0.0, seed=3)), op.apply(x))

    def test_noise_sample_mean_near_zero(self):
        # law of large numbers on 10^4 pixels of pure noise
        shape = (1, 100, 100)
        op = CircularConvolution(delta_kernel(1), shape)
        x = np.zeros(shape)
        y = degrade(op, x, NoiseSpec(1.0, seed=7))
        assert abs(y.mean()) <= 3.0 / np.sqrt(y.size)
        assert y.std() == pytest.approx(1.0, rel=0.05)

    def test_seed_determinism(self, rng):
        op = CircularConvolution(delta_kernel(1), SHAPE)
        x = rng.standard_normal(SHAPE)
        y1 = degrade(op, x, NoiseSpec(0.5, seed=11))
        y2 = degrade(op, x, NoiseSpec(0.5, seed=11))
        assert np.array_equal(y1, y2)
        y3 = degrade(op, x, NoiseSpec(0.5, seed=12))
        assert not np.array_equal(y1, y3)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)

    def test_negative_seed_rejected(self):
        # numpy rejects it only when noise is drawn, and names no setting
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            NoiseSpec(0.0, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, math.nan])
    def test_non_integer_seed_rejected(self, seed):
        # numpy would reject it only when noise is drawn, with a TypeError naming no setting
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
            NoiseSpec(0.0, seed=seed)

    @pytest.mark.parametrize("sigma_e", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma_e):
        # NaN passes a bare `sigma_e < 0`, and degrade then adds no noise
        with pytest.raises(ValueError, match="sigma_e must be nonnegative and finite"):
            NoiseSpec(sigma_e)


class TestPSNR:
    def test_identical_images_hit_infinity_sentinel(self, rng):
        x = rng.standard_normal(SHAPE)
        assert psnr(x, x) == math.inf

    def test_constant_offset_is_twenty_db(self, rng):
        ref = rng.random(SHAPE)
        assert psnr(ref + 0.1, ref) == pytest.approx(20.0, abs=1e-10)

    def test_matches_two_line_reference(self, rng):
        x, ref = rng.random(SHAPE), rng.random(SHAPE)
        reference = 10.0 * math.log10(1.0 / float(np.mean((x - ref) ** 2)))
        assert psnr(x, ref) == pytest.approx(reference, abs=1e-10)

    def test_symmetry(self, rng):
        x, ref = rng.random(SHAPE), rng.random(SHAPE)
        assert psnr(x, ref) == psnr(ref, x)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, c):
        rng = np.random.default_rng(3)
        x, ref = rng.random(SHAPE), rng.random(SHAPE)
        assert psnr(x + c, ref + c) == pytest.approx(psnr(x, ref), rel=1e-9)

    def test_peak_validation_and_shape_mismatch(self, rng):
        # the peak is 1, the range of unit-range images, and not a setting
        x = rng.random(SHAPE)
        with pytest.raises(TypeError):
            psnr(x, x, peak=255.0)
        with pytest.raises(ShapeMismatchError):
            psnr(x, rng.random((1, 10, 11)))

    def test_mse_basic(self):
        a = np.zeros((1, 2, 2))
        b = np.full((1, 2, 2), 2.0)
        assert mse(a, b) == 4.0
