import math

import numpy as np
import pytest

from pgrestore.kernels import bicubic_kernel, delta_kernel, gaussian_kernel

KERNELS = [
    *(lambda size=size, std=std: gaussian_kernel(size, std)
      for size in (1, 3, 5, 9) for std in (0.5, 1.0, 10.0)),
    *(lambda scale=scale: bicubic_kernel(scale) for scale in (1, 2, 3, 4)),
    lambda: delta_kernel(5),
]


@pytest.mark.parametrize("make", KERNELS)
def test_taps_sum_to_one_and_are_symmetric(make):
    k = make()
    assert k.sum() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_array_equal(k, k[::-1, :])
    np.testing.assert_array_equal(k, k[:, ::-1])
    np.testing.assert_array_equal(k, k.T)


def test_bicubic_taps_are_keys_with_a_minus_half():
    taps = np.array([-0.0625, 0.5625, 0.5625, -0.0625])
    np.testing.assert_array_equal(bicubic_kernel(1), np.outer(taps, taps))


@pytest.mark.parametrize("scale", [1, 2, 3, 4])
def test_bicubic_support_is_four_times_the_scale(scale):
    assert bicubic_kernel(scale).shape == (4 * scale, 4 * scale)


@pytest.mark.parametrize("make, name", [
    (lambda: gaussian_kernel(4, 1.0), "size"),
    (lambda: gaussian_kernel(0, 1.0), "size"),
    (lambda: gaussian_kernel(5, 0.0), "std"),
    (lambda: gaussian_kernel(5, -1.0), "std"),
    (lambda: delta_kernel(2), "size"),
    (lambda: bicubic_kernel(0), "scale"),
    (lambda: gaussian_kernel(3, math.inf), "std"),
    (lambda: gaussian_kernel(3, math.nan), "std"),
    (lambda: gaussian_kernel(3.5, 1.0), "size"),
    (lambda: delta_kernel(3.0), "size"),
    (lambda: bicubic_kernel(2.5), "scale"),
], ids=["gauss-even", "gauss-zero-size", "gauss-zero-std", "gauss-negative-std",
        "delta-even", "bicubic-scale-zero", "gauss-inf-std", "gauss-nan-std",
        "gauss-fractional-size", "delta-float-size", "bicubic-fractional-scale"])
def test_invalid_arguments_rejected(make, name):
    # unchecked, an inf std gives a box blur, size 3.5 a 4 x 4 kernel and scale 2.5 scale 2
    with pytest.raises(ValueError, match=f"^{name} must "):
        make()
