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


@pytest.mark.parametrize("make", [
    lambda: gaussian_kernel(4, 1.0),
    lambda: gaussian_kernel(0, 1.0),
    lambda: gaussian_kernel(5, 0.0),
    lambda: gaussian_kernel(5, -1.0),
    lambda: delta_kernel(2),
    lambda: bicubic_kernel(0),
], ids=["gauss-even", "gauss-zero-size", "gauss-zero-std", "gauss-negative-std",
        "delta-even", "bicubic-scale-zero"])
def test_invalid_arguments_rejected(make):
    with pytest.raises(ValueError):
        make()
