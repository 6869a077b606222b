import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgrestore.kernels import bicubic_kernel, delta_kernel, gaussian_kernel
from pgrestore.linops import (
    CircularConvolution,
    DenseOperator,
    DownsampleConvolution,
    Mask,
    ShapeMismatchError,
    SingularOperatorError,
    _full_width,
    fourier_filter,
    irfft2_into,
    rfft2_into,
)
from oracles import (
    naive_circular_conv,
    naive_circular_corr,
    operator_matrix,
    peak_traced_bytes,
    reg_pinv_svd,
)
from pgrestore.schemes import make_ddpm_schedule, make_scheme_config

SHAPE = (1, 8, 8)


def random_mask(rng, shape, density=0.5):
    mask = rng.random(shape) < density
    if not mask.any():
        mask[0, 0] = True
    return mask


def sample_operators(rng, shape=SHAPE):
    h, w = shape[1:]
    return [
        CircularConvolution(gaussian_kernel(3, 1.0), shape),
        DownsampleConvolution(bicubic_kernel(2), 2, shape),
        Mask(random_mask(rng, (h, w)), shape),
        DenseOperator(rng.standard_normal((h * w // 2, h * w)),
                      input_shape=shape, output_shape=(1, h * w // 2, 1)),
    ]


class TestApply:
    def test_identity_mask_is_identity(self, rng):
        op = Mask(np.ones((8, 8), dtype=bool), SHAPE)
        x = rng.standard_normal(SHAPE)
        assert np.array_equal(op.apply(x).reshape(SHAPE), x)

    def test_delta_kernel_is_identity(self, rng):
        op = CircularConvolution(delta_kernel(3), SHAPE)
        x = rng.standard_normal(SHAPE)
        np.testing.assert_allclose(op.apply(x), x, rtol=0, atol=1e-12)

    def test_conv_matches_assembled_circulant(self, rng):
        op = CircularConvolution(gaussian_kernel(3, 1.0), SHAPE)
        matrix = operator_matrix(op)
        x = rng.standard_normal(SHAPE)
        np.testing.assert_allclose(
            op.apply(x).ravel(), matrix @ x.ravel(), rtol=0, atol=1e-10
        )

    def test_conv_matches_naive_spatial_conv(self, rng):
        kernel = rng.random((3, 5))
        op = CircularConvolution(kernel, SHAPE)
        x = rng.standard_normal(SHAPE)
        np.testing.assert_allclose(
            op.apply(x)[0], naive_circular_conv(x[0], kernel), atol=1e-12
        )

    def test_linear_in_x(self, rng):
        op = CircularConvolution(gaussian_kernel(5, 2.0), SHAPE)
        x1, x2 = rng.standard_normal(SHAPE), rng.standard_normal(SHAPE)
        np.testing.assert_allclose(
            op.apply(2.0 * x1 - 3.0 * x2),
            2.0 * op.apply(x1) - 3.0 * op.apply(x2),
            atol=1e-12,
        )

    def test_shape_mismatch_raises(self, rng):
        op = CircularConvolution(delta_kernel(3), SHAPE)
        with pytest.raises(ShapeMismatchError):
            op.apply(rng.standard_normal((1, 8, 9)))


class TestAdjoint:
    def test_mask_adjoint_scatters(self, rng):
        mask = random_mask(rng, (8, 8))
        op = Mask(mask, SHAPE)
        r = rng.standard_normal(op.output_shape)
        back = op.apply_adjoint(r)
        assert np.array_equal(back[0][mask], r[0])
        assert np.all(back[0][~mask] == 0)

    def test_conv_adjoint_is_correlation(self, rng):
        kernel = rng.random((5, 3))
        op = CircularConvolution(kernel, SHAPE)
        r = rng.standard_normal(SHAPE)
        np.testing.assert_allclose(
            op.apply_adjoint(r)[0], naive_circular_corr(r[0], kernel), atol=1e-12
        )

    def test_adjoint_consistency_all_kinds(self, rng):
        # |<Au, v> - <u, A^T v>| <= 1e-10 ||u|| ||v|| on 100 pairs per kind
        for op in sample_operators(rng):
            for _ in range(100):
                u = rng.standard_normal(op.input_shape)
                v = rng.standard_normal(op.output_shape)
                lhs = np.vdot(op.apply(u), v)
                rhs = np.vdot(u, op.apply_adjoint(v))
                assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_adjoint_matches_matrix_transpose(self, rng):
        op = DownsampleConvolution(gaussian_kernel(3, 1.0), 2, SHAPE)
        matrix = operator_matrix(op)
        r = rng.standard_normal(op.output_shape)
        np.testing.assert_allclose(
            op.apply_adjoint(r).ravel(), matrix.T @ r.ravel(), atol=1e-10
        )


class TestRegPinv:
    def test_identity_kernel_eta_zero(self, rng):
        op = CircularConvolution(delta_kernel(1), SHAPE)
        z = rng.standard_normal(SHAPE)
        np.testing.assert_allclose(op.apply_reg_pinv(z, 0.0), z, atol=1e-12)

    def test_identity_kernel_eta_one_halves(self, rng):
        op = CircularConvolution(delta_kernel(1), SHAPE)
        z = rng.standard_normal(SHAPE)
        np.testing.assert_allclose(op.apply_reg_pinv(z, 1.0), z / 2.0, atol=1e-12)

    def test_deblur_matches_svd_oracle(self, rng):
        shape = (1, 16, 16)
        op = CircularConvolution(gaussian_kernel(5, 2.0), shape)
        z = rng.standard_normal(shape)
        expected = reg_pinv_svd(operator_matrix(op), z.ravel(), 0.1)
        got = op.apply_reg_pinv(z, 0.1).ravel()
        assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)

    @pytest.mark.parametrize("scale", [2, 4])
    def test_sr_matches_svd_oracle(self, rng, scale):
        shape = (1, 16, 16)
        op = DownsampleConvolution(bicubic_kernel(scale), scale, shape)
        z = rng.standard_normal(op.output_shape)
        expected = reg_pinv_svd(operator_matrix(op), z.ravel(), 0.05)
        got = op.apply_reg_pinv(z, 0.05).ravel()
        assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_mask_tight_frame_shortcut_exact(self, rng):
        op = Mask(random_mask(rng, (8, 8)), SHAPE)
        z = rng.standard_normal(op.output_shape)
        assert np.array_equal(op.apply_reg_pinv(z, 0.5), op.apply_adjoint(z) / 1.5)

    def test_mask_gram_is_identity(self, rng):
        op = Mask(random_mask(rng, (8, 8)), SHAPE)
        z = rng.standard_normal(op.output_shape)
        assert np.array_equal(op.apply(op.apply_adjoint(z)), z)

    def test_full_rank_pinv_identity(self, rng):
        # A . A^T (A A^T)^-1 z = z for a non-vanishing kernel spectrum
        op = CircularConvolution(gaussian_kernel(3, 1.0), SHAPE)
        z = rng.standard_normal(SHAPE)
        back = op.apply(op.apply_reg_pinv(z, 0.0))
        assert np.linalg.norm(back - z) <= 1e-8 * np.linalg.norm(z)

    def test_spectral_zero_raises_with_count(self):
        # 3-tap moving average has exact nulls on a 9-wide grid
        kernel = np.full((1, 3), 1.0 / 3.0)
        op = CircularConvolution(kernel, (1, 9, 9))
        z = np.ones((1, 9, 9))
        with pytest.raises(SingularOperatorError, match=r"\d+ of \d+ frequencies"):
            op.apply_reg_pinv(z, 0.0)
        op.apply_reg_pinv(z, 0.1)  # regularized inversion still fine

    @pytest.mark.parametrize("make_op", [
        lambda k: CircularConvolution(k, (1, 16, 16)),
        lambda k: DownsampleConvolution(k, 2, (1, 16, 16)),
    ], ids=["conv", "sr2"])
    def test_singularity_check_is_scale_free(self, rng, make_op):
        # the verdict at eta = 0 depends on the kernel's shape, not its scale
        kernel = gaussian_kernel(3, 1.0)
        z = rng.standard_normal(make_op(kernel).output_shape)
        unscaled = make_op(kernel).apply_reg_pinv(z, 0.0)
        scaled = make_op(1e-7 * kernel).apply_reg_pinv(z, 0.0)
        np.testing.assert_allclose(1e-7 * scaled, unscaled, rtol=1e-8, atol=0)

    def test_negative_eta_rejected(self, rng):
        op = CircularConvolution(delta_kernel(3), SHAPE)
        with pytest.raises(ValueError):
            op.apply_reg_pinv(rng.standard_normal(SHAPE), -0.1)


class TestGramKernel:
    @pytest.mark.parametrize("scale", [1, 2, 4])
    def test_sr_gram_kernel_is_subsampled_autocorrelation(self, rng, scale):
        # A A^T is coarse-grid convolution with the stride-subsampled
        # autocorrelation of the kernel, and solve_gram inverts A A^T + eta I
        kernel = rng.random((5, 5))
        op = DownsampleConvolution(kernel, scale, SHAPE)
        h, w = SHAPE[1:]
        padded = np.zeros((h, w))
        padded[:5, :5] = kernel
        padded = np.roll(padded, (-2, -2), axis=(0, 1))
        autocorr = np.zeros((h, w))
        for d1 in range(h):
            for d2 in range(w):
                autocorr[d1, d2] = np.sum(padded * np.roll(padded, (-d1, -d2), axis=(0, 1)))
        impulse = np.zeros(op.output_shape)
        impulse[0, 0, 0] = 1.0
        np.testing.assert_allclose(op.apply(op.apply_adjoint(impulse))[0],
                                   autocorr[::scale, ::scale], atol=1e-12)
        z = rng.standard_normal(op.output_shape)
        eta = 0.1
        np.testing.assert_allclose(
            op.solve_gram(op.apply(op.apply_adjoint(z)) + eta * z, eta), z, atol=1e-12)

    def test_conv_is_stride_one_downsampling(self, rng):
        kernel = rng.random((5, 3))
        conv = CircularConvolution(kernel, SHAPE)
        stride1 = DownsampleConvolution(kernel, 1, SHAPE)
        x = rng.standard_normal(SHAPE)
        assert conv.output_shape == stride1.output_shape == SHAPE
        assert np.array_equal(conv.apply(x), stride1.apply(x))
        assert np.array_equal(conv.apply_adjoint(x), stride1.apply_adjoint(x))
        assert np.array_equal(conv.solve_gram(x, 0.05), stride1.solve_gram(x, 0.05))

    def test_sr_output_size(self):
        op = DownsampleConvolution(bicubic_kernel(4), 4, (3, 16, 16))
        assert op.output_shape == (3, 4, 4)
        assert np.prod(op.output_shape) * 16 == np.prod(op.input_shape)


class TestFFTPathsAgainstDenseOracle:
    @pytest.mark.parametrize("make_op", [
        lambda: CircularConvolution(gaussian_kernel(5, 1.5), (1, 16, 16)),
        lambda: DownsampleConvolution(bicubic_kernel(2), 2, (1, 16, 16)),
    ])
    def test_all_three_paths(self, rng, make_op):
        op = make_op()
        matrix = operator_matrix(op)
        x = rng.standard_normal(op.input_shape)
        z = rng.standard_normal(op.output_shape)
        np.testing.assert_allclose(op.apply(x).ravel(), matrix @ x.ravel(), atol=1e-10)
        np.testing.assert_allclose(
            op.apply_adjoint(z).ravel(), matrix.T @ z.ravel(), atol=1e-10
        )
        expected = reg_pinv_svd(matrix, z.ravel(), 0.02)
        got = op.apply_reg_pinv(z, 0.02).ravel()
        assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)


# Each builds an operator on an 8 x 8 image with the given image_shape.
MAKE_OPS_ON_8x8 = [
    lambda shape: CircularConvolution(delta_kernel(3), shape),
    lambda shape: DownsampleConvolution(bicubic_kernel(2), 2, shape),
    lambda shape: Mask(np.ones((8, 8), dtype=bool), shape),
]


class TestConstruction:
    def test_even_conv_kernel_rejected(self):
        with pytest.raises(ValueError):
            CircularConvolution(np.ones((2, 2)), SHAPE)

    @pytest.mark.parametrize("make_op", [
        lambda: CircularConvolution(np.zeros((5, 5)), SHAPE),
        lambda: DownsampleConvolution(np.zeros((5, 5)), 2, SHAPE),
        lambda: DownsampleConvolution(np.zeros((0, 0)), 2, SHAPE),
    ], ids=["conv", "sr2", "sr2-empty"])
    def test_kernel_without_nonzero_tap_rejected(self, make_op):
        with pytest.raises(ValueError, match="no nonzero tap"):
            make_op()

    @pytest.mark.parametrize("scale, message", [
        (2.5, "scale must be an integer, got 2.5"),
        (0, "scale must be at least 1, got 0"),
    ], ids=["fraction", "zero"])
    def test_bad_scale_rejected(self, scale, message):
        # a scale is not truncated: 2.5 would otherwise run at scale 2
        with pytest.raises(ValueError, match=message):
            DownsampleConvolution(bicubic_kernel(2), scale, SHAPE)

    def test_sr_requires_divisible_sides(self):
        with pytest.raises(ValueError):
            DownsampleConvolution(bicubic_kernel(3), 3, SHAPE)

    @pytest.mark.parametrize("make_op", MAKE_OPS_ON_8x8, ids=["conv", "sr2", "mask"])
    def test_two_dimensional_image_shape_rejected(self, make_op):
        with pytest.raises(ValueError, match=r"\(channels, height, width\)"):
            make_op((8, 8))

    @pytest.mark.parametrize("side, message", [
        (0, "must be at least 1, got 0"),
        (-1, "must be at least 1, got -1"),
        (1.5, "must be an integer, got 1.5"),
    ], ids=["zero", "negative", "fraction"])
    @pytest.mark.parametrize("axis, name", list(enumerate(("channels", "height", "width"))),
                             ids=["channels", "height", "width"])
    @pytest.mark.parametrize("make_op", MAKE_OPS_ON_8x8, ids=["conv", "sr2", "mask"])
    def test_bad_image_side_rejected(self, make_op, axis, name, side, message):
        # a side is not truncated: 1.5 channels would otherwise build a 1-channel operator
        shape = [1, 8, 8]
        shape[axis] = side
        with pytest.raises(ValueError, match=f"{name} {message}"):
            make_op(tuple(shape))

    def test_dense_size_cap(self, rng):
        with pytest.raises(ValueError):
            DenseOperator(np.zeros((2, 5000)))

    def test_dense_singular_gram_at_eta_zero(self):
        matrix = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # rank 1
        op = DenseOperator(matrix)
        with pytest.raises(SingularOperatorError):
            op.solve_gram(np.ones(2), 0.0)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            Mask(np.zeros((8, 8), dtype=bool), SHAPE)


@pytest.mark.parametrize("make_op", [
    lambda rng: CircularConvolution(rng.random((5, 3)), (1, 12, 10)),
    lambda rng: DownsampleConvolution(rng.random((4, 4)), 2, (1, 12, 10)),
    lambda rng: DownsampleConvolution(bicubic_kernel(4), 4, (1, 16, 20)),
    lambda rng: Mask(random_mask(rng, (8, 8)), (2, 8, 8)),
    lambda rng: DenseOperator(rng.standard_normal((12, 20))),
], ids=["conv", "sr2", "sr4", "mask", "dense"])
def test_norm_matches_svd(rng, make_op):
    op = make_op(rng)
    exact = np.linalg.svd(operator_matrix(op), compute_uv=False).max()
    assert abs(op.norm - exact) <= 1e-12 * exact


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["solve_gram", "apply_reg_pinv"])
def test_non_finite_eta_rejected(rng, method, bad):
    # an infinite eta would zero the solve, a NaN one would fill it with NaN
    for op in sample_operators(rng):
        z = rng.standard_normal(op.output_shape)
        with pytest.raises(ValueError, match=f"eta must be nonnegative and finite, got {bad}"):
            getattr(op, method)(z, bad)


def test_normalized_blur_has_unit_spectral_norm():
    op = CircularConvolution(gaussian_kernel(5, 10.0), (1, 16, 16))
    assert abs(op.norm - 1.0) <= 1e-12


@pytest.mark.parametrize("make_output", [
    lambda x: CircularConvolution(gaussian_kernel(5, 2.0), x.shape).apply(x),
    lambda x: fourier_filter(x, np.fft.rfft2(np.eye(x.shape[1], x.shape[2]))),
    lambda x: DownsampleConvolution(bicubic_kernel(2), 2, x.shape).apply(x),
], ids=["conv-apply", "fourier_filter", "sr2-apply"])
def test_filter_output_owns_its_data(rng, make_output):
    # a strided view (of a complex buffer, or of the fine grid before
    # subsampling) would hold more bytes than it shows
    out = make_output(rng.standard_normal((2, 12, 10)))
    assert out.flags.c_contiguous
    assert out.base is None or out.base.nbytes == out.nbytes


# 1 and 3 channels and plain 2-D arrays, odd and even sides down to 1.
TRANSFORM_SHAPES = st.sampled_from([(1,), (3,), ()]).flatmap(lambda lead: st.tuples(
    st.just(lead), st.integers(1, 9), st.integers(1, 9)))


def maybe_transposed(values, transposed):
    """``values`` itself, or an equal strided view (a transposed copy, transposed back)."""
    if not transposed:
        return values
    return np.ascontiguousarray(values.swapaxes(-2, -1)).swapaxes(-2, -1)


@given(shape=TRANSFORM_SHAPES, transposed=st.booleans(), seed=st.integers(0, 2**16))
@example(shape=((1,), 4, 1), transposed=False, seed=0)
@example(shape=((3,), 5, 2), transposed=True, seed=1)
@example(shape=((), 6, 7), transposed=True, seed=2)
@settings(max_examples=60, deadline=None)
def test_rfft2_into_equals_rfft2(shape, transposed, seed):
    # The fast path against numpy's n-D reference, bit for bit, on
    # contiguous arrays and on strided views.
    lead, h, w = shape
    x = maybe_transposed(np.random.default_rng(seed).standard_normal(lead + (h, w)), transposed)
    spectrum = np.empty(lead + (h, w // 2 + 1), dtype=complex)
    got = rfft2_into(x, spectrum)
    assert got is spectrum
    expected = np.ascontiguousarray(np.fft.rfft2(x, axes=(-2, -1)))
    assert np.array_equal(got.view(float), expected.view(float))
    assert np.array_equal(rfft2_into(x).view(float), expected.view(float))


@given(shape=TRANSFORM_SHAPES, transposed=st.booleans(), seed=st.integers(0, 2**16))
@example(shape=((1,), 4, 1), transposed=False, seed=0)
@example(shape=((3,), 5, 2), transposed=True, seed=1)
@example(shape=((), 6, 7), transposed=True, seed=2)
@settings(max_examples=60, deadline=None)
def test_irfft2_into_equals_irfft2(shape, transposed, seed):
    # The inverse against numpy's n-D reference, bit for bit, on any half
    # spectrum (Hermitian or not), contiguous or a strided view.
    lead, h, w = shape
    values = np.random.default_rng(seed).standard_normal(lead + (h, w // 2 + 1, 2))
    spectrum = maybe_transposed(values.view(complex)[..., 0], transposed)
    expected = np.fft.irfft2(spectrum, s=(h, w), axes=(-2, -1))
    out = np.empty(lead + (h, w))
    assert irfft2_into(spectrum, out) is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("shape", [(1, 12, 10), (3, 9, 11), (2, 8, 1), (1, 5, 2)])
def test_fourier_filter_with_and_without_work_array(rng, shape):
    x = rng.standard_normal(shape)
    response = np.fft.rfft2(rng.standard_normal(shape[1:]))
    spectrum = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    assert np.array_equal(fourier_filter(x, response, spectrum=spectrum),
                          fourier_filter(x, response))


@pytest.mark.parametrize("shape", [(1, 6, 8), (3, 5, 7), (2, 4, 1)])
def test_full_width_fills_every_column_and_leaves_half_alone(rng, shape):
    # Even, odd and unit widths, written into a strided view as the sr step's fold is.
    _, h, w = shape
    x = rng.standard_normal(shape)
    half = np.fft.rfft2(x)
    kept = half.copy()
    full = np.empty((*shape[:-1], 2 * w), dtype=complex)[..., :w]
    assert _full_width(half, full) is full
    assert np.array_equal(half.view(float), kept.view(float))
    k = half.shape[-1]
    mirrored = np.conj(kept[..., (-np.arange(h)) % h, :][..., w - np.arange(k, w)])
    assert np.array_equal(full[..., :k], kept) and np.array_equal(full[..., k:], mirrored)
    np.testing.assert_allclose(full, np.fft.fft2(x), rtol=0, atol=1e-12)


def test_full_width_allocates_nothing_the_size_of_its_tail(rng):
    # A ufunc on the strided tail of full would allocate copies of it (130 KB here, numpy 2.4).
    half = np.fft.rfft2(rng.standard_normal((1, 64, 128)))
    full = np.empty((1, 64, 256), dtype=complex)[..., :128]
    assert peak_traced_bytes(lambda: _full_width(half, full)) <= 4096


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_],
                         ids=["True", "False", "np.True_", "np.False_"])
@pytest.mark.parametrize("name, build", [
    ("T", make_ddpm_schedule),
    ("seed", lambda seed: make_scheme_config("ddpg", make_ddpm_schedule(3), 0.05, seed=seed)),
    ("scale", lambda scale: DownsampleConvolution(bicubic_kernel(2), scale, SHAPE)),
    ("size", lambda size: gaussian_kernel(size, 1.0)),
], ids=["T", "seed", "scale", "kernel-size"])
def test_bool_is_not_a_count(name, build, value):
    # bool subclasses int: True would otherwise build a 1-step schedule or a 1 x 1 kernel
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        build(value)
