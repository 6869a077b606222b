import stat
import sys
import threading

import numpy as np
import pytest

from pgrestore.denoisers import (
    ExternalDenoiser,
    ExternalDenoiserError,
    GaussianSmooth,
    Identity,
    WienerMMSE,
    WienerPrior,
    make_denoiser,
)
from pgrestore.io import read_tensor, write_tensor
from pgrestore.kernels import gaussian_kernel
from pgrestore.linops import CircularConvolution, fourier_filter
from pgrestore.metrics import NoiseSpec, degrade
from pgrestore.schemes import eps_effective, make_ddpm_schedule, make_scheme_config, run_scheme
from oracles import peak_traced_bytes

SHAPE = (1, 12, 12)


class TestWienerMMSE:
    def test_sigma_zero_is_exact_identity(self, rng):
        x = rng.standard_normal(SHAPE)
        out = WienerMMSE(WienerPrior.smooth_default(SHAPE[1:]))(x, 0.0)
        assert np.array_equal(out, x)

    def test_flat_spectrum_halves_everything(self, rng):
        prior = WienerPrior(spectrum=np.ones(SHAPE[1:]))
        x = rng.standard_normal(SHAPE)
        np.testing.assert_allclose(WienerMMSE(prior)(x, 1.0), x / 2.0, atol=1e-12)

    def test_reduces_mse_on_matched_noise(self):
        # Monte-Carlo: posterior mean beats the noisy input on average
        prior = WienerPrior.smooth_default(SHAPE[1:])
        denoiser = WienerMMSE(prior)
        sigma = 0.3
        in_mse, out_mse = 0.0, 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x_star = prior.sample(rng)
            noisy = x_star + sigma * rng.standard_normal(SHAPE)
            denoised = denoiser(noisy, sigma)
            in_mse += float(np.mean((noisy - x_star) ** 2))
            out_mse += float(np.mean((denoised - x_star) ** 2))
        assert out_mse < in_mse

    def test_linearity_for_fixed_sigma(self, rng):
        prior = WienerPrior.smooth_default(SHAPE[1:])
        denoiser = WienerMMSE(prior)
        x1, x2 = rng.standard_normal(SHAPE), rng.standard_normal(SHAPE)
        np.testing.assert_allclose(
            denoiser(2.0 * x1 + 0.5 * x2, 0.4),
            2.0 * denoiser(x1, 0.4) + 0.5 * denoiser(x2, 0.4),
            atol=1e-12,
        )

    def test_nonzero_mean_fixed_point(self):
        prior = WienerPrior(spectrum=np.ones(SHAPE[1:]), mean=0.5)
        flat = np.full(SHAPE, 0.5)
        np.testing.assert_allclose(WienerMMSE(prior)(flat, 2.0), flat, atol=1e-12)

    def test_tweedie_identity(self, rng):
        # the noise estimate implied by the denoised image reconstructs x_t
        prior = WienerPrior.smooth_default(SHAPE[1:])
        denoiser = WienerMMSE(prior)
        x_t = rng.standard_normal(SHAPE)
        abar = 0.6
        x0 = denoiser(x_t / np.sqrt(abar), float(np.sqrt((1 - abar) / abar)))
        eps = eps_effective(x_t, x0, abar)
        np.testing.assert_allclose(
            np.sqrt(abar) * x0 + np.sqrt(1 - abar) * eps, x_t, atol=1e-12
        )

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            WienerMMSE(WienerPrior.smooth_default(SHAPE[1:]))(rng.standard_normal(SHAPE), -1.0)

    def test_grid_mismatch_rejected(self, rng):
        prior = WienerPrior.smooth_default((8, 8))
        with pytest.raises(ValueError):
            WienerMMSE(prior)(rng.standard_normal(SHAPE), 0.5)



    def test_call_allocates_little_besides_its_output(self, rng):
        # x - mean is filtered in place in the output, through the thread's
        # spectrum made by the first call; the shrink weights are half an
        # image. Bound: two images plus 16 KiB.
        prior = WienerPrior.smooth_default((128, 128), amplitude=16.0)
        denoiser = WienerMMSE(prior)
        x = rng.standard_normal((1, 128, 128))
        assert peak_traced_bytes(lambda: denoiser(x, 0.3)) <= 2 * x.nbytes + 16 * 1024

    def test_threads_sharing_one_denoiser_match_serial_runs(self):
        # Each thread keeps its own work array, so threads that restore
        # images of two sizes (1 and 3 channels, at different noise levels)
        # through one denoiser at once get exactly what a serial run gets.
        size = 64
        prior = WienerPrior.smooth_default((size, size), amplitude=16.0)
        denoiser = WienerMMSE(prior)
        cases = []
        for channels, steps in ((1, 20), (3, 15)):
            op = CircularConvolution(gaussian_kernel(5, 2.0), (channels, size, size))
            x_star = prior.sample(np.random.default_rng(channels), channels=channels)
            y = degrade(op, x_star, NoiseSpec(0.05, seed=channels))
            cfg = make_scheme_config("idpg", make_ddpm_schedule(steps), 0.05, seed=channels)
            cases.append((op, y, cfg))
        serial = [run_scheme(denoiser, *case)[0] for case in cases]
        # More threads than a 2-CPU host has cores, switching often; thread k
        # starts on case k % 2 and then alternates irregularly.
        order, workers = [0, 1, 1, 0, 0, 1], 4
        results = [[] for _ in range(workers)]
        start = threading.Barrier(workers)

        def restore(k):
            start.wait()
            for i in order:
                case = (k + i) % 2
                results[k].append((case, run_scheme(denoiser, *cases[case])[0]))

        threads = [threading.Thread(target=restore, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert len(got) == len(order)
            assert all(np.array_equal(x, serial[case]) for case, x in got)


def _full_grid_filter(x, response):
    return np.fft.ifft2(np.fft.fft2(x, axes=(-2, -1)) * response, axes=(-2, -1)).real


@pytest.mark.parametrize("shape", [(1, 12, 10), (3, 9, 11), (3, 10, 7)],
                         ids=["1x12x10", "3x9x11", "3x10x7"])
class TestAgainstFullGridFormula:
    # The half-spectrum filters against full fft2/ifft2 over the whole grid.
    def test_wiener_mmse(self, rng, shape):
        base = WienerPrior.smooth_default(shape[1:], amplitude=3.0)
        mean = float(rng.random())
        prior = WienerPrior(spectrum=base.spectrum, mean=mean)
        x = rng.standard_normal(shape)
        expected = mean + _full_grid_filter(x - mean, base.spectrum / (base.spectrum + 0.4**2))
        np.testing.assert_allclose(WienerMMSE(prior)(x, 0.4), expected, rtol=0, atol=1e-12)

    def test_gaussian_smooth(self, rng, shape):
        _, height, width = shape
        h = 1.5 * 0.8
        dy = np.minimum(np.arange(height), height - np.arange(height))
        dx = np.minimum(np.arange(width), width - np.arange(width))
        taps = np.exp(-(dy[:, None] ** 2 + dx[None, :] ** 2) / (2.0 * h**2))
        x = rng.standard_normal(shape)
        expected = _full_grid_filter(x, np.fft.fft2(taps / taps.sum()))
        np.testing.assert_allclose(GaussianSmooth(kappa=1.5)(x, 0.8), expected, rtol=0, atol=1e-12)

    def test_prior_sample(self, shape):
        base = WienerPrior.smooth_default(shape[1:], amplitude=2.0)
        prior = WienerPrior(spectrum=base.spectrum, mean=0.5)
        white = np.random.default_rng(9).standard_normal(shape)
        expected = 0.5 + _full_grid_filter(white, np.sqrt(base.spectrum))
        sample = prior.sample(np.random.default_rng(9), channels=shape[0])
        np.testing.assert_allclose(sample, expected, rtol=0, atol=1e-12)


class TestWienerPrior:
    def test_default_spectrum_shape_and_peak(self):
        prior = WienerPrior.smooth_default((8, 10), amplitude=2.0)
        assert prior.spectrum.shape == (8, 10)
        assert prior.spectrum[0, 0] == 2.0  # DC
        assert prior.spectrum.max() == 2.0

    def test_sampling_is_seeded_and_real(self):
        prior = WienerPrior.smooth_default((12, 12))
        a = prior.sample(np.random.default_rng(5), channels=2)
        b = prior.sample(np.random.default_rng(5), channels=2)
        assert a.shape == (2, 12, 12)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("channels, message", [
        (0, "channels must be at least 1, got 0"),
        (-1, "channels must be at least 1, got -1"),
        (1.5, "channels must be an integer, got 1.5"),
    ], ids=["zero", "negative", "fraction"])
    def test_bad_sample_channels_rejected(self, channels, message):
        # 0 channels would otherwise return an empty image
        with pytest.raises(ValueError, match=message):
            WienerPrior.smooth_default((8, 8)).sample(np.random.default_rng(5), channels)

    def test_negative_spectrum_rejected(self):
        with pytest.raises(ValueError):
            WienerPrior(spectrum=-np.ones((4, 4)))

    def test_asymmetric_spectrum_rejected(self):
        spec = np.ones((4, 4))
        spec[1, 0] = 2.0  # breaks f -> -f symmetry
        with pytest.raises(ValueError):
            WienerPrior(spectrum=spec)

    @pytest.mark.parametrize("mean_shape", [()])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_mean_is_broadcast_as_an_image_would_be(self, rng, mean_shape, channels):
        # The reference broadcasts the mean to the full image first.
        base = WienerPrior.smooth_default((12, 10), amplitude=3.0)
        mean = rng.random(mean_shape)
        prior = WienerPrior(spectrum=base.spectrum, mean=mean)
        assert type(prior.mean) is float and prior.mean == mean
        x = rng.standard_normal((channels, 12, 10))
        image_mean = np.broadcast_to(mean, x.shape)
        half = base.half_spectrum
        expected = fourier_filter(x - image_mean, half / (half + 0.4**2)) + image_mean
        assert np.array_equal(WienerMMSE(prior)(x, 0.4), expected)
        white = np.random.default_rng(9).standard_normal(x.shape)
        expected = image_mean + fourier_filter(white, np.sqrt(half))
        assert np.array_equal(prior.sample(np.random.default_rng(9), channels=channels), expected)

    @pytest.mark.parametrize("mean", [np.nan, np.inf, -np.inf, np.zeros((5, 5)),
                                      np.zeros((3, 5, 10)), np.zeros((1, 1, 12, 10)),
                                      np.zeros((12, 10)), np.zeros((3, 12, 10)), np.zeros(1)],
                             ids=["nan", "inf", "minus-inf", "other-grid", "other-channel-grid",
                                  "4-D", "image-grid", "channel-grid", "one-entry"])
    def test_bad_mean_rejected(self, mean):
        # the mean is one number: an array of any shape is rejected, the image's own too
        with pytest.raises(ValueError, match="mean must be one finite real number"):
            WienerPrior(spectrum=np.ones((12, 10)), mean=mean)


class TestGaussianSmooth:
    def test_sigma_zero_identity(self, rng):
        x = rng.standard_normal(SHAPE)
        assert np.array_equal(GaussianSmooth()(x, 0.0), x)

    def test_preserves_mean(self, rng):
        x = rng.standard_normal(SHAPE)
        out = GaussianSmooth(kappa=2.0)(x, 1.5)
        assert out.mean() == pytest.approx(x.mean(), abs=1e-12)

    def test_smooths(self, rng):
        x = rng.standard_normal(SHAPE)
        out = GaussianSmooth()(x, 2.0)
        assert out.std() < x.std()


@pytest.mark.parametrize("make", [
    Identity,
    GaussianSmooth,
    lambda: WienerMMSE(WienerPrior.smooth_default(SHAPE[1:])),
    lambda: ExternalDenoiser(["/nonexistent/denoiser-binary"]),
], ids=["identity", "gauss", "wiener", "external"])
@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_non_finite_or_negative_sigma_rejected(rng, make, sigma):
    # Before any work: the external denoiser would otherwise hand 'nan' to its command.
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        make()(rng.standard_normal(SHAPE), sigma)


def _write_script(path, body):
    path.write_text("#!/usr/bin/env python3\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


class TestExternalDenoiser:
    def test_copy_command_acts_as_identity(self, tmp_path, rng):
        script = tmp_path / "copy_denoiser.py"
        _write_script(
            script,
            "import shutil, sys\nshutil.copyfile(sys.argv[1], sys.argv[2])\n",
        )
        denoiser = ExternalDenoiser([sys.executable, str(script)])
        x = rng.standard_normal(SHAPE).astype(np.float32).astype(float)
        np.testing.assert_allclose(denoiser(x, 0.3), x, atol=1e-7)

    def test_missing_command_raises(self, rng):
        denoiser = ExternalDenoiser(["/nonexistent/denoiser-binary"])
        with pytest.raises(ExternalDenoiserError, match="launch"):
            denoiser(rng.standard_normal(SHAPE), 0.1)

    def test_nonzero_exit_raises_with_stderr(self, tmp_path, rng):
        script = tmp_path / "failing.py"
        _write_script(script, "import sys\nsys.stderr.write('kaboom')\nsys.exit(3)\n")
        denoiser = ExternalDenoiser([sys.executable, str(script)])
        with pytest.raises(ExternalDenoiserError, match="kaboom"):
            denoiser(rng.standard_normal(SHAPE), 0.1)

    def test_wrong_shape_output_raises(self, tmp_path, rng):
        script = tmp_path / "reshaper.py"
        _write_script(
            script,
            "import sys\n"
            "sys.path.insert(0, '')\n"
            "from pgrestore.io import read_tensor, write_tensor\n"
            "x = read_tensor(sys.argv[1])\n"
            "write_tensor(sys.argv[2], x[:, :4, :4])\n",
        )
        denoiser = ExternalDenoiser([sys.executable, str(script)])
        with pytest.raises(ExternalDenoiserError, match="shape"):
            denoiser(rng.standard_normal(SHAPE), 0.1)

    def test_self_hosted_wiener_round_trip(self, tmp_path, rng):
        # external wrapper around the in-process denoiser agrees with it
        script = tmp_path / "wiener_wrapper.py"
        _write_script(
            script,
            "import sys\n"
            "from pgrestore.denoisers import WienerMMSE, WienerPrior\n"
            "from pgrestore.io import read_tensor, write_tensor\n"
            "x = read_tensor(sys.argv[1])\n"
            "prior = WienerPrior.smooth_default(x.shape[1:])\n"
            "write_tensor(sys.argv[2], WienerMMSE(prior)(x, float(sys.argv[3])))\n",
        )
        denoiser = ExternalDenoiser([sys.executable, str(script)])
        x = rng.standard_normal(SHAPE)
        external = denoiser(x, 0.4)
        internal = WienerMMSE(WienerPrior.smooth_default(SHAPE[1:]))(x, 0.4)
        assert np.linalg.norm(external - internal) <= 1e-6 * np.linalg.norm(internal)

    def test_runs_failure_context_in_scheme(self, tmp_path, rng):
        from pgrestore.kernels import delta_kernel
        from pgrestore.linops import CircularConvolution, fourier_filter

        denoiser = ExternalDenoiser(["/nonexistent/denoiser-binary"])
        op = CircularConvolution(delta_kernel(1), SHAPE)
        cfg = make_scheme_config("idpg", make_ddpm_schedule(3), 0.0)
        with pytest.raises(RuntimeError, match="iteration t=3"):
            run_scheme(denoiser, op, rng.standard_normal(SHAPE), cfg)


class TestFactory:
    def test_specs(self):
        prior = WienerPrior.smooth_default(SHAPE[1:])
        assert isinstance(make_denoiser("identity", prior), Identity)
        wiener = make_denoiser("wiener", prior)
        assert isinstance(wiener, WienerMMSE) and wiener.prior is prior
        assert isinstance(make_denoiser("gauss", prior), GaussianSmooth)
        assert make_denoiser("gauss:2.5", prior).kappa == 2.5
        external = make_denoiser("external:python3 run.py --flag", prior)
        assert external.cmd == ("python3", "run.py", "--flag")
        with pytest.raises(ValueError):
            make_denoiser("bm3d", prior)


def test_tensor_round_trip_via_files(tmp_path, rng):
    x = rng.standard_normal((3, 5, 7))
    path = tmp_path / "x.pgt"
    write_tensor(path, x)
    back = read_tensor(path)
    assert back.shape == (3, 5, 7)
    np.testing.assert_allclose(back, x, atol=1e-6)  # float32 storage
