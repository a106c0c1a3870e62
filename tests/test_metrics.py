"""Image quality metrics, focus scanning, resolution formulas."""

import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage as ndi
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoem import metrics, operators
from holoem.forward import OpticalConfig, simulate
from holoem.metrics import (
    _focus_scores,
    autofocus,
    focus_metric,
    mse,
    ncc,
    object_units,
    psnr,
    quality_report,
    resolution_limits,
    ssim,
)
from holoem.operators import _transfer_array, propagate
from holoem.phantoms import disk_mask, single_slice_stack

from conftest import PITCH, WAVELENGTH

BLOCK = metrics._SSIM_BLOCK  # output rows or columns per product in SSIM's window


class TestMseAndPsnr:
    def test_mse_hand_value(self):
        a = np.array([[0.0, 1.0], [2.0, 3.0]])
        b = np.array([[1.0, 1.0], [2.0, 1.0]])
        assert mse(a, b) == pytest.approx(1.25)

    def test_psnr_hand_value(self):
        a = np.array([[0.5, 1.0], [1.0, 1.0]])
        b = np.array([[1.0, 1.0], [1.0, 1.0]])
        # mse = 0.0625, peak defaults to max(reference) = 1
        assert psnr(a, b) == pytest.approx(10 * np.log10(1 / 0.0625))

    def test_identical_images_give_inf(self):
        a = np.ones((4, 4))
        assert psnr(a, a) == float("inf")
        assert psnr(a, a, peak=2.0) == float("inf")

    def test_explicit_peak(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 16.0)
        assert psnr(a, b, peak=255.0) == pytest.approx(10 * np.log10(255.0**2 / 256.0))

    def test_noise_lowers_psnr(self, rng):
        ref = rng.random((16, 16))
        small = ref + 0.01 * rng.standard_normal((16, 16))
        large = ref + 0.10 * rng.standard_normal((16, 16))
        assert psnr(small, ref, peak=1.0) > psnr(large, ref, peak=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mse(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            psnr(np.ones((2, 2)), np.zeros((2, 2)))  # peak would be 0
        with pytest.raises(ValueError, match="2-D"):
            psnr(np.ones((2, 2, 2)), np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            psnr(np.array([[1.0, np.nan]]), np.ones((1, 2)))
        for peak in (np.inf, np.nan):
            with pytest.raises(ValueError, match="peak must be positive and finite"):
                psnr(np.zeros((2, 2)), np.ones((2, 2)), peak=peak)

    def test_default_peak(self, rng):
        ref = rng.random((16, 16)) - 0.5
        test = ref + 0.01 * rng.standard_normal((16, 16))
        # a positive maximum is the peak
        assert psnr(test, ref) == psnr(test, ref, peak=float(ref.max()))
        # an absorber's real part is <= 0 everywhere: its dynamic range is the peak
        absorber = np.where(ref > 0, -0.04, -0.0)
        spread = float(absorber.max() - absorber.min())
        assert psnr(test, absorber) == psnr(test, absorber, peak=spread)
        with pytest.raises(ValueError, match="peak"):
            psnr(test, np.full((16, 16), -1.0))  # a constant non-positive reference


class TestSsim:
    def test_self_similarity(self, rng):
        a = rng.random((24, 24))
        assert ssim(a, a, peak=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_at_fixed_peak(self, rng):
        a = rng.random((20, 20))
        b = rng.random((20, 20))
        assert ssim(a, b, peak=1.0) == pytest.approx(ssim(b, a, peak=1.0), abs=1e-12)

    @pytest.mark.parametrize("shape", [(11, 11), (12, 11), (11, 30), (40, 33), (64, 64)])
    def test_matches_two_dimensional_window(self, rng, shape):
        """The separable window against the 2-D kernel convolved in 'valid' mode."""
        self._check_two_dimensional_window(rng, shape)

    @settings(max_examples=60)
    @given(shape=st.tuples(st.integers(11, 2 * BLOCK + 21), st.integers(11, 2 * BLOCK + 21)),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(11, 11), seed=0)
    @example(shape=(12, 11), seed=0)
    @example(shape=(11, 30), seed=0)
    @example(shape=(40, 33), seed=0)
    @example(shape=(64, 64), seed=0)
    # output sides of one and two whole blocks, and one past each
    @example(shape=(BLOCK + 10, BLOCK + 11), seed=0)
    @example(shape=(BLOCK + 11, BLOCK + 10), seed=0)
    @example(shape=(2 * BLOCK + 10, 2 * BLOCK + 11), seed=0)
    @example(shape=(2 * BLOCK + 11, 2 * BLOCK + 10), seed=0)
    @example(shape=(11, 300), seed=0)
    @example(shape=(300, 11), seed=0)
    def test_matches_two_dimensional_window_any_shape(self, shape, seed):
        """The same check over odd and even, square and non-square sides, and
        across the window's blocks of output rows and columns."""
        self._check_two_dimensional_window(np.random.default_rng(seed), shape)

    def test_window_bytes_do_not_depend_on_blas_threads(self):
        # the window is a BLAS product, and a library caller keeps OpenBLAS's pool
        script = ("import hashlib, numpy as np; from holoem.metrics import _windowed; "
                  "rng = np.random.default_rng(7); "
                  "print(*(hashlib.sha256(_windowed(rng.random(s)).tobytes()).hexdigest() "
                  "for s in ((300, 257), (512, 512))))")
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(metrics.__file__).parents[1])}
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, check=True, timeout=60)
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 2 and digests[0] == digests[1]

    @staticmethod
    def _check_two_dimensional_window(rng, shape):
        g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5**2))
        kernel = np.outer(g, g) / np.outer(g, g).sum()

        def windowed(x):
            return scipy.signal.fftconvolve(x, kernel, mode="valid")

        a = rng.random(shape)
        b = np.clip(a + 0.2 * rng.standard_normal(shape), 0.0, 1.0)
        # the window means themselves, elementwise, for images in [0, 1]
        mu_a, mu_b = windowed(a), windowed(b)
        for x, mu in ((a, mu_a), (b, mu_b)):
            got = metrics._windowed(x)
            assert got.shape == mu.shape and np.abs(got - mu).max() <= 1e-14
        c1, c2 = 0.01**2, 0.03**2
        var_a = windowed(a * a) - mu_a**2
        var_b = windowed(b * b) - mu_b**2
        cov = windowed(a * b) - mu_a * mu_b
        expected = float(np.mean(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                                 / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))))
        assert abs(ssim(a, b, peak=1.0) - expected) <= 1e-12

    def test_matches_reference_implementation(self, rng):
        sk = pytest.importorskip("skimage.metrics")
        a = rng.random((32, 32))
        b = np.clip(a + 0.1 * rng.standard_normal((32, 32)), 0.0, 1.0)
        theirs = sk.structural_similarity(
            a, b, win_size=11, gaussian_weights=True, sigma=1.5,
            use_sample_covariance=False, data_range=1.0,
        )
        assert ssim(a, b, peak=1.0) == pytest.approx(theirs, abs=1e-9)

    def test_anticorrelated_structure_scores_negative(self):
        disk = disk_mask(32, 32, 0.5, 0.5, 0.3, scale=32)
        assert ssim(disk, 1.0 - disk, peak=1.0) < 0.0

    def test_window_guard(self):
        with pytest.raises(ValueError, match="11"):
            ssim(np.ones((10, 12)), np.ones((10, 12)), peak=1.0)
        with pytest.raises(ValueError):
            ssim(np.ones((16, 16)), np.zeros((16, 16)))  # default peak 0
        with pytest.raises(ValueError, match="shapes differ"):
            ssim(np.ones((16, 16)), np.ones((16, 17)), peak=1.0)
        a = np.ones((16, 16))
        with pytest.raises(ValueError, match="peak must be positive and finite"):
            ssim(a, a, peak=np.inf)


class TestObjectUnits:
    @pytest.mark.parametrize("shape", [(24, 20), (15, 13)])
    def test_matches_the_folded_formula_bit_for_bit(self, rng, shape):
        # (r - median r) / 2 on the truth's own range, (x - t.min()) / span, with
        # np.median's value from an even and an odd number of pixels
        t = -0.04 * (rng.random(shape) > 0.5)
        t.flat[0] = -0.04
        r = 1.3 + 2 * t + 0.01 * rng.standard_normal(t.shape)
        placed, scaled, error = object_units(r, t)
        span = t.max() - t.min()
        np.testing.assert_array_equal(placed, ((r - np.median(r)) / 2.0 - t.min()) / span)
        np.testing.assert_array_equal(scaled, (t - t.min()) / span)
        assert error == pytest.approx(
            np.linalg.norm((r - np.median(r)) / 2.0 - t) / np.linalg.norm(t), rel=1e-13)

    @pytest.mark.parametrize("level", [-0.99, 0.0, 1.0, 3.7e5])
    def test_a_flat_estimate_reads_relative_error_one(self, rng, level):
        t = 0.04 * (rng.random((16, 16)) > 0.7)
        assert object_units(np.full(t.shape, level), t)[2] == 1.0

    def test_the_folded_truth_scores_perfectly(self, rng):
        # a flat background plus twice a sparse truth (median 0) is the truth
        t = -0.05 * (rng.random((32, 32)) > 0.9)
        placed, scaled, error = object_units(0.8 + 2 * t, t)
        assert error == pytest.approx(0.0, abs=1e-15)
        assert ssim(placed, scaled, peak=1.0) == pytest.approx(1.0, abs=1e-12)

    def test_the_background_level_drops_out(self, rng):
        t = 0.03 * (rng.random((16, 16)) > 0.8)
        r = 2 * t + 0.01 * rng.standard_normal(t.shape)
        low, high = object_units(r - 0.9, t), object_units(r + 5.0, t)
        np.testing.assert_allclose(low[0], high[0], atol=1e-12)
        assert low[2] == pytest.approx(high[2], rel=1e-10)

    @pytest.mark.parametrize("value", [0.0, -0.25])
    def test_a_constant_truth_keeps_span_one(self, rng, value):
        # a blank imaginary truth: both images stay finite, and only a zero
        # truth has no relative error
        t = np.full((16, 16), value)
        r = 0.5 + 0.01 * rng.standard_normal(t.shape)
        placed, scaled, error = object_units(r, t)
        np.testing.assert_array_equal(scaled, np.zeros_like(t))
        np.testing.assert_array_equal(placed, (r - np.median(r)) / 2.0 - value)
        assert np.isfinite(ssim(placed, scaled, peak=1.0))
        assert np.isfinite(psnr(placed, scaled, peak=1.0))
        assert (error is None) == (value == 0.0)

    def test_rejects_mismatched_or_non_finite_images(self):
        with pytest.raises(ValueError, match="shapes differ"):
            object_units(np.ones((4, 4)), np.ones((4, 5)))
        with pytest.raises(ValueError, match="non-finite"):
            object_units(np.ones((4, 4)), np.full((4, 4), np.nan))


class TestNcc:
    def test_affine_invariance(self, rng):
        a = rng.random((16, 16))
        assert ncc(2.0 * a + 3.0, a) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip(self, rng):
        a = rng.random((16, 16))
        assert ncc(-a, a) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_image_scores_zero(self, rng):
        a = rng.random((8, 8))
        assert ncc(np.full((8, 8), 2.0), a) == 0.0

    def test_bounded(self, rng):
        a, b = rng.random((16, 16)), rng.random((16, 16))
        assert -1.0 <= ncc(a, b) <= 1.0


def test_focus_metric_drops_under_blur():
    disk = disk_mask(32, 32, 0.5, 0.5, 0.3, scale=32).astype(np.float64)
    assert focus_metric(disk) > 5 * focus_metric(ndi.gaussian_filter(disk, 2.0))


@pytest.fixture(scope="module")
def holo():
    cfg = OpticalConfig(WAVELENGTH, PITCH, 128, 128, (1.0e-3,))
    return simulate(single_slice_stack(cfg, contrast=0.04), cfg)


@pytest.fixture(scope="module")
def anisotropic_holo():
    cfg = OpticalConfig(WAVELENGTH, PITCH, 96, 80, (1.0e-3,), pitch_y=1.3e-6)
    return simulate(single_slice_stack(cfg, contrast=0.04), cfg)


def _per_plane_scores(hologram, zs):
    """Focus scores from one ``propagate`` per plane, each with its own transfer."""
    field = hologram.intensity - hologram.intensity.mean()
    optics = (hologram.config.pitch_x, hologram.config.pitch_y, WAVELENGTH)
    return np.array([focus_metric(np.abs(propagate(field, *optics, -z, pad=True))) for z in zs])


class TestAutofocus:
    def test_finds_recording_distance(self, holo, caplog):
        with caplog.at_level(logging.WARNING, logger="holoem.metrics"):
            z = autofocus(holo, 0.6e-3, 1.4e-3, 10e-6)
        assert abs(z - 1.0e-3) <= 10e-6
        assert not any("scan boundary" in r.message for r in caplog.records)

    def test_boundary_warning(self, holo, caplog):
        # the true plane lies above the scanned range, so the maximum sits
        # on the upper boundary
        with caplog.at_level(logging.WARNING, logger="holoem.metrics"):
            z = autofocus(holo, 0.5e-3, 0.8e-3, 50e-6)
        assert z == pytest.approx(0.8e-3)
        assert any("boundary" in r.message for r in caplog.records)

    def test_scan_grid_is_inclusive(self, holo):
        # single-point scan degenerates to returning that point, whatever the step
        assert autofocus(holo, 0.9e-3, 0.9e-3, 10e-6) == pytest.approx(0.9e-3)
        assert autofocus(holo, 0.9e-3, 0.9e-3, 5e-324) == pytest.approx(0.9e-3)

    def test_one_plane_scan_has_no_boundary(self, holo, caplog):
        # a lone candidate is both edges of its scan; that says nothing about focus
        with caplog.at_level(logging.WARNING, logger="holoem.metrics"):
            assert autofocus(holo, 0.5e-3, 0.5e-3, 50e-6) == pytest.approx(0.5e-3)
            assert autofocus(holo, 0.5e-3, 0.54e-3, 50e-6) == pytest.approx(0.5e-3)
        assert not any("scan boundary" in r.message for r in caplog.records)

    @pytest.mark.parametrize("size, warns", [(64, True), (128, False)])
    @pytest.mark.parametrize("noise_seed", [None, 3, 4])
    def test_coarse_maximum_on_the_scan_edge_warns(self, caplog, size, warns, noise_seed):
        # at 64 px the coarse stage's blur moves the maximum to the scan's
        # first plane, and the fine stage's best is then not the boundary
        cfg = OpticalConfig(WAVELENGTH, PITCH, size, size, (1.0e-3,))
        hologram = simulate(single_slice_stack(cfg), cfg, seed=noise_seed)
        with caplog.at_level(logging.WARNING, logger="holoem.metrics"):
            z = autofocus(hologram, 0.5e-3, 1.5e-3, 15.625e-6)
        assert any("scan boundary" in r.message for r in caplog.records) == warns
        assert 0.5e-3 < z < 1.5e-3
        if not warns:
            assert z == pytest.approx(1.0e-3)

    @pytest.mark.parametrize("noise_seed", [None, 1])
    def test_sweep_matches_per_plane_propagation(self, noise_seed):
        cfg = OpticalConfig(WAVELENGTH, PITCH, 96, 80, (1.0e-3,), pitch_y=1.3e-6)
        noisy = simulate(single_slice_stack(cfg, contrast=0.04), cfg, seed=noise_seed)
        zs = 0.8e-3 + 25e-6 * np.arange(17)
        expected = _per_plane_scores(noisy, zs)
        scores = _focus_scores(noisy)(0.8e-3, 25e-6, 17, 0.0, 1)
        np.testing.assert_allclose(scores, expected, rtol=1e-12)
        assert autofocus(noisy, zs[0], zs[-1], 25e-6) == zs[int(np.argmax(expected))]

    @pytest.mark.parametrize("start, step, count", [
        (-0.1e-3, 12.5e-6, 17),  # crosses z = 0
        (0.0, 25e-6, 9),
        (0.9e-3, 10e-6, 1),
    ])
    def test_sweep_runs_on_the_signed_depth(self, anisotropic_holo, start, step, count):
        # the transfers' recurrence runs on -z itself, not on |z| with a
        # sign flip, so a scan through z = 0 matches per-plane propagation
        zs = start + step * np.arange(count)
        expected = _per_plane_scores(anisotropic_holo, zs)
        scores = _focus_scores(anisotropic_holo)(start, step, count, 0.0, 1)
        np.testing.assert_allclose(scores, expected, rtol=1e-12)
        assert autofocus(anisotropic_holo, start, zs[-1], step) == zs[int(np.argmax(expected))]

    def test_long_sweep_keeps_the_recurrence_accurate(self, anisotropic_holo):
        # rounding in the recurrence grows with the plane count; 1001 planes
        # bound it against one transfer build per plane
        zs = 0.5e-3 + 1e-6 * np.arange(1001)
        expected = _per_plane_scores(anisotropic_holo, zs)
        scores = _focus_scores(anisotropic_holo)(0.5e-3, 1e-6, 1001, 0.0, 1)
        np.testing.assert_allclose(scores, expected, rtol=1e-12)
        assert np.argmax(scores) == np.argmax(expected)

    def test_sweep_keeps_no_transfer_and_takes_the_grid_once(self, holo, monkeypatch):
        # the sweep's transfers come from its own recurrence, not from the
        # cache the solvers keep, and the grid part is taken once per stage:
        # the decimated coarse frame and the full fine frame
        frames = []
        original = operators._transfer_grid

        def recording(rows, cols, *optics):
            frames.append((rows, cols))
            return original(rows, cols, *optics)

        monkeypatch.setattr(operators, "_transfer_grid", recording)
        _transfer_array.cache_clear()
        autofocus(holo, 0.5e-3, 1.5e-3, 10e-6)  # 101 planes
        assert len(frames) == len(set(frames)) == 2
        info = _transfer_array.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0)

    @staticmethod
    def _count_calls(monkeypatch):
        counts = Counter()
        for module, name in ((metrics, "_propagate_array"), (metrics, "focus_metric"),
                             (metrics, "_half_spectrum"), (np.fft, "rfft"),
                             (np.fft, "fft"), (np.fft, "rfft2"), (np.fft, "fft2")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_sweep_transforms_the_hologram_once(self, holo, monkeypatch):
        # the benchmark reads one focus span and one propagate span per plane
        # visited, in either stage; both stages share the hologram's transform,
        # and only the forward helper calls numpy's forward rfft and fft
        counts = self._count_calls(monkeypatch)
        autofocus(holo, 0.8e-3, 1.2e-3, 25e-6)  # 17 planes: 9 coarse (m = 2), 5 fine
        assert counts == {"_propagate_array": 14, "focus_metric": 14, "_half_spectrum": 1,
                          "rfft": 1, "fft": 1}

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    @pytest.mark.parametrize("height, width, pitch_y", [
        (128, 128, None),
        (129, 160, 1.3e-6),
        (256, 256, None),
    ])
    def test_decimated_coarse_stage_lands_where_the_full_frame_does(self, monkeypatch, height,
                                                                     width, pitch_y, seed):
        # the coarse stage scores the 1 px low-passed spectrum cut to the
        # frame's central quarter. It picks the full frame's coarse plane or a
        # neighbour, whose fine window still holds that plane, and autofocus
        # returns the same plane as with no decimation
        cfg = OpticalConfig(WAVELENGTH, PITCH, width, height, (1.0e-3,), pitch_y=pitch_y)
        noisy = simulate(single_slice_stack(cfg), cfg, seed=seed)
        stages = []
        scorer = metrics._focus_scores

        def recording(hologram):
            scores = scorer(hologram)

            def record(*args):
                stages.append(scores(*args))
                return stages[-1]

            return record

        monkeypatch.setattr(metrics, "_focus_scores", recording)
        for z_step in (5e-6, 15.625e-6, 50e-6):
            stages.clear()
            z = autofocus(noisy, 0.5e-3, 1.5e-3, z_step)
            with monkeypatch.context() as exact:
                exact.setattr(metrics, "_DECIMATED_MIN_SIDE", np.inf)
                assert autofocus(noisy, 0.5e-3, 1.5e-3, z_step) == z, z_step
            decimated, full = (int(np.argmax(stages[i])) for i in (0, 2))
            assert abs(decimated - full) <= 1, z_step

    @pytest.mark.parametrize("height, width", [(64, 64), (80, 96)])
    def test_small_images_score_the_coarse_stage_on_the_full_frame(self, monkeypatch, height,
                                                                    width):
        cfg = OpticalConfig(WAVELENGTH, PITCH, width, height, (1.0e-3,))
        small = simulate(single_slice_stack(cfg, contrast=0.04), cfg)
        frames = set()
        original = operators._transfer_grid

        def recording(rows, cols, *optics):
            frames.add((rows, cols))
            return original(rows, cols, *optics)

        monkeypatch.setattr(operators, "_transfer_grid", recording)
        autofocus(small, 0.5e-3, 1.5e-3, 10e-6)
        assert frames == {(2 * height, 2 * width)}

    @pytest.mark.parametrize("frame, d", [((64, 48), 2), ((58, 40), 2), ((60, 42), 3),
                                          ((64, 48), 1)])
    def test_decimated_spectrum_samples_a_band_limited_field(self, rng, frame, d):
        # a field with no frequency at or above 1 / (2 d) cycles per pixel is,
        # from its cut spectrum, the field sampled every d pixels (times d^2,
        # as the cut frame's inverse scales by its own size)
        field = rng.standard_normal(frame)
        spectrum = np.fft.rfft2(field)
        ky = np.abs(np.fft.fftfreq(frame[0]))[:, None]
        kx = np.fft.rfftfreq(frame[1])[None, :]
        spectrum[(ky >= 0.5 / d) | (kx >= 0.5 / d)] = 0.0
        band_limited = np.fft.irfft2(spectrum, s=frame)
        half = operators._half_spectrum(band_limited, frame)
        kept, cut = operators._decimated(half, frame, d)
        assert cut == (frame[0] // d, frame[1] // d)
        assert (kept is half) == (d == 1)
        sampled = operators._irfft2_crop(kept, cut, *cut)
        np.testing.assert_allclose(sampled, d * d * band_limited[::d, ::d], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("height, width, pitch_y", [
        (512, 512, PITCH),
        (129, 160, 1.3e-6),
        (200, 131, PITCH),
    ])
    def test_decimated_transfers_are_the_full_frames_sub_block(self, height, width, pitch_y):
        # the cut keeps kx <= f1 / 2 and the ky columns of fftfreq(f0) within
        # the full frame; at twice the pitch its transfers are those entries
        frame = (2 * height, 2 * width)
        cut = (height, width)
        rows = slice(0, cut[1] // 2 + 1)
        cols = np.r_[:(cut[0] + 1) // 2, frame[0] - cut[0] // 2:frame[0]]
        sweep = (WAVELENGTH, 0.2e-3, -0.15e-3, 4)  # crosses z = 0
        full = operators._sweep_transfers(*frame, PITCH, pitch_y, *sweep)
        decimated = operators._sweep_transfers(*cut, 2 * PITCH, 2 * pitch_y, *sweep)
        for (re_f, im_f), (re_d, im_d) in zip(full, decimated):
            np.testing.assert_array_equal(re_d, re_f[rows][:, cols])
            np.testing.assert_array_equal(im_d, im_f[rows][:, cols])

    @pytest.mark.parametrize("z_max, z_step", [
        (0.8e-3, 50e-6),  # m = 1
        (1.2e-3, 25e-6),  # m = 2
        (1.3e-3, 15.625e-6),  # m = 3
        (1.5e-3, 10e-6),  # m = 5
        (1.5e-3, 5e-6),  # m = 10
    ])
    def test_sweep_visits_a_coarse_stride_and_one_window(self, holo, monkeypatch, z_max, z_step):
        n = int(np.floor((z_max - 0.5e-3) / z_step + 1e-9)) + 1
        m = max(1, round(50e-6 / z_step))
        counts = self._count_calls(monkeypatch)
        autofocus(holo, 0.5e-3, z_max, z_step)
        assert counts["focus_metric"] <= -(-n // m) + 2 * m + 1
        assert counts["_half_spectrum"] == 1

    @pytest.mark.parametrize("z_min, z_max, edge", [
        (0.5e-3, 0.75e-3, 0.75e-3),  # focus above the scan
        (1.2e-3, 1.6e-3, 1.2e-3),  # focus below the scan
    ])
    def test_boundary_warning_on_either_edge_of_a_two_stage_scan(self, holo, caplog,
                                                                  z_min, z_max, edge):
        # 10 um steps, so the coarse stride is 5 planes and the fine window
        # is clipped at the scan's edge
        with caplog.at_level(logging.WARNING, logger="holoem.metrics"):
            assert autofocus(holo, z_min, z_max, 10e-6) == pytest.approx(edge)
        assert any("scan boundary" in r.message for r in caplog.records)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_finds_recording_distance_under_shot_noise(self, seed):
        # default photon scale: about 1e4 mean counts, as `holoem simulate --noise-seed`
        cfg = OpticalConfig(WAVELENGTH, PITCH, 256, 256, (1.0e-3,))
        noisy = simulate(single_slice_stack(cfg), cfg, seed=seed)
        z = autofocus(noisy, 0.5e-3, 1.5e-3, 50e-6)
        assert abs(z - 1.0e-3) <= 10e-6

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a clean 64 px plane at 1 mm "
                       "lands at the scan's near edge")
    def test_finds_a_small_plane_over_a_wide_scan(self):
        # 0.540 / 0.516 / 0.500 mm at 10 / 15.625 / 50 um steps, with a
        # scan-boundary warning; at 96 and 128 px the same sweep finds 1.000 mm
        cfg = OpticalConfig(WAVELENGTH, PITCH, 64, 64, (1.0e-3,))
        z = autofocus(simulate(single_slice_stack(cfg), cfg), 0.5e-3, 1.5e-3, 15.625e-6)
        assert abs(z - 1.0e-3) <= 10e-6

    def test_validation(self, holo):
        with pytest.raises(ValueError):
            autofocus(holo, 1.0e-3, 0.5e-3, 10e-6)
        with pytest.raises(ValueError):
            autofocus(holo, 0.5e-3, 1.0e-3, 0.0)

    @pytest.mark.parametrize("z_step", [1e-320, 1e-3 / metrics.FOCUS_MAX_PLANES])
    def test_plane_count_is_capped_before_any_transform(self, holo, monkeypatch, z_step):
        # 0.5-1.5 mm: an infinite count, then one plane over the cap
        counts = self._count_calls(monkeypatch)
        with pytest.raises(ValueError, match=f"at most {metrics.FOCUS_MAX_PLANES}"):
            autofocus(holo, 0.5e-3, 1.5e-3, z_step)
        assert not counts


class TestResolutionLimits:
    def test_formulas(self):
        lateral, axial = resolution_limits(675e-9, 0.5)
        assert lateral == pytest.approx(675e-9)
        assert axial == pytest.approx(5.4e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            resolution_limits(0.0, 0.5)
        with pytest.raises(ValueError):
            resolution_limits(675e-9, 0.0)
        with pytest.raises(ValueError):
            resolution_limits(675e-9, 1.2)
        for aperture in (1e-160, 1e-200):  # axial 2λ/NA² is inf, or NA² underflows to 0
            with pytest.raises(ValueError, match="numerical aperture"):
                resolution_limits(675e-9, aperture)
        for wavelength in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="wavelength"):
                resolution_limits(wavelength, 0.5)


class TestQualityReport:
    def test_consistent_with_components(self, rng):
        ref = rng.random((24, 24))
        test = np.clip(ref + 0.05 * rng.standard_normal((24, 24)), 0.0, 1.0)
        rep = quality_report(test, ref, peak=1.0)
        assert rep == {"mse": mse(test, ref), "psnr_db": psnr(test, ref, peak=1.0),
                       "ssim": ssim(test, ref, peak=1.0)}
        assert list(rep) == ["mse", "psnr_db", "ssim"]

    def test_default_peak_on_a_non_positive_reference(self, rng):
        ref = -0.04 * (rng.random((24, 24)) > 0.7)
        test = ref + 0.005 * rng.standard_normal((24, 24))
        rep = quality_report(test, ref)
        assert rep == quality_report(test, ref, peak=0.04)
        assert rep["ssim"] == ssim(test, ref, peak=0.04) == ssim(test, ref)
        assert np.isfinite(rep["psnr_db"])
