"""Poisson likelihood, its gradients, the multiplicative updates, and the
full reconstruction loops.

Gradients are validated against central finite differences of the scalar
objective; the loop-level tests pin down behavior measured on a fixed
well-conditioned instance (128 px, single slice at 1 mm) where both inits
descend monotonically with the regularizer off.
"""

import numpy as np
import pytest

from holoem import em
from holoem.baseline import BaselineParams, baseline_reconstruct
from holoem.em import (
    NumericError,
    ReconParams,
    ReconTrace,
    alternating_update,
    apply_upper_bound,
    em_step,
    nll,
    nll_gradient_slices,
    nll_gradient_slices_complex,
    predicted_intensity,
    reconstruct_complex,
    reconstruct_real,
    tv_gradient,
    tv_value,
)
from holoem.forward import Hologram, ObjectStack, OpticalConfig, simulate
from holoem.grid import RealGrid2D
from holoem.phantoms import single_slice_stack

from conftest import PITCH, SHORT_DISTANCES, WAVELENGTH


def make_config(side=8, distances=SHORT_DISTANCES):
    return OpticalConfig(WAVELENGTH, PITCH, side, side, distances)


@pytest.fixture(scope="module")
def demo128():
    cfg = OpticalConfig(WAVELENGTH, PITCH, 128, 128, (1.0e-3,))
    truth = single_slice_stack(cfg, contrast=0.04)
    return cfg, truth, simulate(truth, cfg)


@pytest.fixture(scope="module")
def bound64():
    # cos(k0 z) = +1 at an integer number of wavelengths, so the folded
    # background is positive and an upper bound near it actually engages
    z = 1481 * WAVELENGTH
    cfg = OpticalConfig(WAVELENGTH, PITCH, 64, 64, (z,))
    truth = single_slice_stack(cfg, contrast=0.04)
    return cfg, truth, simulate(truth, cfg)


class TestNll:
    def test_matches_elementwise_loop(self):
        g = np.array([[0.0, 1.5], [2.0, 0.3]])
        ghat = np.array([[0.7, 1.2], [-0.3, 1e-20]])  # negative and sub-floor entries
        floor = 1e-6
        expected = 0.0
        for i in range(2):
            for j in range(2):
                expected += ghat[i, j]
                if g[i, j] > 0:
                    expected -= g[i, j] * np.log(max(ghat[i, j], floor))
        assert nll(g, ghat, ratio_floor=floor) == pytest.approx(expected, rel=1e-12)

    def test_accepts_wrapped_types(self, demo128):
        cfg, truth, holo = demo128
        pred = predicted_intensity(truth, cfg)
        raw = nll(holo.intensity.data, pred.data)
        assert nll(holo, pred) == pytest.approx(raw, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            nll(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            nll(-np.ones((2, 2)), np.ones((2, 2)))


def _nll_of(arr, g, cfg, pad):
    stack = ObjectStack.from_arrays(list(arr), PITCH)
    return nll(g, predicted_intensity(stack, cfg, pad=pad))


@pytest.mark.parametrize("pad", [False, True])
def test_real_gradient_matches_finite_differences(rng, pad):
    w = 0.5 + 0.05 * rng.standard_normal((2, 8, 8))
    g = rng.uniform(0.5, 1.5, (8, 8))
    g[0, 0] = 0.0  # zero-count pixel contributes g_hat alone
    d = rng.standard_normal((2, 8, 8))
    cfg = make_config()

    stack = ObjectStack.from_arrays(list(w), PITCH)
    pred = predicted_intensity(stack, cfg, pad=pad)
    assert pred.data.min() > 0.1  # smooth region, floor clamp inactive
    grads = nll_gradient_slices(g, pred, cfg, pad=pad)
    analytic = sum(float(np.sum(gr.data * d[i])) for i, gr in enumerate(grads))

    t = 1e-6
    numeric = (_nll_of(w + t * d, g, cfg, pad) - _nll_of(w - t * d, g, cfg, pad)) / (2 * t)
    assert abs(numeric - analytic) / abs(analytic) < 1e-7


@pytest.mark.parametrize("pad", [False, True])
def test_complex_gradient_matches_finite_differences(rng, pad):
    w = (0.5 + 0.05 * rng.standard_normal((2, 8, 8))
         + 1j * 0.05 * rng.standard_normal((2, 8, 8)))
    g = rng.uniform(0.5, 1.5, (8, 8))
    g[3, 4] = 0.0
    d = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    cfg = make_config()

    stack = ObjectStack.from_arrays(list(w), PITCH)
    pred = predicted_intensity(stack, cfg, pad=pad)
    grads = nll_gradient_slices_complex(g, pred, cfg, pad=pad)
    # real part differentiates w.r.t. Re(w), imaginary part w.r.t. Im(w)
    analytic = sum(float(np.sum((np.conj(gr.data) * d[i]).real))
                   for i, gr in enumerate(grads))

    t = 1e-6
    numeric = (_nll_of(w + t * d, g, cfg, pad) - _nll_of(w - t * d, g, cfg, pad)) / (2 * t)
    assert abs(numeric - analytic) / abs(analytic) < 1e-7


def test_predicted_intensity_does_not_clamp():
    cfg = make_config(distances=(2.0e-6,))
    block = np.zeros((8, 8))
    block[2:6, 2:6] = -5.0
    pred = predicted_intensity(ObjectStack.from_arrays([block], PITCH), cfg)
    assert pred.data.min() < 0.0


class TestTotalVariation:
    def test_value_matches_loop(self, rng):
        w = rng.standard_normal((6, 7))
        expected = 0.0
        for i in range(6):
            for j in range(7):
                dx = w[i, j + 1] - w[i, j] if j + 1 < 7 else 0.0
                dy = w[i + 1, j] - w[i, j] if i + 1 < 6 else 0.0
                expected += np.hypot(dx, dy)
        assert tv_value(w) == pytest.approx(expected, rel=1e-12)
        grid = RealGrid2D(w, PITCH, PITCH)
        assert tv_value(grid) == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        eps = 0.05

        def smoothed(w):
            dx = np.zeros_like(w)
            dy = np.zeros_like(w)
            dx[:, :-1] = w[:, 1:] - w[:, :-1]
            dy[:-1, :] = w[1:, :] - w[:-1, :]
            return float(np.sum(np.sqrt(dx**2 + dy**2 + eps**2)))

        w = rng.standard_normal((9, 8))
        d = rng.standard_normal((9, 8))
        grad = tv_gradient(w, eps)
        analytic = float(np.sum(grad * d))
        t = 1e-6
        numeric = (smoothed(w + t * d) - smoothed(w - t * d)) / (2 * t)
        assert abs(numeric - analytic) / abs(analytic) < 1e-7

    def test_gradient_wrapper_and_guard(self, rng):
        w = RealGrid2D(rng.standard_normal((5, 5)), PITCH, PITCH)
        out = tv_gradient(w, 0.1)
        assert isinstance(out, RealGrid2D)
        with pytest.raises(ValueError):
            tv_gradient(w, 0.0)

    def test_constant_image_has_zero_tv(self):
        assert tv_value(np.full((5, 5), 3.2)) == 0.0


class TestUpdateAlgebra:
    def test_em_step_values(self):
        w = np.array([1.0, -1.0, 0.0])
        grad = np.array([0.2, 0.2, 0.5])
        np.testing.assert_allclose(em_step(w, grad), [0.8, -1.2, 0.0], atol=1e-15)

    def test_em_step_shape_guard(self):
        with pytest.raises(ValueError):
            em_step(np.ones(3), np.ones(4))

    def test_em_step_grid_wrapper(self):
        w = RealGrid2D(np.full((2, 2), 2.0), PITCH, PITCH)
        g = RealGrid2D(np.full((2, 2), 0.25), PITCH, PITCH)
        out = em_step(w, g)
        assert isinstance(out, RealGrid2D)
        np.testing.assert_allclose(out.data, 1.5)

    def test_alternating_update_values(self):
        # data step first, TV step applied to its result
        out = alternating_update(np.array([2.0]), np.array([0.25]),
                                 np.array([1.0]), tau=0.1)
        np.testing.assert_allclose(out, [1.35], atol=1e-15)
        out = alternating_update(np.array([-2.0]), np.array([-0.5]),
                                 np.array([-1.0]), tau=0.1)
        np.testing.assert_allclose(out, [-0.9], atol=1e-15)

    def test_alternating_update_guard(self):
        with pytest.raises(ValueError):
            alternating_update(np.ones(2), np.ones(2), np.ones(2), tau=-0.1)

    def test_apply_upper_bound_values(self):
        w = np.array([0.0, 2.0, -3.0])
        np.testing.assert_allclose(apply_upper_bound(w, 1.0, 0.5), [0.0, 1.5, -3.0])
        np.testing.assert_allclose(apply_upper_bound(w, 1.0, 0.0), [0.0, 1.0, -3.0])
        np.testing.assert_allclose(apply_upper_bound(w, 1.0, 1.0), w)
        per_pixel = np.array([0.5, 3.0, 1.0])
        np.testing.assert_allclose(apply_upper_bound(np.array([1.0, 1.0, 1.0]),
                                                     per_pixel, 0.5),
                                   [0.75, 1.0, 1.0])

    def test_apply_upper_bound_guard(self):
        with pytest.raises(ValueError):
            apply_upper_bound(np.ones(2), 1.0, 1.5)


class TestReconParams:
    @pytest.mark.parametrize("kw", [
        dict(max_iters=0),
        dict(beta=-0.1),
        dict(beta=1.5),
        dict(tau=-1.0),
        dict(tv_epsilon=0.0),
        dict(ratio_floor=0.0),
        dict(init_mode="random"),
        dict(stop_rule="never"),
        dict(stop_delta=0.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            ReconParams(**kw)

    def test_defaults(self):
        p = ReconParams()
        assert p.max_iters == 100 and p.init_mode == "backpropagation"
        assert p.tau is None and p.upper_bound is None


@pytest.mark.parametrize("init", ["backpropagation", "constant"])
def test_nll_decreases_without_regularizer(demo128, init):
    _, _, holo = demo128
    _, trace = reconstruct_real(holo, ReconParams(max_iters=50, tau=0.0, init_mode=init))
    assert not trace.diverged
    assert len(trace) == 50
    assert np.all(np.diff(trace.nll) < 0)


def test_trace_ssim_improves_over_backpropagation(demo128):
    _, truth, holo = demo128
    _, trace = reconstruct_real(holo, ReconParams(max_iters=100), ground_truth=truth)
    assert trace.ssim[0] is not None
    assert trace.ssim[-1] > 0.25
    assert trace.ssim[-1] > trace.ssim[0] + 0.1


def test_oversized_tv_weight_flags_divergence(demo128):
    _, _, holo = demo128
    _, trace = reconstruct_real(
        holo, ReconParams(max_iters=30, tau=0.05, init_mode="constant"))
    assert trace.diverged
    assert len(trace) < 30  # halted, not exhausted


def test_huge_tv_weight_raises_numeric_error(demo128):
    _, _, holo = demo128
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            reconstruct_real(holo, ReconParams(max_iters=30, tau=2.0,
                                               init_mode="constant"))


class TestUpperBound:
    def test_hard_clip_caps_estimate(self, bound64):
        _, _, holo = bound64
        free, _ = reconstruct_real(holo, ReconParams(max_iters=10))
        capped, trace = reconstruct_real(
            holo, ReconParams(max_iters=10, upper_bound=1.0, beta=0.0))
        assert free.slices[0].data.real.max() > 1.0
        assert capped.slices[0].data.real.max() <= 1.0 + 1e-12
        assert not trace.diverged

    def test_scalar_and_grid_bounds_agree(self, bound64):
        cfg, _, holo = bound64
        a, _ = reconstruct_real(holo, ReconParams(max_iters=10, upper_bound=1.0, beta=0.5))
        ub = RealGrid2D(np.ones(cfg.grid_shape), PITCH, PITCH)
        b, _ = reconstruct_real(holo, ReconParams(max_iters=10, upper_bound=ub, beta=0.5))
        np.testing.assert_array_equal(a.slices[0].data, b.slices[0].data)

    def test_relaxed_clip_binds_but_overshoots(self, bound64):
        _, _, holo = bound64
        free, _ = reconstruct_real(holo, ReconParams(max_iters=10))
        soft, _ = reconstruct_real(holo, ReconParams(max_iters=10, upper_bound=1.0, beta=0.5))
        assert not np.array_equal(soft.slices[0].data, free.slices[0].data)
        assert 1.0 < soft.slices[0].data.real.max() < free.slices[0].data.real.max()

    def test_mismatched_bound_grid_rejected(self, bound64):
        _, _, holo = bound64
        bad = RealGrid2D(np.ones((64, 32)), PITCH, PITCH)
        with pytest.raises(ValueError):
            reconstruct_real(holo, ReconParams(max_iters=2, upper_bound=bad))

    def test_complex_mode_rejects_bound(self, bound64):
        _, _, holo = bound64
        with pytest.raises(ValueError, match="real mode"):
            reconstruct_complex(holo, ReconParams(max_iters=2, upper_bound=1.0))


def test_relative_change_stop(bound64):
    _, _, holo = bound64
    _, trace = reconstruct_real(holo, ReconParams(
        max_iters=50, stop_rule="relative_change", stop_delta=0.5))
    assert trace.stopped_early
    assert len(trace) == 1
    _, trace = reconstruct_real(holo, ReconParams(
        max_iters=8, stop_rule="relative_change", stop_delta=1e-30))
    assert not trace.stopped_early
    assert len(trace) == 8


def test_real_mode_output_is_real_only(bound64):
    _, _, holo = bound64
    stack, _ = reconstruct_real(holo, ReconParams(max_iters=3))
    assert stack.real_only
    assert np.all(stack.slices[0].data.imag == 0.0)


def test_complex_mode_output(bound64):
    _, _, holo = bound64
    stack, trace = reconstruct_complex(holo, ReconParams(max_iters=3,
                                                         init_mode="constant"))
    assert not stack.real_only
    assert np.any(stack.slices[0].data.imag != 0.0)
    assert len(trace) == 3


def test_trace_integrity(bound64):
    _, truth, holo = bound64
    _, trace = reconstruct_real(holo, ReconParams(max_iters=4))
    assert trace.iterations == [1, 2, 3, 4]
    assert len(trace.nll) == len(trace.tv) == len(trace.ssim) == len(trace.millis) == 4
    assert all(s is None for s in trace.ssim)
    assert all(m >= 0.0 for m in trace.millis)
    assert ReconTrace.COLUMNS == ("iteration", "nll", "tv", "ssim", "millis")

    _, traced = reconstruct_real(holo, ReconParams(max_iters=2), ground_truth=truth)
    assert all(isinstance(s, float) for s in traced.ssim)


def test_explicit_config_must_match_hologram(demo128):
    cfg, _, holo = demo128
    other = OpticalConfig(WAVELENGTH, PITCH, 64, 64, cfg.slice_distances)
    with pytest.raises(ValueError):
        reconstruct_real(holo, ReconParams(max_iters=1), config=other)
    with pytest.raises(ValueError):
        baseline_reconstruct(holo, BaselineParams(max_iters=1), config=other)
    coarse = OpticalConfig(WAVELENGTH, 2e-6, 32, 32, cfg.slice_distances)
    with pytest.raises(ValueError):
        baseline_reconstruct(holo, BaselineParams(max_iters=1), config=coarse)


def test_solver_runs_the_public_update_helpers(bound64, monkeypatch):
    """The loop applies the tested alternating_update and apply_upper_bound."""
    _, _, holo = bound64
    calls = {"alternating_update": 0, "apply_upper_bound": 0}
    for name in calls:
        original = getattr(em, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(em, name, spy)
    _, trace = reconstruct_real(holo, ReconParams(max_iters=3, upper_bound=1.0, beta=0.5))
    assert len(trace) == 3
    assert calls == {"alternating_update": 3, "apply_upper_bound": 3}
