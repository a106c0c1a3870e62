"""Additive least-squares comparator: step-size estimate and descent loop."""

import numpy as np
import pytest

from holoem.baseline import BaselineParams, baseline_reconstruct, estimate_step_size
from holoem.forward import OpticalConfig, simulate
from holoem.operators import stack_adjoint, stack_forward
from holoem.phantoms import single_slice_stack

from conftest import PITCH, WAVELENGTH


def dense_normal_matrix(distances, pad):
    """H* H as an explicit matrix over the real slice coefficients."""
    n = len(distances) * 64
    m = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        v = e.reshape(len(distances), 8, 8)
        out = stack_adjoint(
            stack_forward(v, PITCH, PITCH, WAVELENGTH, distances, pad=pad),
            PITCH, PITCH, WAVELENGTH, distances, pad=pad,
        ).real
        m[:, i] = out.ravel()
    return m


@pytest.mark.parametrize("pad", [False, True])
@pytest.mark.parametrize("distances", [(1.0e-3,), (0.9e-3, 1.3e-3)])
def test_step_size_against_dense_eigenvalue(distances, pad):
    cfg = OpticalConfig(WAVELENGTH, PITCH, 8, 8, distances, pad=pad)
    m = dense_normal_matrix(distances, pad)
    assert np.max(np.abs(m - m.T)) < 1e-12  # the operator really is symmetric
    lam_dense = float(np.linalg.eigvalsh(m).max())
    lam_power = 1.0 / estimate_step_size(cfg)
    # power iteration approaches the top eigenvalue from below
    assert lam_power <= lam_dense * (1.0 + 1e-9)
    assert abs(lam_power - lam_dense) / lam_dense < 0.02


def test_step_size_is_seed_deterministic():
    # the power iteration starts from a fixed seed, so repeated estimates agree bitwise
    cfg = OpticalConfig(WAVELENGTH, PITCH, 8, 8, (1.0e-3,))
    assert estimate_step_size(cfg) == estimate_step_size(cfg)


@pytest.fixture(scope="module")
def demo64():
    cfg = OpticalConfig(WAVELENGTH, PITCH, 64, 64, (1.0e-3,))
    truth = single_slice_stack(cfg, contrast=0.04)
    return cfg, truth, simulate(truth, cfg)


def test_objective_decreases_at_default_step(demo64):
    cfg, truth, holo = demo64
    stack, trace = baseline_reconstruct(holo, BaselineParams(max_iters=30),
                                        ground_truth=truth)
    assert not trace.diverged
    assert len(trace) == 30
    assert np.all(np.diff(trace.nll) < 0)  # least-squares objective here
    assert stack.dtype == np.float64 and stack.shape == (1,) + cfg.grid_shape
    assert all(isinstance(s, float) for s in trace.ssim)


def test_oversized_step_flags_divergence(demo64):
    _, _, holo = demo64
    # the step is always 1/L; a TV weight far past the data term's scale oversteps it
    stack, trace = baseline_reconstruct(holo, BaselineParams(max_iters=30, tau=100.0))
    assert trace.diverged
    assert len(trace) == 9  # halted after five straight increases
    # and returns the estimate from before the first of them, bit for bit
    capped, _ = baseline_reconstruct(holo, BaselineParams(max_iters=4, tau=100.0))
    assert stack.tobytes() == capped.tobytes()


def test_trace_without_truth(demo64):
    _, _, holo = demo64
    _, trace = baseline_reconstruct(holo, BaselineParams(max_iters=3))
    assert trace.iterations == [1, 2, 3]
    assert all(s is None for s in trace.ssim)


@pytest.mark.parametrize("kw", [
    dict(max_iters=0),
    dict(tau=float("nan")),
    dict(tau=-0.5),
    dict(tau=float("inf")),
])
def test_params_validation(kw):
    with pytest.raises(ValueError):
        BaselineParams(**kw)


def test_step_size_refuses_a_degenerate_operator(monkeypatch):
    # an adjoint that annihilates everything leaves power iteration at zero
    cfg = OpticalConfig(WAVELENGTH, PITCH, 8, 8, (1.0e-3,))
    monkeypatch.setattr("holoem.baseline.stack_adjoint",
                        lambda field, *optics, real: np.zeros((1, 8, 8)))
    with pytest.raises(ValueError, match="power iteration collapsed"):
        estimate_step_size(cfg)
