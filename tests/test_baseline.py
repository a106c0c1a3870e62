"""Additive least-squares comparator: step size, data-term gradient and
descent loop."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from holoem import baseline, em
from holoem.baseline import baseline_reconstruct
from holoem.em import ReconParams
from holoem.forward import OpticalConfig, simulate
from holoem.operators import stack_adjoint, stack_forward
from holoem.phantoms import single_slice_stack

from conftest import PITCH, WAVELENGTH, directional_check


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
def test_slice_count_bounds_the_top_eigenvalue(distances, pad):
    # the baseline steps at 1/S: on the grid H*H is one rank-one block
    # c c^T per frequency, c_z = cos(k0 z (root - 1)), whose top eigenvalue
    # S is reached at zero frequency; on the padded frame constant slices
    # still give S, and the mean split bounds it by 2S
    m = dense_normal_matrix(distances, pad)
    assert np.max(np.abs(m - m.T)) < 1e-12  # the operator really is symmetric
    lam = float(np.linalg.eigvalsh(m).max())
    s = len(distances)
    if pad:
        assert s * (1.0 - 1e-9) <= lam < 2 * s
    else:
        assert abs(lam - s) < 1e-9


@pytest.fixture(scope="module")
def demo64():
    cfg = OpticalConfig(WAVELENGTH, PITCH, 64, 64, (1.0e-3,))
    truth = single_slice_stack(cfg, contrast=0.04)
    return cfg, truth, simulate(truth, cfg)


def test_objective_decreases_at_default_step(demo64):
    cfg, truth, holo = demo64
    stack, trace = baseline_reconstruct(holo, ReconParams(max_iters=30),
                                        ground_truth=truth)
    assert not trace.diverged
    assert len(trace) == 30
    assert np.all(np.diff(trace.nll) < 0)  # least-squares objective here
    assert stack.dtype == np.float64 and stack.shape == (1,) + cfg.grid_shape
    assert all(isinstance(s, float) for s in trace.ssim)


def test_oversized_step_flags_divergence(demo64):
    _, _, holo = demo64
    # the step is always 1/S; a TV weight far past the data term's scale oversteps it
    stack, trace = baseline_reconstruct(holo, ReconParams(max_iters=30, tau=100.0))
    assert trace.diverged
    assert len(trace) == 9  # halted after five straight increases
    # and returns the estimate from before the first of them, bit for bit
    capped, _ = baseline_reconstruct(holo, ReconParams(max_iters=4, tau=100.0))
    assert stack.tobytes() == capped.tobytes()


def test_trace_without_truth(demo64):
    _, _, holo = demo64
    _, trace = baseline_reconstruct(holo, ReconParams(max_iters=3))
    assert trace.iterations == [1, 2, 3]
    assert all(s is None for s in trace.ssim)


@pytest.mark.parametrize("kw", [dict(upper_bound=1.0), dict(stop_rule="relative_change")],
                         ids=["upper-bound", "relative-change"])
def test_refuses_a_bound_and_a_relative_change_stop(demo64, kw):
    # the baseline reads max_iters and tau alone; settings it would ignore raise
    _, _, holo = demo64
    with pytest.raises(ValueError, match="no upper bound and no relative_change"):
        baseline_reconstruct(holo, ReconParams(max_iters=3, **kw))


@settings(max_examples=60)
@given(st.integers(2, 17), st.integers(2, 17), st.floats(0.5e-6, 3e-6), st.floats(0.5e-6, 3e-6),
       st.lists(st.floats(50e-6, 2e-3), min_size=1, max_size=3, unique=True), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_least_squares_gradient_of_the_loop_matches_finite_differences(
        height, width, pitch_x, pitch_y, depths, pad, seed):
    # the gradient _iterate takes for the baseline: em._data_gradient of
    # _least_squares_term's residual, on either frame, odd sizes, anisotropic
    # pitch and 1 to 3 slices
    rng = np.random.Generator(np.random.Philox(seed))
    optics = (pitch_x, pitch_y, WAVELENGTH, tuple(sorted(depths)), pad)
    w = 0.5 + 0.05 * rng.standard_normal((len(depths), height, width))
    g = rng.uniform(0.5, 1.5, (height, width))

    def objective(ps):
        return baseline._least_squares_term(g, stack_forward(ps[0], *optics))[0]

    resid = baseline._least_squares_term(g, stack_forward(w, *optics))[1]
    directional_check(objective, [w], list(em._data_gradient(resid, optics, real=True)), rng)


@pytest.mark.parametrize("iters", [1, 5])
def test_one_forward_and_one_adjoint_per_iteration(demo64, monkeypatch, iters):
    # the step is closed-form: n iterations take the start's adjoint, the
    # first prediction's forward and one pair per iteration, and nothing else
    _, _, holo = demo64
    calls = {"stack_forward": 0, "stack_adjoint": 0}
    for module in (em, baseline):
        for name in calls:
            def counted(*args, _op=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _op(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    _, trace = baseline_reconstruct(holo, ReconParams(max_iters=iters))
    assert len(trace) == iters and not trace.diverged
    assert calls == {"stack_forward": iters + 1, "stack_adjoint": iters + 1}
