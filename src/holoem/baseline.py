"""Additive gradient-descent comparator with the same TV machinery.

Minimizes the least-squares data term 0.5 ||g - H w||^2 by plain gradient
descent at step 1/L (L from seeded power iteration on H*H), alternated
with a TV gradient step of the same step size. It runs on the iteration
loop of the statistical reconstruction (trace, divergence rule, step
halving) and differs only in its data term and additive update. This is
a simple shrinkage-thresholding-style reference point, not a faithful
port of any published two-step or fast iterative solver; convergence
comparisons against it should be read with that in mind.
"""

from __future__ import annotations

import numpy as np

from .em import ReconParams, ReconTrace, _iterate, _norm, _resolve_tau, _smoothed_tv
from .em import _truth_scores
# no longer called here; kept as module names that perfbench/tracing.py wraps
from .em import _tv_gradient_array, tv_value  # noqa: F401
from .forward import Hologram, OpticalConfig, _stack_optics
from .operators import stack_adjoint, stack_forward

__all__ = ["estimate_step_size", "baseline_reconstruct"]


def _least_squares_term(g: np.ndarray, ghat: np.ndarray) -> tuple[float, np.ndarray]:
    """The least-squares objective 0.5 ||g_hat - g||^2 and its residual g_hat - g,
    whose adjoint (``em._data_gradient``) is its gradient."""
    resid = ghat - g
    return 0.5 * float(np.sum(resid**2)), resid


def estimate_step_size(config: OpticalConfig) -> float:
    """1/L with L the largest eigenvalue of H*H on the config's optics and
    padding, by 20 power iterations from a fixed start (standard normal,
    Philox seed 0), so it is reproducible. It is floored at the slice count
    S, a lower bound of L: constant slices pass unchanged (H(0) = 1), so
    their Rayleigh quotient is S, and low frequencies that nearly tie with
    them slow the power iteration."""
    optics = _stack_optics(config)
    rng = np.random.Generator(np.random.Philox(0))
    v = rng.standard_normal((config.n_slices,) + config.grid_shape)
    v /= _norm(v)
    lam_max = 0.0
    for _ in range(20):
        u = stack_adjoint(stack_forward(v, *optics), *optics, real=True)
        lam_max = _norm(u)
        if lam_max == 0.0:
            raise ValueError("power iteration collapsed to zero; operator is degenerate")
        v = u / lam_max
    return 1.0 / max(lam_max, config.n_slices)


def baseline_reconstruct(
    hologram: Hologram,
    params: ReconParams | None = None,
    *,
    ground_truth: np.ndarray | None = None,
) -> tuple[np.ndarray, ReconTrace]:
    """Reconstruct real slices by additive least-squares descent with TV.

    Reads params.max_iters and params.tau, whose None default matches the
    statistical solver's so comparisons are sparsity-matched; params with an
    upper bound or the relative_change stop rule raise ValueError. Returns the
    (S, H, W) float64 estimate and the trace, whose nll column records the
    least-squares objective 0.5 ||g - H w||^2.
    """
    cfg = hologram.config
    params = params or ReconParams()
    if params.upper_bound is not None or params.stop_rule != "fixed_iters":
        raise ValueError("the baseline takes no upper bound and no relative_change stop rule")
    g = hologram.intensity

    step = estimate_step_size(cfg)
    tau = _resolve_tau(g, params)

    def update(w, grad, tv_grad, scale):
        s = scale * step
        return (w - s * grad) - (s * tau) * tv_grad

    # passed unnamed, so the loop holds the only reference and can free the start
    return _iterate(cfg, params.max_iters, stack_adjoint(g, *_stack_optics(cfg), real=True)[None],
                    lambda ghat: _least_squares_term(g, ghat), _smoothed_tv, update,
                    _truth_scores(ground_truth, cfg, complex_mode=False))
