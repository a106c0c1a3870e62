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

from dataclasses import dataclass

import numpy as np

from .em import ReconTrace, _iterate, _norm, _resolve_epsilon, _resolve_tau, _truth_parts
# no longer called here; kept as module names that perfbench/tracing.py wraps
from .em import _tv_gradient_array, tv_value  # noqa: F401
from .forward import Hologram, OpticalConfig, _stack_optics
from .operators import stack_adjoint, stack_forward

__all__ = ["BaselineParams", "estimate_step_size", "baseline_reconstruct"]


@dataclass(frozen=True)
class BaselineParams:
    """Controls for the additive comparator.

    The step is always 1/L, the step FISTA takes, L from :func:`estimate_step_size`;
    tau=None mirrors the statistical solver's default 0.002 * mean(g) so
    comparisons are sparsity-matched. The smoothed TV is the statistical
    solver's, and the padding is the hologram config's.
    """

    max_iters: int = 100
    tau: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tau is not None and not 0 <= self.tau < np.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")


def estimate_step_size(config: OpticalConfig) -> float:
    """1/L with L the largest eigenvalue of H*H on the config's optics and
    padding, by 20 power iterations from a fixed start (standard normal,
    Philox seed 0), so it is reproducible."""
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
    return 1.0 / lam_max


def baseline_reconstruct(
    hologram: Hologram,
    params: BaselineParams | None = None,
    *,
    ground_truth: np.ndarray | None = None,
) -> tuple[np.ndarray, ReconTrace]:
    """Reconstruct real slices by additive least-squares descent with TV.

    Returns the (S, H, W) float64 estimate and the trace. The trace's nll
    column records the least-squares objective 0.5 ||g - H w||^2 for this
    solver.
    """
    cfg = hologram.config
    params = params or BaselineParams()
    g = hologram.intensity

    step = estimate_step_size(cfg)
    tau = _resolve_tau(g, params)

    def data_term(ghat):
        resid = ghat - g
        return 0.5 * float(np.sum(resid**2)), resid

    def update(w, grad, tv_grad, scale):
        s = scale * step
        return (w - s * grad) - (s * tau) * tv_grad

    # passed unnamed, so the loop holds the only reference and can free the start
    return _iterate(cfg, params.max_iters, stack_adjoint(g, *_stack_optics(cfg), real=True)[None],
                    data_term, _resolve_epsilon, update,
                    _truth_parts(ground_truth, cfg, complex_mode=False))
