"""Additive gradient-descent comparator with the same TV machinery.

Minimizes the least-squares data term 0.5 ||g - H w||^2 by plain gradient
descent at step 1/S for S slices, alternated with a TV gradient step of the
same step size. On the grid H*H splits into one rank-one block per
frequency, whose eigenvalue sum_z cos^2(k0 z (root - 1)) peaks at S at
zero frequency, and on the padded frame its largest eigenvalue L keeps
S <= L <= 2S, so 1/S always stays below the descent limit 2/L. It runs on
the iteration loop of the statistical reconstruction, which scales both
gradients by 1/S, weighs TV by the same tau and keeps the trace, divergence
rule and step halving; the baseline supplies only its back-propagated
start, its data term and its additive step. This is a simple
shrinkage-thresholding-style reference point, not a faithful port of any
published two-step or fast iterative solver; convergence comparisons
against it should be read with that in mind.
"""

from __future__ import annotations

import numpy as np

from .em import ReconParams, ReconTrace, _iterate
# not called here; kept as module names that perfbench/tracing.py wraps
from .em import _tv_gradient_array, tv_value  # noqa: F401
from .forward import Hologram, OpticalConfig, _stack_optics
from .operators import stack_adjoint
from .operators import stack_forward  # noqa: F401  (wrapped as above)

__all__ = ["baseline_reconstruct"]


def _least_squares_term(g: np.ndarray, ghat: np.ndarray) -> tuple[float, np.ndarray]:
    """The least-squares objective 0.5 ||g_hat - g||^2 and its residual g_hat - g,
    whose adjoint (``em._data_gradient``) is its gradient."""
    resid = ghat - g
    return 0.5 * float(np.sum(resid**2)), resid


# uncalled: kept only because perfbench/tracing.py names it; ROADMAP item 5 removes it
def estimate_step_size(config: OpticalConfig) -> float:
    """The step 1/S, EM's per-slice scale, for a config with S slices."""
    return 1.0 / config.n_slices


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
    params = params or ReconParams()
    if params.upper_bound is not None or params.stop_rule != "fixed_iters":
        raise ValueError("the baseline takes no upper bound and no relative_change stop rule")
    g = hologram.intensity
    # the start is passed unnamed, so the loop holds the only reference and can free it
    return _iterate(hologram, params, stack_adjoint(g, *_stack_optics(hologram.config), real=True),
                    lambda ghat: _least_squares_term(g, ghat),
                    lambda w, grad, tv_step: (w - grad) - tv_step, ground_truth)
