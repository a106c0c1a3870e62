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

from .em import ReconTrace, _iterate, _real_stack, _recon_config, _resolve_tau, _truth_parts
# no longer called here; kept as module names that perfbench/tracing.py wraps
from .em import _tv_gradient_array, tv_value  # noqa: F401
from .forward import Hologram, ObjectStack, OpticalConfig
from .operators import stack_adjoint, stack_forward

__all__ = ["BaselineParams", "estimate_step_size", "baseline_reconstruct"]


@dataclass(frozen=True)
class BaselineParams:
    """Controls for the additive comparator.

    step_size=None picks 1/L with L estimated by power iteration;
    tau=None mirrors the statistical solver's default 0.002 * mean(g) so
    comparisons are sparsity-matched.
    """

    max_iters: int = 100
    tau: float | None = None
    step_size: float | None = None
    tv_epsilon: float | None = None
    pad: bool = True
    power_iters: int = 20
    power_seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.step_size is not None and not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.tau is not None and not self.tau >= 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.tv_epsilon is not None and not self.tv_epsilon > 0:
            raise ValueError(f"tv_epsilon must be > 0, got {self.tv_epsilon}")
        if self.power_iters < 1:
            raise ValueError(f"power_iters must be >= 1, got {self.power_iters}")


def estimate_step_size(config: OpticalConfig, pad: bool = True,
                       n_iters: int = 20, seed: int = 0) -> float:
    """1/L with L the largest eigenvalue of H*H, by seeded power iteration."""
    px, py, lam, zs = config.pitch_x, config.pitch_y, config.wavelength, config.slice_distances
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal((len(zs),) + config.grid_shape)
    v /= np.linalg.norm(v)
    lam_max = 0.0
    for _ in range(n_iters):
        u = stack_adjoint(stack_forward(v, px, py, lam, zs, pad=pad),
                          px, py, lam, zs, pad=pad).real
        lam_max = float(np.linalg.norm(u))
        if lam_max == 0.0:
            raise ValueError("power iteration collapsed to zero; operator is degenerate")
        v = u / lam_max
    return 1.0 / lam_max


def baseline_reconstruct(
    hologram: Hologram,
    params: BaselineParams | None = None,
    *,
    config: OpticalConfig | None = None,
    ground_truth: ObjectStack | None = None,
) -> tuple[ObjectStack, ReconTrace]:
    """Reconstruct real slices by additive least-squares descent with TV.

    Returns (estimate stack, trace). The trace's nll column records the
    least-squares objective 0.5 ||g - H w||^2 for this solver.
    """
    cfg = _recon_config(hologram, config)
    params = params or BaselineParams()
    g = hologram.intensity.data

    step = params.step_size
    if step is None:
        step = estimate_step_size(cfg, pad=params.pad, n_iters=params.power_iters,
                                  seed=params.power_seed)
    tau = _resolve_tau(g, params)

    def data_term(ghat):
        resid = ghat - g
        return 0.5 * float(np.sum(resid**2)), resid

    def update(w, grad, tv_grad, scale):
        s = scale * step
        return (w - s * grad) - (s * tau) * tv_grad

    start = stack_adjoint(g, cfg.pitch_x, cfg.pitch_y, cfg.wavelength, cfg.slice_distances,
                          pad=params.pad).real
    (w,), trace = _iterate(g, cfg, params, [start], data_term, update,
                           _truth_parts(ground_truth, complex_mode=False))
    return _real_stack(w, cfg), trace
