"""Iterative statistical reconstruction of multi-slice objects.

The estimate minimizes the Poisson negative log-likelihood of the
recorded intensity g under the linear multi-slice forward map

    J(w) = sum_x [ g_hat(x) - g(x) log g_hat(x) ],   g_hat = sum_z Re[P_z w_z]

with a multiplicative gradient step w <- w - |w| grad J that preserves the
scale-free fixed-point structure of expectation-maximization updates, and
an alternating total-variation step with the same multiplicative form.
Both gradients are evaluated at the current iterate; the data step is
applied first, the regularization step to its result:

    w_mle = w - |w| grad J(w)
    w'    = w_mle - |w_mle| tau grad TV(w)

An optional per-pixel upper bound (typically the filtered reference
illumination) is enforced after each update by relaxed clipping:
w > UB  ->  UB + beta (w - UB).

Real mode estimates one real slice per depth (absorbing objects with the
illumination DC folded in); complex mode estimates real and imaginary
parts jointly, each with its own TV term and multiplicative step, and
does not apply the upper bound.

TV is the isotropic sum sum sqrt((d_x w)^2 + (d_y w)^2) with forward
differences and replicated edges; its gradient uses the smoothed
magnitude sqrt(|grad w|^2 + eps^2) and is the exact gradient of the
smoothed functional (forward-difference operator and its exact adjoint).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .forward import Hologram, ObjectStack, OpticalConfig, _check_geometry, _stack_args
from .grid import ComplexGrid2D, RealGrid2D
from .metrics import display_normalize
from .metrics import ssim as _ssim
from .operators import stack_adjoint, stack_forward

logger = logging.getLogger(__name__)

__all__ = [
    "NumericError",
    "ReconParams",
    "ReconTrace",
    "predicted_intensity",
    "nll",
    "nll_gradient_slices",
    "nll_gradient_slices_complex",
    "tv_value",
    "tv_gradient",
    "em_step",
    "alternating_update",
    "apply_upper_bound",
    "reconstruct_real",
    "reconstruct_complex",
]

_INIT_MODES = ("backpropagation", "constant")
_STOP_RULES = ("fixed_iters", "relative_change")


class NumericError(RuntimeError):
    """Iteration produced non-finite values that the safeguard could not fix."""


@dataclass(frozen=True)
class ReconParams:
    """Reconstruction controls.

    tau, tv_epsilon and ratio_floor default to data-dependent values when
    None: tau = 0.002 * mean(g), tv_epsilon = 1e-4 * dynamic range of the
    initial estimate, ratio_floor = 1e-12 * mean(g). upper_bound is a
    scalar or per-pixel bound applied to every slice (real mode only).
    """

    max_iters: int = 100
    tau: float | None = None
    beta: float = 0.5
    tv_epsilon: float | None = None
    ratio_floor: float | None = None
    init_mode: str = "backpropagation"
    stop_rule: str = "fixed_iters"
    stop_delta: float = 1e-6
    upper_bound: float | RealGrid2D | None = None
    pad: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.tau is not None and not self.tau >= 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.tv_epsilon is not None and not self.tv_epsilon > 0:
            raise ValueError(f"tv_epsilon must be > 0, got {self.tv_epsilon}")
        if self.ratio_floor is not None and not self.ratio_floor > 0:
            raise ValueError(f"ratio_floor must be > 0, got {self.ratio_floor}")
        if self.init_mode not in _INIT_MODES:
            raise ValueError(f"init_mode must be one of {_INIT_MODES}, got {self.init_mode!r}")
        if self.stop_rule not in _STOP_RULES:
            raise ValueError(f"stop_rule must be one of {_STOP_RULES}, got {self.stop_rule!r}")
        if not self.stop_delta > 0:
            raise ValueError(f"stop_delta must be > 0, got {self.stop_delta}")


@dataclass
class ReconTrace:
    """Per-iteration record of an iterative run.

    Row k describes the state after k updates. ssim entries are None when
    no ground truth was supplied. millis is wall time and is the one field
    exempt from run-to-run reproducibility.
    """

    iterations: list[int] = field(default_factory=list)
    nll: list[float] = field(default_factory=list)
    tv: list[float] = field(default_factory=list)
    ssim: list[float | None] = field(default_factory=list)
    millis: list[float] = field(default_factory=list)
    diverged: bool = False
    stopped_early: bool = False

    COLUMNS = ("iteration", "nll", "tv", "ssim", "millis")

    def append(self, iteration: int, nll: float, tv: float, ssim: float | None, millis: float):
        self.iterations.append(int(iteration))
        self.nll.append(float(nll))
        self.tv.append(float(tv))
        self.ssim.append(None if ssim is None else float(ssim))
        self.millis.append(float(millis))

    def __len__(self) -> int:
        return len(self.iterations)


def _unwrap(value) -> np.ndarray:
    """Float array behind a hologram, a real grid or an array-like."""
    if isinstance(value, Hologram):
        return value.intensity.data
    if isinstance(value, RealGrid2D):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _rewrap(template, arr: np.ndarray):
    return template.with_data(arr) if isinstance(template, RealGrid2D) else arr


def _resolve_floor(g: np.ndarray, ratio_floor: float | None) -> float:
    """The ratio floor: ratio_floor, or 1e-12 * mean(g) when None."""
    if ratio_floor is not None:
        return float(ratio_floor)
    mean = float(g.mean())
    return 1e-12 * mean if mean > 0 else np.finfo(np.float64).tiny


def predicted_intensity(stack: ObjectStack, config: OpticalConfig, pad: bool = True) -> RealGrid2D:
    """Forward intensity sum_z Re[P_z w_z] of the current estimate.

    No clamping: values below the ratio floor (or below zero) are returned
    as-is; clamping belongs to the likelihood and gradient evaluation.
    """
    arrs, px, py, lam, zs = _stack_args(stack, config)
    return RealGrid2D(stack_forward(arrs, px, py, lam, zs, pad=pad), px, py)


def nll(observed, predicted, ratio_floor: float | None = None) -> float:
    """Poisson negative log-likelihood sum[g_hat - g log g_hat].

    The predicted intensity is clamped to the ratio floor inside the log
    only. Zero observed counts contribute g_hat alone.
    """
    g = _unwrap(observed)
    ghat = _unwrap(predicted)
    if g.shape != ghat.shape:
        raise ValueError(f"shapes differ: {g.shape} vs {ghat.shape}")
    if g.min() < 0:
        raise ValueError("observed intensity must be non-negative")
    floor = _resolve_floor(g, ratio_floor)
    return float(np.sum(ghat - xlogy(g, np.maximum(ghat, floor))))


def _ratio_residual(g: np.ndarray, ghat: np.ndarray, floor: float) -> np.ndarray:
    return 1.0 - g / np.maximum(ghat, floor)


def nll_gradient_slices(
    observed, predicted, config: OpticalConfig, pad: bool = True, ratio_floor: float | None = None
) -> list[RealGrid2D]:
    """Per-slice likelihood gradients for real slices.

    grad_z = Re[ P_{-z} (1 - g / g_hat) ], the exact adjoint application of
    the (optionally padded) forward map to the ratio residual. The ratio
    denominator is clamped to the floor.
    """
    g = _unwrap(observed)
    ghat = _unwrap(predicted)
    floor = _resolve_floor(g, ratio_floor)
    adj = stack_adjoint(
        _ratio_residual(g, ghat, floor),
        config.pitch_x, config.pitch_y, config.wavelength, config.slice_distances, pad=pad,
    )
    return [RealGrid2D(a.real, config.pitch_x, config.pitch_y) for a in adj]


def nll_gradient_slices_complex(
    observed, predicted, config: OpticalConfig, pad: bool = True, ratio_floor: float | None = None
) -> list[ComplexGrid2D]:
    """Per-slice gradients for complex slices, packed as complex grids.

    The real part of each returned grid is the gradient with respect to
    the slice's real part, the imaginary part the gradient with respect
    to its imaginary part: grad_z = P_{-z}(1 - g / g_hat).
    """
    g = _unwrap(observed)
    ghat = _unwrap(predicted)
    floor = _resolve_floor(g, ratio_floor)
    adj = stack_adjoint(
        _ratio_residual(g, ghat, floor),
        config.pitch_x, config.pitch_y, config.wavelength, config.slice_distances, pad=pad,
    )
    return [ComplexGrid2D(a, config.pitch_x, config.pitch_y) for a in adj]


def _forward_diffs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dx = np.zeros_like(w)
    dy = np.zeros_like(w)
    dx[:, :-1] = w[:, 1:] - w[:, :-1]
    dy[:-1, :] = w[1:, :] - w[:-1, :]
    return dx, dy


def tv_value(w) -> float:
    """Isotropic total variation with forward differences, replicated edges."""
    dx, dy = _forward_diffs(_unwrap(w))
    return float(np.sum(np.hypot(dx, dy)))


def _tv_gradient_array(w: np.ndarray, epsilon: float) -> np.ndarray:
    dx, dy = _forward_diffs(w)
    phi = np.sqrt(dx * dx + dy * dy + epsilon * epsilon)
    px = dx / phi
    py = dy / phi
    out = np.zeros_like(w)
    out[:, 1:] += px[:, :-1]
    out[:, :-1] -= px[:, :-1]
    out[1:, :] += py[:-1, :]
    out[:-1, :] -= py[:-1, :]
    return out


def tv_gradient(w, epsilon: float):
    """Exact gradient of the smoothed TV sum sqrt(|grad w|^2 + eps^2).

    This is the negative divergence of the normalized gradient field with
    the adjoint boundary handling of the forward-difference operator, so a
    finite-difference check against the smoothed TV value passes to
    rounding error.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return _rewrap(w, _tv_gradient_array(_unwrap(w), float(epsilon)))


def em_step(w, gradient):
    """One multiplicative update w - |w| * gradient."""
    wa, ga = _unwrap(w), _unwrap(gradient)
    if wa.shape != ga.shape:
        raise ValueError(f"shapes differ: {wa.shape} vs {ga.shape}")
    return _rewrap(w, wa - np.abs(wa) * ga)


def alternating_update(w, nll_gradient, tv_gradient, tau: float):
    """Data step then TV step, both gradients evaluated at the input iterate."""
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    w_mle = em_step(w, nll_gradient)
    return em_step(w_mle, tau * _unwrap(tv_gradient))


def apply_upper_bound(w, upper_bound, beta: float):
    """Relaxed clip toward a per-pixel upper bound: w > UB -> UB + beta (w - UB)."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    wa, ub = _unwrap(w), _unwrap(upper_bound)
    return _rewrap(w, np.where(wa > ub, ub + beta * (wa - ub), wa))


def _sign_floor(arr: np.ndarray, floor: float) -> np.ndarray:
    """Push magnitudes below the floor out to +-floor, preserving sign.

    Keeps the multiplicative update away from its fixed point at zero
    without destroying legitimately negative values (backpropagated
    backgrounds are negative wherever cos(k0 z) < 0). Exact zeros go to
    +floor.
    """
    if floor <= 0:
        return arr
    small = np.abs(arr) < floor
    return np.where(small, np.where(arr < 0, -floor, floor), arr)


def _trace_ssim(parts: list[np.ndarray], truth_parts: list[np.ndarray] | None) -> float | None:
    """Mean SSIM of every slice of every part against the truth; None without truth."""
    if truth_parts is None:
        return None
    slices = [s for p in parts for s in p]
    return float(np.mean([_ssim(display_normalize(s), t, peak=1.0)
                          for s, t in zip(slices, truth_parts)]))


def _resolve_tau(g: np.ndarray, params) -> float:
    """TV weight: params.tau, or 0.002 * mean(g) when None (shared by both solvers)."""
    return 0.002 * float(g.mean()) if params.tau is None else float(params.tau)


def _resolve_epsilon(params, init_parts: list[np.ndarray]) -> float:
    if params.tv_epsilon is not None:
        return float(params.tv_epsilon)
    lo = min(float(p.min()) for p in init_parts)
    hi = max(float(p.max()) for p in init_parts)
    span = hi - lo
    return 1e-4 * span if span > 0 else 1e-4


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


def _relative_change(new: list[np.ndarray], old: list[np.ndarray]) -> float:
    """||new - old|| / ||old||, taken over all parts."""
    delta = math.hypot(*(np.linalg.norm(n - o) for n, o in zip(new, old)))
    return delta / max(math.hypot(*(np.linalg.norm(o) for o in old)), np.finfo(np.float64).tiny)


def _iterate(
    g: np.ndarray,
    config: OpticalConfig,
    params,
    parts: list[np.ndarray],
    data_term,
    update,
    truth_parts: list[np.ndarray] | None,
    stop_delta: float | None = None,
) -> tuple[list[np.ndarray], ReconTrace]:
    """The iteration loop shared by every solver.

    The estimate is a list of real parts: [w] in real mode, [Re w, Im w]
    in complex mode, each stacked over slices. params supplies max_iters,
    pad and tv_epsilon. The solver supplies the rest:

    - data_term(ghat) -> (value, residual): the data objective at the
      predicted intensity and the residual whose adjoint is its gradient;
    - update(w, grad, tv_grad, scale) -> new part: one step with the
      gradient scaled by scale, which halves while the result is
      non-finite.

    The run halts when the objective rises 5 iterations in a row (each
    rise above 1e-6 relative) and, when stop_delta is given, once the
    relative change of the estimate falls below it.
    """
    px, py, lam, zs = config.pitch_x, config.pitch_y, config.wavelength, config.slice_distances
    pad = params.pad
    eps = _resolve_epsilon(params, parts)
    trace = ReconTrace()
    prev, resid = data_term(stack_forward(_joined(parts), px, py, lam, zs, pad=pad))
    consecutive_up = 0

    for k in range(1, params.max_iters + 1):
        t0 = time.perf_counter()
        adj = stack_adjoint(resid, px, py, lam, zs, pad=pad)
        grads = [adj.real, adj.imag][: len(parts)]
        tv_grads = [np.stack([_tv_gradient_array(s, eps) for s in p]) for p in parts]

        for attempt in range(5):
            scale = 0.5**attempt
            new = [update(p, d, t, scale) for p, d, t in zip(parts, grads, tv_grads)]
            if all(np.isfinite(n).all() for n in new):
                if attempt:
                    logger.warning("iteration %d: gradient halved %d time(s) to stay finite",
                                   k, attempt)
                break
        else:
            raise NumericError(
                f"iteration {k}: update non-finite after 4 gradient halvings"
            )

        converged = stop_delta is not None and _relative_change(new, parts) < stop_delta
        parts = new

        value, resid = data_term(stack_forward(_joined(parts), px, py, lam, zs, pad=pad))
        tv_now = sum(sum(tv_value(s) for s in p) for p in parts)
        ssim_now = _trace_ssim(parts, truth_parts)
        trace.append(k, value, tv_now, ssim_now, (time.perf_counter() - t0) * 1e3)

        if value > prev + 1e-6 * abs(prev):
            consecutive_up += 1
            if consecutive_up >= 5:
                trace.diverged = True
                logger.warning(
                    "objective increased for 5 consecutive iterations "
                    "(iteration %d, objective %.6g); halting", k, value,
                )
                break
        else:
            consecutive_up = 0
        prev = value

        if converged:
            trace.stopped_early = True
            break

    return parts, trace


def _em_start(g: np.ndarray, config: OpticalConfig, params: ReconParams,
              complex_mode: bool) -> list[np.ndarray]:
    """Initial estimate parts for the multiplicative solver."""
    lam, zs = config.wavelength, config.slice_distances
    if params.init_mode == "backpropagation":
        bp = stack_adjoint(g, config.pitch_x, config.pitch_y, lam, zs, pad=params.pad)
        parts = [bp.real, bp.imag] if complex_mode else [bp.real]
        return [_sign_floor(p, 1e-6 * float(np.abs(p).mean())) for p in parts]
    # DC-matched flat start: levels d_z with sum_z cos(k0 z) d_z = mean(g),
    # minimum-norm, so the initial prediction already carries the right DC
    n_slices = len(zs)
    k0 = 2.0 * np.pi / lam
    cosz = np.cos(k0 * np.asarray(zs))
    denom = float(np.sum(cosz**2))
    if denom > np.finfo(np.float64).tiny:
        levels = cosz * float(g.mean()) / denom
    else:
        levels = np.full(n_slices, float(g.mean()) / n_slices)
    w_re = np.broadcast_to(levels[:, None, None], (n_slices,) + config.grid_shape).copy()
    w_re = _sign_floor(w_re, 1e-6 * max(float(np.abs(levels).mean()), np.finfo(np.float64).tiny))
    if not complex_mode:
        return [w_re]
    # small nonzero tilt: a zero imaginary part is a multiplicative fixed point
    return [w_re, np.full_like(w_re, 0.01 * float(np.abs(levels).mean()))]


def _upper_bound(params: ReconParams, config: OpticalConfig, complex_mode: bool):
    if params.upper_bound is None:
        return None
    if complex_mode:
        raise ValueError("the upper-bound constraint applies to real mode only")
    if isinstance(params.upper_bound, RealGrid2D):
        _check_geometry(params.upper_bound.shape, params.upper_bound.pitch_x,
                        params.upper_bound.pitch_y, config)
        return params.upper_bound.data
    return float(params.upper_bound)


def _truth_parts(ground_truth: ObjectStack | None, complex_mode: bool) -> list[np.ndarray] | None:
    """Normalized per-slice truth images for trace SSIM.

    Both sides of the comparison go through the display stretch, so the
    ground truth may be given either in object units or with the
    illumination DC folded in; any positive-scale affine difference
    drops out.
    """
    if ground_truth is None:
        return None
    parts = [s.data.real for s in ground_truth.slices]
    if complex_mode:
        parts += [s.data.imag for s in ground_truth.slices]
    return [display_normalize(p) for p in parts]


def _recon_config(hologram: Hologram, config: OpticalConfig | None) -> OpticalConfig:
    if config is None:
        return hologram.config
    _check_geometry(hologram.intensity.shape, hologram.intensity.pitch_x,
                    hologram.intensity.pitch_y, config)
    return config


def _real_stack(w: np.ndarray, config: OpticalConfig) -> ObjectStack:
    return ObjectStack(
        tuple(ComplexGrid2D(s, config.pitch_x, config.pitch_y) for s in w.astype(np.complex128)),
        real_only=True,
    )


def _em_solve(hologram: Hologram, params: ReconParams | None, config: OpticalConfig | None,
              ground_truth: ObjectStack | None, complex_mode: bool):
    cfg = _recon_config(hologram, config)
    params = params or ReconParams()
    g = hologram.intensity.data
    ub = _upper_bound(params, cfg, complex_mode)
    tau = _resolve_tau(g, params)
    floor = _resolve_floor(g, params.ratio_floor)

    def data_term(ghat):
        return nll(g, ghat, floor), _ratio_residual(g, ghat, floor)

    def update(w, grad, tv_grad, scale):
        new = alternating_update(w, scale * grad, tv_grad, scale * tau)
        return new if ub is None else apply_upper_bound(new, ub, params.beta)

    stop_delta = params.stop_delta if params.stop_rule == "relative_change" else None
    parts, trace = _iterate(g, cfg, params, _em_start(g, cfg, params, complex_mode),
                            data_term, update, _truth_parts(ground_truth, complex_mode),
                            stop_delta)
    return cfg, parts, trace


def reconstruct_real(
    hologram: Hologram,
    params: ReconParams | None = None,
    *,
    config: OpticalConfig | None = None,
    ground_truth: ObjectStack | None = None,
) -> tuple[ObjectStack, ReconTrace]:
    """Reconstruct real object slices from a recorded hologram.

    Returns the estimate stack (real_only) and the per-iteration trace.
    When ground_truth is given, the trace records the mean SSIM over
    slices, computed on display-normalized images. Divergence does not
    raise: the run halts and the trace is flagged.
    """
    cfg, (w,), trace = _em_solve(hologram, params, config, ground_truth, complex_mode=False)
    return _real_stack(w, cfg), trace


def reconstruct_complex(
    hologram: Hologram,
    params: ReconParams | None = None,
    *,
    config: OpticalConfig | None = None,
    ground_truth: ObjectStack | None = None,
) -> tuple[ObjectStack, ReconTrace]:
    """Reconstruct complex object slices (joint real/imaginary estimate).

    The upper-bound constraint is not available in this mode; params
    carrying one raise ValueError.
    """
    cfg, parts, trace = _em_solve(hologram, params, config, ground_truth, complex_mode=True)
    stack = ObjectStack(tuple(ComplexGrid2D(s, cfg.pitch_x, cfg.pitch_y) for s in _joined(parts)))
    return stack, trace
