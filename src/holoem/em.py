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
Both solvers hand the loop `_resolve_epsilon`, one pass over the estimate's
differences for both: the value, sum sqrt(dx^2 + dy^2) of the squares the
gradient smooths, goes into the trace row, the gradient into the next step.

grad J = stack_adjoint(1 - g / max(g_hat, floor)) is taken in one place,
the loop `_iterate` shared with the baseline, which names no regularizer;
the step and clip above in one, `_em_update`. The public helpers take
arrays; the solvers take their optics from the hologram, and an optional
ground truth and the returned estimate are (S, H, W) object arrays.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .forward import Hologram, OpticalConfig, _stack_optics
from .metrics import _forward_diffs, _forward_diffs_adjoint, _ssim_reference, _SsimReference
from .metrics import _ssim_test as _ssim, display_normalize
from .operators import stack_adjoint, stack_forward

logger = logging.getLogger(__name__)

__all__ = [
    "NumericError",
    "ReconParams",
    "ReconTrace",
    "tv_value",
    "reconstruct_real",
    "reconstruct_complex",
]

_INIT_MODES = ("backpropagation", "constant")
_STOP_RULES = ("fixed_iters", "relative_change")
_RISES = 5  # objective rises in a row that halt a run as diverged


class NumericError(RuntimeError):
    """Iteration produced non-finite values that the safeguard could not fix."""


@dataclass(frozen=True, eq=False)
class ReconParams:
    """Reconstruction controls.

    tau = None means 0.002 * mean(g). upper_bound, a scalar or a per-pixel
    bound of the config's grid shape on every slice (real mode only), is
    relaxed by beta. The numeric safeguards are fixed by the data: the TV
    smoothing epsilon is 1e-4 times the initial estimate's dynamic range,
    the ratio floor 1e-12 * mean(g). The padding is the hologram config's.
    """

    max_iters: int = 100
    tau: float | None = None
    beta: float = 0.5
    init_mode: str = "backpropagation"
    stop_rule: str = "fixed_iters"
    stop_delta: float = 1e-6
    upper_bound: float | np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.tau is not None and not 0 <= self.tau < np.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.init_mode not in _INIT_MODES:
            raise ValueError(f"init_mode must be one of {_INIT_MODES}, got {self.init_mode!r}")
        if self.stop_rule not in _STOP_RULES:
            raise ValueError(f"stop_rule must be one of {_STOP_RULES}, got {self.stop_rule!r}")
        if not 0 < self.stop_delta < np.inf:
            raise ValueError(f"stop_delta must be finite and > 0, got {self.stop_delta}")


@dataclass
class ReconTrace:
    """Per-iteration record of an iterative run.

    Row k describes the state after k updates. ssim entries are None when
    no ground truth was supplied. millis is wall time and is the one field
    exempt from run-to-run reproducibility; it is solver time only, read
    before the trace SSIM against the truth is taken. stop_reason says why
    the run stopped: iteration_cap, relative_change or diverged.
    step_halvings counts the gradient halvings that kept updates finite,
    over the whole run. Only the iteration loop fills a trace; ReconTrace()
    is an empty one.
    """

    iterations: list[int] = field(default_factory=list, init=False)
    nll: list[float] = field(default_factory=list, init=False)
    tv: list[float] = field(default_factory=list, init=False)
    ssim: list[float | None] = field(default_factory=list, init=False)
    millis: list[float] = field(default_factory=list, init=False)
    stop_reason: str = field(default="iteration_cap", init=False)
    step_halvings: int = field(default=0, init=False)

    COLUMNS = ("iteration", "nll", "tv", "ssim", "millis")

    def append(self, iteration: int, nll: float, tv: float, ssim: float | None, millis: float):
        self.iterations.append(int(iteration))
        self.nll.append(float(nll))
        self.tv.append(float(tv))
        self.ssim.append(None if ssim is None else float(ssim))
        self.millis.append(float(millis))

    def __len__(self) -> int:
        return len(self.iterations)

    @property
    def diverged(self) -> bool:
        """Whether the run halted on a rising objective."""
        return self.stop_reason == "diverged"


def _resolve_floor(g: np.ndarray) -> float:
    """The ratio floor: 1e-12 * mean(g), or the smallest normal double when g is all zero."""
    mean = float(g.mean())
    return 1e-12 * mean if mean > 0 else np.finfo(np.float64).tiny


def xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y for positive y, as the floored g_hat of :func:`nll` always is:
    zero counts then contribute 0 without a special case."""
    out = np.log(y)
    out *= x
    return out


def nll(g: np.ndarray, ghat: np.ndarray, floor: float) -> float:
    """Poisson negative log-likelihood sum[g_hat - g log g_hat].

    Below the ratio floor (a solver's is :func:`_resolve_floor` of g) the
    log continues as its tangent there, log floor + (g_hat - floor) / floor,
    so the objective stays bounded below and 1 - g / max(g_hat, floor) is
    its exact gradient. Zero observed counts contribute g_hat alone.
    """
    if g.shape != ghat.shape:
        raise ValueError(f"shapes differ: {g.shape} vs {ghat.shape}")
    if g.min() < 0:
        raise ValueError("observed intensity must be non-negative")
    value = float(np.sum(ghat - xlogy(g, np.maximum(ghat, floor))))
    below = ghat < floor
    if below.any():
        value -= float(np.sum(g[below] * (ghat[below] - floor))) / floor
    return value


def _ratio_residual(g: np.ndarray, ghat: np.ndarray, floor: float) -> np.ndarray:
    return 1.0 - g / np.maximum(ghat, floor)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm in one thread (BLAS's threaded dot can stall a small shared host)."""
    return float(np.sqrt(np.einsum("i,i->", x.ravel(), x.ravel())))


def _tv_sum(sq: np.ndarray) -> float:
    """TV from squared forward-difference magnitudes: each image's sum, in index order."""
    return sum(np.sum(np.sqrt(sq), axis=(-2, -1)).ravel().tolist())


def tv_value(w: np.ndarray) -> float:
    """Isotropic TV with forward differences and replicated edges, summed over (..., H, W)."""
    dx, dy = _forward_diffs(w)
    return _tv_sum(dx * dx + dy * dy)


def _tv_gradient_array(w: np.ndarray, epsilon: float) -> tuple[float, np.ndarray]:
    """TV value and the exact gradient of the smoothed TV of (..., H, W) images from
    one set of forward differences: grad^T (grad w / sqrt(|grad w|^2 + epsilon^2))."""
    dx, dy = _forward_diffs(w)
    sq = dx * dx
    sq += dy * dy
    value = _tv_sum(sq)
    sq += epsilon * epsilon
    phi = np.sqrt(sq, out=sq)
    dx /= phi
    dy /= phi
    return value, _forward_diffs_adjoint(dx, dy)


def _em_update(w, grad, tv_grad, tau: float, bound, beta: float) -> np.ndarray:
    """Data step then TV step, both gradients evaluated at the input iterate,
    then the relaxed clip w > UB -> UB + beta (w - UB) when a bound is given."""
    w_mle = w - np.abs(w) * grad
    new = w_mle - np.abs(w_mle) * (tau * tv_grad)
    return new if bound is None else np.where(new > bound, bound + beta * (new - bound), new)


def _sign_floor(arr: np.ndarray, floor: float) -> np.ndarray:
    """Push magnitudes below the floor out to +-floor, preserving sign.

    Keeps the multiplicative update away from its fixed point at zero
    without destroying legitimately negative values (backpropagated
    backgrounds are negative wherever cos(k0 z) < 0). Exact zeros go to
    +floor.
    """
    small = np.abs(arr) < floor
    return np.where(small, np.where(arr < 0, -floor, floor), arr)


def _trace_ssim(w: np.ndarray, truth_parts: list[_SsimReference] | None) -> float | None:
    """Mean SSIM of every slice of every part against the truth; None without truth."""
    if truth_parts is None:
        return None
    slices = w.reshape(-1, *w.shape[-2:])
    return float(np.mean([_ssim(display_normalize(s), t) for s, t in zip(slices, truth_parts)]))


def _resolve_tau(g: np.ndarray, params) -> float:
    """TV weight: params.tau, or 0.002 * mean(g) when None (shared by both solvers)."""
    return 0.002 * float(g.mean()) if params.tau is None else float(params.tau)


def _resolve_epsilon(w0: np.ndarray):
    """Smoothed TV, w -> (value, gradient), epsilon 1e-4 times w0's dynamic range."""
    span = float(w0.max()) - float(w0.min())
    eps = 1e-4 * span if span > 0 else 1e-4
    return lambda w: _tv_gradient_array(w, eps)


def _joined(w: np.ndarray) -> np.ndarray:
    """The (slices, H, W) object an estimate's parts describe: real, or Re + j Im."""
    return w[0] if len(w) == 1 else w[0] + 1j * w[1]


def _iterate(
    config: OpticalConfig,
    max_iters: int,
    w: np.ndarray,
    data_term,
    regularizer,
    update,
    truth_parts: list[_SsimReference] | None,
    stop_delta: float | None = None,
) -> tuple[np.ndarray, ReconTrace]:
    """The iteration loop shared by every solver.

    The estimate w is one real (parts, slices, H, W) array: one part in
    real mode, Re and Im in complex mode. config supplies the optics and
    padding, max_iters caps the updates. The solver supplies the rest:

    - data_term(ghat) -> (value, residual): the data objective at the
      predicted intensity and the residual whose adjoint is its gradient;
    - regularizer(w0) -> regularize, once; regularize(w) -> (tv, state) at
      each iterate and the start: tv for the trace row, state for update;
    - update(w, grad, state, scale) -> new estimate: one step with the
      gradient scaled by scale, which halves while the result is
      non-finite.

    The run halts after _RISES rises of the objective in a row (each above
    1e-6 relative), returning the iterate before the first rise, and, when
    stop_delta is given, once the estimate's relative change falls below it.
    """
    optics = _stack_optics(config)
    real = len(w) == 1
    regularize = regularizer(w)
    trace = ReconTrace()
    prev, resid = data_term(stack_forward(_joined(w), *optics))
    _, state = regularize(w)
    consecutive_up = 0
    kept = w  # the last iterate whose objective did not rise

    for k in range(1, max_iters + 1):
        t0 = time.perf_counter()
        adj = stack_adjoint(resid, *optics, real=real)
        grad = adj[None] if real else np.stack([adj.real, adj.imag])

        for attempt in range(5):
            scale = 0.5**attempt
            new = update(w, grad, state, scale)
            if np.isfinite(new).all():
                if attempt:
                    trace.step_halvings += attempt
                    logger.warning("iteration %d: gradient halved %d time(s) to stay finite",
                                   k, attempt)
                break
        else:
            raise NumericError(
                f"iteration {k}: update non-finite after 4 gradient halvings"
            )

        converged = stop_delta is not None and (
            _norm(new - w) / max(_norm(w), np.finfo(np.float64).tiny) < stop_delta)
        w = new
        del adj, grad, new, state  # not alive through the forward map and the trace

        value, resid = data_term(stack_forward(_joined(w), *optics))
        tv_now, state = regularize(w)
        millis = (time.perf_counter() - t0) * 1e3
        trace.append(k, value, tv_now, _trace_ssim(w, truth_parts), millis)

        if value > prev + 1e-6 * abs(prev):
            consecutive_up += 1
            if consecutive_up >= _RISES:
                trace.stop_reason = "diverged"
                logger.warning(
                    "objective increased for %d consecutive iterations (iteration %d, "
                    "objective %.6g); halting with iteration %d", _RISES, k, value, k - _RISES,
                )
                return _joined(kept), trace
        else:
            consecutive_up = 0
            kept = w
        prev = value

        if converged:
            trace.stop_reason = "relative_change"
            break

    return _joined(w), trace


def _em_start(g: np.ndarray, config: OpticalConfig, params: ReconParams,
              complex_mode: bool) -> np.ndarray:
    """Initial (parts, slices, H, W) estimate for the multiplicative solver."""
    lam, zs = config.wavelength, config.slice_distances
    if params.init_mode == "backpropagation":
        bp = stack_adjoint(g, *_stack_optics(config), real=not complex_mode)
        parts = [bp.real, bp.imag] if complex_mode else [bp]
        return np.stack([_sign_floor(p, 1e-6 * float(np.abs(p).mean())) for p in parts])
    # DC-matched flat start: levels d_z with sum_z cos(k0 z) d_z = mean(g),
    # minimum-norm, so the initial prediction already carries the right DC;
    # |cos x| > 1e-19 for every finite double x, so the sum is never zero
    cosz = np.cos(2.0 * np.pi / lam * np.asarray(zs))
    levels = cosz * float(g.mean()) / float(np.sum(cosz**2))
    w_re = np.broadcast_to(levels[:, None, None], (len(zs),) + config.grid_shape).copy()
    w_re = _sign_floor(w_re, 1e-6 * max(float(np.abs(levels).mean()), np.finfo(np.float64).tiny))
    if not complex_mode:
        return w_re[None]
    # small nonzero tilt: a zero imaginary part is a multiplicative fixed point
    return np.stack([w_re, np.full_like(w_re, 0.01 * float(np.abs(levels).mean()))])


def _upper_bound(params: ReconParams, config: OpticalConfig, complex_mode: bool):
    if params.upper_bound is None:
        return None
    if complex_mode:
        raise ValueError("the upper-bound constraint applies to real mode only")
    bound = np.asarray(params.upper_bound, dtype=np.float64)
    if bound.ndim and bound.shape != config.grid_shape:
        raise ValueError(f"upper bound shape {bound.shape} does not match grid "
                         f"{config.grid_shape}")
    return bound


def _truth_parts(ground_truth, config: OpticalConfig,
                 complex_mode: bool) -> list[_SsimReference] | None:
    """The reference side of trace SSIM for each normalized truth slice, taken once per run.

    Both sides of the comparison go through the display stretch, so the
    ground truth may be given either in object units or with the
    illumination DC folded in; any positive-scale affine difference
    drops out. The truth must be an (n_slices, H, W) array on the config.
    """
    if ground_truth is None:
        return None
    truth = np.asarray(ground_truth)
    expected = (config.n_slices,) + config.grid_shape
    if truth.shape != expected:
        raise ValueError(f"ground truth shape {truth.shape} does not match the config's "
                         f"(slices, height, width) {expected}")
    parts = list(truth.real) + (list(truth.imag) if complex_mode else [])
    return [_ssim_reference(display_normalize(p), peak=1.0) for p in parts]


def _em_solve(hologram: Hologram, params: ReconParams | None, ground_truth,
              complex_mode: bool):
    cfg = hologram.config
    params = params or ReconParams()
    g = hologram.intensity
    ub = _upper_bound(params, cfg, complex_mode)
    tau = _resolve_tau(g, params)
    floor = _resolve_floor(g)

    def data_term(ghat):
        return nll(g, ghat, floor), _ratio_residual(g, ghat, floor)

    def update(w, grad, tv_grad, scale):
        return _em_update(w, scale * grad, tv_grad, scale * tau, ub, params.beta)

    stop_delta = params.stop_delta if params.stop_rule == "relative_change" else None
    return _iterate(cfg, params.max_iters, _em_start(g, cfg, params, complex_mode), data_term,
                    _resolve_epsilon, update, _truth_parts(ground_truth, cfg, complex_mode),
                    stop_delta)


def reconstruct_real(
    hologram: Hologram,
    params: ReconParams | None = None,
    *,
    ground_truth: np.ndarray | None = None,
) -> tuple[np.ndarray, ReconTrace]:
    """Reconstruct real object slices from a recorded hologram.

    Returns the (S, H, W) float64 estimate and the per-iteration trace.
    When ground_truth is given, the trace records the mean SSIM over
    slices, computed on display-normalized images. Divergence does not
    raise: the run halts with stop_reason "diverged" and returns the
    iterate from before the objective rose, row len(trace) - 5.
    """
    return _em_solve(hologram, params, ground_truth, complex_mode=False)


def reconstruct_complex(
    hologram: Hologram,
    params: ReconParams | None = None,
    *,
    ground_truth: np.ndarray | None = None,
) -> tuple[np.ndarray, ReconTrace]:
    """Reconstruct complex object slices (joint real/imaginary estimate).

    Returns the (S, H, W) complex128 estimate and the per-iteration trace.
    The upper-bound constraint is not available in this mode; params
    carrying one raise ValueError.
    """
    return _em_solve(hologram, params, ground_truth, complex_mode=True)
