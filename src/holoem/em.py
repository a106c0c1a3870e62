"""Iterative statistical reconstruction of multi-slice objects.

The estimate minimizes the Poisson negative log-likelihood of the
recorded intensity g under the linear multi-slice forward map

    J(w) = sum_x [ g_hat(x) - g(x) log g_hat(x) ],   g_hat = c + sum_z Re[P_z w_z]

with a multiplicative gradient step w <- w - |w| grad J that preserves the
scale-free fixed-point structure of expectation-maximization updates, and
an alternating total-variation step with the same multiplicative form.
Every slice starts at w0 = 1 (1 + 0.01j in complex mode), which the scalar
c = mean(g) - S Re(w0) for S slices makes predict mean(g): propagation is
relative to the unscattered wave, so P_z of a constant is that constant.
Both gradients are taken at the current iterate and scaled by 1/S;
the data step is applied first, the regularization step to its result:

    w_mle = w - |w| grad J(w) / S
    w'    = w_mle - |w_mle| (tau / S) grad TV(w)

An optional per-pixel upper bound (typically the filtered reference
illumination) is enforced after each update by the projection onto
{w <= UB}, a hard clip: no estimate exceeds UB.

Real mode estimates 1 + 2o for a slice of contrast o, its in-focus
intensity to first order, so a unit bound is the passive-absorber limit.
Complex mode estimates Re and Im jointly, each with its own TV term and
multiplicative step, and does not apply the upper bound.

TV is the isotropic sum sum sqrt((d_x w)^2 + (d_y w)^2) with forward
differences and replicated edges; its gradient uses the smoothed
magnitude sqrt(|grad w|^2 + eps^2) and is the exact gradient of the
smoothed functional (forward-difference operator and its exact adjoint).
The loop smooths at eps = 1e-4 for every solver, in one pass over the
estimate's differences for both: the value, sum sqrt(dx^2 + dy^2) of the
squares the gradient smooths, goes into the trace row, the gradient into
the next step.

J and its residual 1 - g / max(g_hat, floor) come from one floored
prediction, `_poisson_term`; the step and clip above in one place,
`_em_update`. Everything the baseline shares lives in the loop `_iterate`:
the 1/S scale and its halving, tau, grad J as the residual's adjoint
(`_data_gradient`), the TV pass and the truth scores. A solver hands it a
start, a data term and the form of its step. The public helpers take
arrays; the solvers take their optics from the hologram, and an optional
ground truth and the returned estimate are (S, H, W) object arrays.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .forward import Hologram, OpticalConfig, _slice_stack, _stack_optics
from .grid import _finite, _positive
from .metrics import _forward_diffs, _forward_diffs_adjoint, _object_truth, _relative_error
from .metrics import _ssim_reference, _ssim_test as _ssim
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

_STOP_RULES = ("fixed_iters", "relative_change")
_RISES = 5  # objective rises in a row that halt a run as diverged


class NumericError(RuntimeError):
    """Iteration produced non-finite values that the safeguard could not fix."""


@dataclass(frozen=True, eq=False)
class ReconParams:
    """Reconstruction controls, the one settings record of every solver.

    reconstruct_real reads every field, and reconstruct_complex every field
    but upper_bound, which it refuses. baseline_reconstruct reads max_iters
    and tau and refuses a bound or the relative_change rule. The iteration
    loop reads max_iters, tau, stop_rule and stop_delta for every solver:
    tau = None means 0.002 * mean(g), scaled like the data gradient by 1/S
    for S slices, with TV smoothed at epsilon = 1e-4. Every EM solve starts
    at 1 on every slice (0.01 in the imaginary part in complex mode).
    upper_bound, a finite scalar or a finite per-pixel bound of the config's
    grid shape on every slice, is enforced by projection, w -> min(w, UB).
    The ratio floor is 1e-12 * mean(g). The padding is the hologram config's.
    """

    max_iters: int = 100
    tau: float | None = None
    stop_rule: str = "fixed_iters"
    stop_delta: float = 1e-6
    upper_bound: float | np.ndarray | None = None

    def __post_init__(self):
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        if self.tau is not None and not 0 <= self.tau < np.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.stop_rule not in _STOP_RULES:
            raise ValueError(f"stop_rule must be one of {_STOP_RULES}, got {self.stop_rule!r}")
        _positive(self.stop_delta, "stop_delta")


@dataclass
class ReconTrace:
    """Per-iteration record of an iterative run.

    Row k describes the state after k updates. ssim and rel_error score it
    against the truth (``metrics.object_units``), None without one. millis is
    wall time and is the one field exempt from run-to-run reproducibility; it
    is solver time only, read before the trace scores the estimate. stop_reason
    says why the run stopped: iteration_cap, relative_change or diverged.
    step_halvings counts the gradient halvings that kept updates finite,
    over the whole run. Only the iteration loop fills a trace; ReconTrace()
    is an empty one.
    """

    iterations: list[int] = field(default_factory=list, init=False)
    nll: list[float] = field(default_factory=list, init=False)
    tv: list[float] = field(default_factory=list, init=False)
    ssim: list[float | None] = field(default_factory=list, init=False)
    rel_error: list[float | None] = field(default_factory=list, init=False)
    millis: list[float] = field(default_factory=list, init=False)
    stop_reason: str = field(default="iteration_cap", init=False)
    step_halvings: int = field(default=0, init=False)

    COLUMNS = ("iteration", "nll", "tv", "ssim", "rel_error", "millis")

    def append(self, iteration: int, nll: float, tv: float, ssim: float | None,
               rel_error: float | None, millis: float):
        self.iterations.append(int(iteration))
        self.nll.append(float(nll))
        self.tv.append(float(tv))
        self.ssim.append(None if ssim is None else float(ssim))
        self.rel_error.append(None if rel_error is None else float(rel_error))
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
    """x log y for positive y, as the floored g_hat of :func:`_poisson_term` always is:
    zero counts then contribute 0 without a special case."""
    out = np.log(y)
    out *= x
    return out


def _poisson_term(g: np.ndarray, ghat: np.ndarray, floor: float) -> tuple[float, np.ndarray]:
    """Poisson negative log-likelihood sum[g_hat - g log g_hat] and its residual
    1 - g / max(g_hat, floor), both from one floored prediction.

    Below the ratio floor (a solver's is :func:`_resolve_floor` of g) the
    log continues as its tangent there, log floor + (g_hat - floor) / floor,
    so the objective stays bounded below and the adjoint of the residual is
    its exact gradient (:func:`_data_gradient`). Zero observed counts
    contribute g_hat alone.
    """
    floored = np.maximum(ghat, floor)
    value = float(np.sum(ghat - xlogy(g, floored)))
    below = ghat < floor
    if below.any():
        value -= float(np.sum(g[below] * (ghat[below] - floor))) / floor
    ratio = np.divide(g, floored, out=floored)  # the residual reuses its memory
    return value, np.subtract(1.0, ratio, out=ratio)


def _data_gradient(residual: np.ndarray, optics: tuple, real: bool) -> np.ndarray:
    """The data term's gradient in the estimate's (parts, slices, H, W) layout:
    the adjoint of its residual on optics (:func:`forward._stack_optics`),
    its real part alone for a real estimate, Re and Im for a complex one."""
    adj = stack_adjoint(residual, *optics, real=real)
    return adj[None] if real else np.stack([adj.real, adj.imag])


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


def _em_update(w, grad, tv_step, bound) -> np.ndarray:
    """Data step then TV step, both gradients evaluated at the input iterate and
    scaled by the loop, then the projection onto {w <= UB} when a bound is given."""
    w_mle = w - np.abs(w) * grad
    new = w_mle - np.abs(w_mle) * tv_step
    return new if bound is None else np.minimum(new, bound, out=new)


def _joined(w: np.ndarray) -> np.ndarray:
    """The (slices, H, W) object an estimate's parts describe: real, or Re + j Im."""
    return w[0] if len(w) == 1 else w[0] + 1j * w[1]


def _iterate(hologram: Hologram, params: ReconParams, start: np.ndarray, data_term, step,
             ground_truth) -> tuple[np.ndarray, ReconTrace]:
    """The iteration loop shared by every solver.

    The solver supplies its (S, H, W) start, real or complex, and two terms:

    - data_term(ghat) -> (value, residual): the data objective at the
      predicted intensity and the residual whose adjoint, taken by
      :func:`_data_gradient`, is its gradient;
    - step(w, grad, tv_step) -> new estimate: one update of the
      (parts, S, H, W) estimate, one part in real mode, Re and Im in
      complex mode, from the data gradient and the TV gradient, both
      taken at w and already scaled.

    The loop makes every other decision. The scale is s = 1/S, halved
    while the step's result is non-finite; the step gets s grad J and
    s tau grad TV, tau being params.tau or 0.002 * mean(g), and TV smoothed
    at epsilon = 1e-4. Each trace row is scored against ground_truth when
    one is given. The run stops after params.max_iters updates, after
    _RISES rises of the objective in a row (each above 1e-6 relative),
    returning the iterate before the first rise, or, under the
    relative_change rule, once the estimate's relative change falls below
    params.stop_delta.
    """
    config = hologram.config
    optics = _stack_optics(config)
    real = not np.iscomplexobj(start)
    w = start[None] if real else np.stack([start.real, start.imag])
    del start  # the loop holds the only reference, so a replaced start is freed
    tau = 0.002 * float(hologram.intensity.mean()) if params.tau is None else float(params.tau)
    score = _truth_scores(ground_truth, config, complex_mode=not real)
    stop_delta = params.stop_delta if params.stop_rule == "relative_change" else None
    trace = ReconTrace()
    prev, resid = data_term(stack_forward(_joined(w), *optics))
    _, tv_grad = _tv_gradient_array(w, 1e-4)
    consecutive_up = 0
    kept = w  # the last iterate whose objective did not rise

    for k in range(1, params.max_iters + 1):
        t0 = time.perf_counter()
        grad = _data_gradient(resid, optics, real)

        for attempt in range(5):
            s = 0.5**attempt / config.n_slices
            new = step(w, s * grad, (s * tau) * tv_grad)
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
        del grad, new, tv_grad  # not alive through the forward map and the trace

        value, resid = data_term(stack_forward(_joined(w), *optics))
        tv_now, tv_grad = _tv_gradient_array(w, 1e-4)
        millis = (time.perf_counter() - t0) * 1e3
        trace.append(k, value, tv_now, *(score(w) if score else (None, None)), millis)

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


_START = 1 + 0.01j  # every slice's start; a zero part is a multiplicative fixed point


def _em_start(config: OpticalConfig, complex_mode: bool) -> np.ndarray:
    """The flat (slices, H, W) start of the multiplicative solver: 1 on every
    slice, with an imaginary part of 0.01 in complex mode."""
    return np.full((config.n_slices,) + config.grid_shape, _START if complex_mode else _START.real)


def _em_offset(g: np.ndarray, config: OpticalConfig) -> float:
    """The prediction's constant c = mean(g) - S Re(w0) for S slices at the
    start's value w0, so that the start predicts mean(g) at every pixel."""
    return float(g.mean()) - config.n_slices * _START.real


def _upper_bound(params: ReconParams, config: OpticalConfig, complex_mode: bool):
    if params.upper_bound is None:
        return None
    if complex_mode:
        raise ValueError("the upper-bound constraint applies to real mode only")
    bound = np.asarray(params.upper_bound, dtype=np.float64)
    if bound.ndim and bound.shape != config.grid_shape:
        raise ValueError(f"upper bound shape {bound.shape} does not match grid "
                         f"{config.grid_shape}")
    return _finite(bound, "upper bound")


def _truth_scores(ground_truth, config: OpticalConfig, complex_mode: bool):
    """w -> (mean SSIM over every slice of every part, relative error over all of
    them, None for an all-zero truth) against an (n_slices, H, W) truth on the
    config, in object units; None without truth. Each part's SSIM side is taken once."""
    if ground_truth is None:
        return None
    truth = _slice_stack(ground_truth, config, "ground truth")
    parts = [*truth.real, *(truth.imag if complex_mode else ())]
    places, scaled, norms = zip(*map(_object_truth, parts))
    references = [_ssim_reference(s, peak=1.0) for s in scaled]

    def score(w):
        ssims, err_sq = [], 0.0
        for s, place, reference in zip(w.reshape(-1, *w.shape[-2:]), places, references):
            placed, e = place(s)
            ssims.append(_ssim(placed, reference))
            err_sq += e
        return float(np.mean(ssims)), _relative_error(err_sq, sum(norms))

    return score


def _em_solve(hologram: Hologram, params: ReconParams | None, ground_truth,
              complex_mode: bool):
    cfg = hologram.config
    params = params or ReconParams()
    g = hologram.intensity
    ub = _upper_bound(params, cfg, complex_mode)
    floor = _resolve_floor(g)
    c = _em_offset(g, cfg)
    return _iterate(hologram, params, _em_start(cfg, complex_mode),
                    lambda ghat: _poisson_term(g, np.add(ghat, c, out=ghat), floor),
                    lambda w, grad, tv_step: _em_update(w, grad, tv_step, ub), ground_truth)


def reconstruct_real(
    hologram: Hologram,
    params: ReconParams | None = None,
    *,
    ground_truth: np.ndarray | None = None,
) -> tuple[np.ndarray, ReconTrace]:
    """Reconstruct real object slices from a recorded hologram.

    Returns the (S, H, W) float64 estimate and the per-iteration trace.
    When ground_truth is given, the trace records the mean SSIM over
    slices and the relative error, both in object units. Divergence does not
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
