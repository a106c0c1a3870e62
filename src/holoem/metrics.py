"""Image-quality and focus metrics.

SSIM follows the standard structural-similarity definition: an 11x11
Gaussian window with sigma = 1.5, applied in real space as its 11
separable taps along each axis, stability constants K1 = 0.01 and
K2 = 0.03 relative to the dynamic range, moments taken as plain weighted
averages, and the mean taken over fully valid windows only. The taps run
as matrix products with a band matrix, holoem's one BLAS call. PSNR and SSIM
use the peak of the reference image unless an explicit peak is given; a
reference whose maximum is not positive (an absorber's real part) uses
its dynamic range instead. Autofocus scores back-propagated planes in two
stages on one transform of the hologram and one scoring loop, one
``_propagate_array`` per plane: a coarse stride under a 1 px low-pass, on
a 2x-decimated spectrum when both image sides have at least 128 pixels,
then a full-resolution window around its best.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .forward import Hologram
from .propagation import _frame, _half_spectrum, _propagate_array, _sweep_transfers

logger = logging.getLogger(__name__)

__all__ = [
    "psnr",
    "ssim",
    "object_units",
    "ncc",
    "focus_metric",
    "autofocus",
    "resolution_limits",
    "quality_report",
]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
_SSIM_TAPS = np.exp(-0.5 / SSIM_SIGMA**2 * (np.arange(SSIM_WINDOW) - SSIM_WINDOW // 2) ** 2)
_SSIM_TAPS /= _SSIM_TAPS.sum()
_SSIM_TAPS.setflags(write=False)
_SSIM_BLOCK = 32  # output rows or columns per product; 16, 24, 48 and 64 were no faster
# column j holds the taps at rows j..j+10, so a block of image columns times
# the band is the window along the rows for up to _SSIM_BLOCK output columns
_SSIM_BAND = np.zeros((_SSIM_BLOCK + SSIM_WINDOW - 1, _SSIM_BLOCK))
_SSIM_BAND[np.arange(SSIM_WINDOW)[:, None] + np.arange(_SSIM_BLOCK),
           np.arange(_SSIM_BLOCK)] = _SSIM_TAPS[:, None]
_SSIM_BAND.setflags(write=False)


def _as_array(image) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image contains non-finite values")
    return arr


def _pair(test, reference) -> tuple[np.ndarray, np.ndarray]:
    a, b = _as_array(test), _as_array(reference)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def _default_peak(reference: np.ndarray, peak: float | None) -> float:
    """The given peak, else max(reference), else, when that is not positive,
    the reference's dynamic range max - min; raises unless it is positive and finite."""
    if peak is None:
        top = float(reference.max())
        peak = top if top > 0 else top - float(reference.min())
    if not (np.isfinite(peak) and peak > 0):
        raise ValueError(f"peak must be positive and finite, got {peak}")
    return peak


def mse(test, reference) -> float:
    """Mean squared error between two same-shape images."""
    a, b = _pair(test, reference)
    return float(np.mean((a - b) ** 2))


def psnr(test, reference, peak: float | None = None) -> float:
    """Peak signal-to-noise ratio in dB.

    peak defaults to max(reference), or to max - min of the reference when
    its maximum is not positive; a peak that is still not positive (a
    constant non-positive reference) raises, as does a non-finite one.
    Identical images give +inf.
    """
    a, b = _pair(test, reference)
    peak = _default_peak(b, peak)
    err = float(np.mean((a - b) ** 2))
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak**2 / err))


def _windowed(img: np.ndarray) -> np.ndarray:
    """Means under the normalized 11x11 Gaussian window, over fully valid windows:
    the window's 11 separable taps along the rows, then along the columns.

    Each pass is a BLAS product per block of b <= ``_SSIM_BLOCK`` outputs
    with the band's leading (b + 10) x b corner: the row pass takes
    ``img[:, j:j+b+10] @ band`` for output columns j..j+b-1, the column pass
    ``band.T @ rows[i:i+b+10]`` for output rows i..i+b-1. These are holoem's
    only BLAS calls. OpenBLAS's threads share out a product's outputs, not
    its sums, and the bytes are the same on one thread and on two.
    """
    k = SSIM_WINDOW - 1
    height, width = img.shape[0] - k, img.shape[1] - k
    rows = np.empty((img.shape[0], width))
    for j in range(0, width, _SSIM_BLOCK):
        b = min(_SSIM_BLOCK, width - j)
        np.matmul(img[:, j:j + b + k], _SSIM_BAND[:b + k, :b], out=rows[:, j:j + b])
    out = np.empty((height, width))
    for i in range(0, height, _SSIM_BLOCK):
        b = min(_SSIM_BLOCK, height - i)
        np.matmul(_SSIM_BAND[:b + k, :b].T, rows[i:i + b + k], out=out[i:i + b])
    return out


@dataclass(frozen=True)
class _SsimReference:
    """The reference side of SSIM: the image, its window mean and variance,
    and the stability constants. It depends on the reference alone, so a
    caller comparing many test images with one reference builds it once."""

    image: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    c1: float
    c2: float


def _ssim_reference(reference: np.ndarray, peak: float | None) -> _SsimReference:
    """Check the reference and take its side of SSIM; peak defaults as in :func:`psnr`."""
    if min(reference.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW} pixels on a side")
    peak = _default_peak(reference, peak)
    mu = _windowed(reference)
    var = _windowed(reference * reference) - mu**2
    return _SsimReference(reference, mu, var, (SSIM_K1 * peak) ** 2, (SSIM_K2 * peak) ** 2)


def _ssim_test(test: np.ndarray, ref: _SsimReference) -> float:
    """Mean SSIM of a test image against a prepared reference: three windows."""
    if test.shape != ref.image.shape:
        raise ValueError(f"image shapes differ: {test.shape} vs {ref.image.shape}")
    mu_a = _windowed(test)
    var_a = _windowed(test * test) - mu_a**2
    cov = _windowed(test * ref.image) - mu_a * ref.mu
    c1, c2 = ref.c1, ref.c2
    s = (((2 * mu_a * ref.mu + c1) * (2 * cov + c2))
         / ((mu_a**2 + ref.mu**2 + c1) * (var_a + ref.var + c2)))
    return float(s.mean())


def ssim(test, reference, peak: float | None = None) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows.

    peak (the dynamic range in the stability constants) defaults as in
    :func:`psnr`.
    """
    return _ssim_test(_as_array(test), _ssim_reference(_as_array(reference), peak))


def _object_truth(truth) -> tuple:
    """A truth part t prepared for :func:`object_units`: (place, t on its own 0..1
    range, ||t||^2); place(r) returns x = (r - median r) / 2 on it, and ||x - t||^2."""
    t = _as_array(truth)
    low = float(t.min())
    span = float(t.max()) - low or 1.0

    def place(part):
        s = np.sort(part, axis=None)  # np.median's value; numpy sorts faster than it partitions
        x = (part - (s[(s.size - 1) // 2] + s[s.size // 2]) / 2) / 2.0
        err = x - t
        return (x - low) / span, float(np.einsum("ij,ij->", err, err))

    return place, (t - low) / span, float(np.einsum("ij,ij->", t, t))


def _relative_error(err_sq: float, norm_sq: float) -> float | None:
    return float(np.sqrt(err_sq / norm_sq)) if norm_sq > 0 else None


def object_units(estimate, truth) -> tuple[np.ndarray, np.ndarray, float | None]:
    """An estimate part r and its truth t on t's own 0..1 range, (v - t.min()) /
    span with span t.max() - t.min() or 1, for :func:`ssim` and :func:`psnr` at
    peak 1, and the relative error ||x - t|| / ||t||, None when ||t|| = 0.

    r is folded to x = (r - median r) / 2, as a real-mode estimate is a flat
    background plus twice the object contrast; a flat estimate scores 1.0.
    """
    a, b = _pair(estimate, truth)
    place, scaled, norm_sq = _object_truth(b)
    placed, err_sq = place(a)
    return placed, scaled, _relative_error(err_sq, norm_sq)


def ncc(test, reference) -> float:
    """Normalized cross-correlation (zero-mean cosine similarity).

    1.0 for affinely identical images, 0 when either image is constant.
    """
    a, b = _pair(test, reference)
    a = a - a.mean()
    b = b - b.mean()
    den = float(np.sqrt(np.sum(a * a) * np.sum(b * b)))
    if den == 0.0:
        return 0.0
    return float(np.sum(a * b) / den)


def _forward_diffs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences along x and y of (..., H, W) images, zero in the last column and row."""
    dx = np.zeros_like(w)
    dy = np.zeros_like(w)
    np.subtract(w[..., 1:], w[..., :-1], out=dx[..., :-1])
    np.subtract(w[..., 1:, :], w[..., :-1, :], out=dy[..., :-1, :])
    return dx, dy


def _forward_diffs_adjoint(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The exact adjoint of :func:`_forward_diffs`, taking (px, py) back to (..., H, W)."""
    out = np.zeros_like(px)
    out[..., 1:] += px[..., :-1]
    out[..., :-1] -= px[..., :-1]
    out[..., 1:, :] += py[..., :-1, :]
    out[..., :-1, :] -= py[..., :-1, :]
    return out


def focus_metric(amplitude) -> float:
    """Variance of the forward-difference gradient magnitude.

    Sharp in-focus structure concentrates large gradients on feature
    edges, giving a heavy-tailed gradient distribution and a large
    variance; defocused fields spread energy into gentle ripples.
    """
    gx, gy = _forward_diffs(_as_array(amplitude))
    gx *= gx
    gx += gy * gy
    return float(np.var(np.sqrt(gx, out=gx)))


def _low_pass(frame: tuple[int, int], sigma: float) -> np.ndarray:
    """exp(-2 pi^2 sigma^2 |v|^2) on the kx-major half spectrum of the frame,
    v in cycles per pixel: the transfer of a Gaussian blur of sigma pixels."""
    a = -2.0 * (np.pi * sigma) ** 2
    return np.outer(np.exp(a * np.fft.rfftfreq(frame[1]) ** 2),
                    np.exp(a * np.fft.fftfreq(frame[0]) ** 2))


def _decimated(spectrum: np.ndarray, frame: tuple[int, int], d: int):
    """A frame's kx-major half spectrum cut to the frequencies of the frame
    (f0, f1) 1/d its size: the rows kx <= f1 / 2 and the columns of the
    frame's fftfreq that fftfreq(f0) also holds. Returns it and (f0, f1);
    at d = 1 the cut keeps every row and column, in order, so the spectrum
    itself."""
    if d == 1:
        return spectrum, frame
    cut = (frame[0] // d, frame[1] // d)
    columns = np.r_[:(cut[0] + 1) // 2, frame[0] - cut[0] // 2:frame[0]]
    return spectrum[:cut[1] // 2 + 1, columns], cut


def _focus_scores(hologram: Hologram):
    """``scores(start, step, count, sigma, decimation)``: :func:`focus_metric`
    of |P_{-z} (G_sigma * g)| at z = start + i step, i < count, for the
    mean-removed hologram g and a Gaussian blur G_sigma of sigma pixels.

    g is real and is its own zero-mean remainder, the part that propagation
    transforms on either frame, so its kx-major half spectrum is taken once
    and each call blurs a copy. Each plane then costs one recurrence step of
    its transfer, kept in no cache, and one ``_propagate_array``.

    The blurred spectrum is cut to the frequencies below 1 / (2 d) cycles
    per pixel for a decimation d, the central 1/d of the frame on each axis,
    and each plane is scored on that frame at d times the pitch: g sampled
    every d pixels, band-limited, on a 1/d^2 transform. At d = 1 that is the
    whole frame. The cut frame's transfers are the full frame's at the
    frequencies it keeps, bit for bit where d divides the frame. The scores'
    scale differs with d, so only their argmax is comparable across d.
    """
    g = hologram.intensity - hologram.intensity.mean()
    config = hologram.config
    frame = _frame(*g.shape, config.pad)
    spectrum = _half_spectrum(g, frame)

    def scores(start: float, step: float, count: int, sigma: float,
               decimation: int) -> np.ndarray:
        kept, cut = _decimated(spectrum * _low_pass(frame, sigma), frame, decimation)
        pitches = (config.pitch_x * (frame[1] / cut[1]), config.pitch_y * (frame[0] / cut[0]))
        height, width = g.shape[0] // decimation, g.shape[1] // decimation
        return np.array([
            focus_metric(np.abs(_propagate_array(kept, transfer, cut, height, width)))
            for transfer in _sweep_transfers(*cut, *pitches, config.wavelength, -start, -step,
                                             count)
        ])

    return scores


FOCUS_MAX_PLANES = 10_000
_COARSE_STEP = 50e-6  # m; the coarse stage's target spacing
_COARSE_SIGMA = 1.0  # px
_FINE_SIGMA = 0.5  # px
_DECIMATED_MIN_SIDE = 128  # px; a smaller image scores its coarse stage on the full frame


def autofocus(hologram: Hologram, z_min: float, z_max: float, z_step: float) -> float:
    """Distance of best focus by scanning back-propagated amplitude sharpness.

    Returns the plane of the grid z_min + k z_step, z_min to z_max
    inclusive, whose back-propagated amplitude maximizes
    :func:`focus_metric`, propagated with the padding of the hologram's
    config. The hologram mean is removed before propagation:
    the unscattered pedestal carries no depth information but its
    interference with defocused fringes otherwise dominates the sharpness
    landscape. A grid of more than ``FOCUS_MAX_PLANES`` (10 000) planes is
    refused before any transform.

    Two stages share one transform of the hologram. The coarse stage scores
    every m-th grid plane, m = max(1, round(50 um / z_step)), under a 1 px
    Gaussian blur, which keeps shot noise from pulling the maximum to the
    scan's edge. The blur leaves 0.29 of the amplitude at 1/4 cycle per
    pixel, so when both image sides have at least 128 pixels the stage
    scores the spectrum cut to that band, on a 2x-decimated frame at a
    quarter of the transform size; smaller images keep the full frame. The
    fine stage scores the planes within m of the coarse best, clipped to
    the scan, on the full frame under a 0.5 px blur. Of n grid planes that
    visits at most ceil(n / m) + 2 m + 1. Ties take the smallest distance. A
    maximum on the boundary of a scan of several planes is returned as-is
    with a low-confidence warning: the optimum may lie outside the range.
    A coarse maximum on the first or last of several coarse planes warns
    too, as the fine stage then searches only the scan's edge.
    """
    if not (np.isfinite([z_min, z_max, z_step]).all() and z_step > 0 and z_max >= z_min):
        raise ValueError("need finite z_min <= z_max and a finite z_step > 0")
    planes = np.floor((z_max - z_min) / z_step + 1e-9) + 1
    if not planes <= FOCUS_MAX_PLANES:
        raise ValueError(f"the scan has {planes:g} planes; at most {FOCUS_MAX_PLANES} are allowed")
    n = int(planes)
    # clamped to n, as a stride past the scan changes nothing and round(inf) raises
    m = max(1, round(min(_COARSE_STEP / z_step, n)))
    scores = _focus_scores(hologram)
    decimation = 2 if min(hologram.intensity.shape) >= _DECIMATED_MIN_SIDE else 1
    count = (n - 1) // m + 1
    coarse = int(np.argmax(scores(z_min, z_step * m, count, _COARSE_SIGMA, decimation)))
    low, high = max(0, m * (coarse - 1)), min(n - 1, m * (coarse + 1))
    fine = scores(z_min + z_step * low, z_step, high - low + 1, _FINE_SIGMA, 1)
    best = low + int(np.argmax(fine))
    z = float(z_min + z_step * best)
    if n > 1 and best in (0, n - 1):
        logger.warning("autofocus maximum at scan boundary z=%.6g m; result is low confidence", z)
    elif count > 1 and coarse in (0, count - 1):
        logger.warning("autofocus coarse maximum at scan boundary z=%.6g m; result z=%.6g m is "
                       "low confidence", z_min + z_step * m * coarse, z)
    return z


def resolution_limits(wavelength: float, numerical_aperture: float) -> tuple[float, float]:
    """Diffraction-limited lateral and axial resolution (meters).

    lateral = wavelength / (2 NA), axial = 2 wavelength / NA^2; both must be finite.
    """
    if not (np.isfinite(wavelength) and wavelength > 0):
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    if not 0 < numerical_aperture <= 1:
        raise ValueError(f"numerical aperture must be in (0, 1], got {numerical_aperture}")
    lateral = wavelength / (2.0 * numerical_aperture)
    na2 = numerical_aperture**2  # 0.0 below about 1.5e-162
    axial = 2.0 * wavelength / na2 if na2 else np.inf
    if not (np.isfinite(lateral) and np.isfinite(axial)):
        raise ValueError(f"numerical aperture {numerical_aperture} gives a non-finite "
                         f"resolution limit at wavelength {wavelength}")
    return lateral, axial


def quality_report(test, reference, peak: float | None = None) -> dict[str, float]:
    """``{"mse": ..., "psnr_db": ..., "ssim": ...}`` of test vs reference, in that order.

    peak defaults as in :func:`psnr`: max(reference), or its dynamic range
    when that maximum is not positive. The figures are those of
    :func:`mse`, :func:`psnr` and :func:`ssim` at that peak.
    """
    a, b = _pair(test, reference)
    peak = _default_peak(b, peak)
    return {"mse": mse(a, b), "psnr_db": psnr(a, b, peak=peak),
            "ssim": _ssim_test(a, _ssim_reference(b, peak))}
