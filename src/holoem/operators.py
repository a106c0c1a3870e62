"""Multi-slice hologram operator on raw arrays: holoem's one operator core.

Forward map for a stack of S object slices w_z = a_z + j b_z at distances z:

    (H w)(x) = sum_z Re[ P_z w_z ](x)

and its adjoint applied to a real residual r:

    (H* r)_z = P_{-z} r        (complex; .real is the gradient w.r.t. the
                                real slice part, .imag w.r.t. the imaginary)

Every transform is real-to-real on the kx-major rfft2 half spectra of
``propagation.py``. The transfer function is even in frequency, so for
real a and b

    Re[P_z w_z] = irfft2(rfft2(a_z) Re H_z - rfft2(b_z) Im H_z)
    Re[P_{-z} r] = irfft2(rfft2(r) Re H_z)
    Im[P_{-z} r] = -irfft2(rfft2(r) Im H_z)

The forward sums slice spectra before a single inverse FFT (one rfft2 per
nonzero slice part); the adjoint reuses one rfft2 of the residual and
pays one inverse per slice for the real part and one more for the
imaginary part, which ``real=True`` skips. This is exact linearity, not an
approximation. With padding, the x transforms skip half of the doubled
frame: forward ones run on the slice's rows only (``_half_spectrum``),
inverse ones only on the rows the crop keeps (``_irfft2_crop``).

Each slice is split into its window mean and the zero-mean remainder.
The mean models the unscattered plane wave, which physically extends far
beyond the recorded window; it propagates analytically, picking up the
phase exp(j k0 z), which ``_plane_waves`` alone forms. Only the
remainder, compact for sparse objects, goes through the transform frame
that ``pad`` chooses (``propagation._frame``): the grid itself, where the
split is exact since H(0) = exp(j k0 z), or a doubled zero frame with the
remainder at its corner, cropped back from the same corner (circular
convolution is shift-invariant). There the split
keeps a constant background representable: a zero-padded constant rings
at the frame edge, and an iterative solver then fights a structural
residual over the entire field. The adjoint is the exact transpose of the
split (analytic mean response plus mean-removed back-propagation), so
gradient checks hold to rounding error on either frame.

``propagate`` moves one complex field, Re[P_z w] and Im[P_z w], as the
forward map of the one-slice stack w and of -j w: two forward passes.
Padding suppresses wrap-around but breaks exact unitarity at the frame
edge, so its round trip, energy conservation and composition hold for the
unpadded operator.

These functions are the performance core; the public modules check
their arrays against an ``OpticalConfig`` and call them.
"""

from __future__ import annotations

import numpy as np

from .grid import _checked_samples
from .propagation import _frame, _half_spectrum, _irfft2_crop, _transfer_array

__all__ = ["propagate", "stack_forward", "stack_adjoint"]


def _plane_waves(wavelength: float, distances) -> np.ndarray:
    """exp(j k0 z) at each distance z, k0 = 2 pi / wavelength: the phase a
    window mean picks up as a plane wave, and H(0) on either frame."""
    return np.exp(1j * (2.0 * np.pi / wavelength) * np.asarray(distances, dtype=np.float64))


def stack_forward(
    stack: np.ndarray,
    pitch_x: float,
    pitch_y: float,
    wavelength: float,
    distances,
    pad: bool = True,
) -> np.ndarray:
    """Apply the forward map to an (S, H, W) stack; returns a real (H, W) array."""
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[0] != len(distances):
        raise ValueError(
            f"stack shape {stack.shape} does not match {len(distances)} slice distances"
        )
    height, width = stack.shape[1:]
    frame = _frame(height, width, pad)

    def transform(part, h):
        half = _half_spectrum(part - part.mean(), frame)
        return np.multiply(half, h, out=half)

    has_imag = np.iscomplexobj(stack) and bool(stack.imag.any())
    spectrum = np.zeros((frame[1] // 2 + 1, frame[0]), dtype=np.complex128)
    for i, z in enumerate(distances):
        re_h, im_h = _transfer_array(*frame, pitch_x, pitch_y, wavelength, z)
        spectrum += transform(stack.real[i], re_h)
        if has_imag:
            spectrum -= transform(stack.imag[i], im_h)
    out = _irfft2_crop(spectrum, frame, height, width)
    # the window means advance analytically as plane waves: Re[m exp(j k0 z)]
    phases = _plane_waves(wavelength, distances)
    return out + float(np.sum((stack.mean(axis=(1, 2)) * phases).real))


def stack_adjoint(
    residual: np.ndarray,
    pitch_x: float,
    pitch_y: float,
    wavelength: float,
    distances,
    pad: bool = True,
    real: bool = False,
) -> np.ndarray:
    """Apply the adjoint map to a real (H, W) residual.

    Returns the (S, H, W) complex adjoint, or with ``real=True`` only its
    real part as float64, which is all a real-slice gradient needs and
    costs half the inverse transforms.
    """
    residual = np.asarray(residual, dtype=np.float64)
    height, width = residual.shape
    frame = _frame(height, width, pad)
    responses = residual.mean() * _plane_waves(wavelength, distances)
    spectrum = _half_spectrum(residual, frame)
    product = np.empty_like(spectrum)

    def back(h, mean_response):
        part = _irfft2_crop(np.multiply(spectrum, h, out=product), frame, height, width)
        part = part - part.mean()
        part += mean_response
        return part

    out = np.empty((len(distances), height, width),
                   dtype=np.float64 if real else np.complex128)
    for i, (z, response) in enumerate(zip(distances, responses)):
        re_h, im_h = _transfer_array(*frame, pitch_x, pitch_y, wavelength, z)
        if real:
            out[i] = back(re_h, response.real)
        else:
            out.real[i] = back(re_h, response.real)
            out.imag[i] = -back(im_h, response.imag)
    return out


def propagate(field, pitch_x: float, pitch_y: float, wavelength: float, z: float,
              pad: bool = False) -> np.ndarray:
    """Propagate a sampled (H, W) field over distance z (negative = backward);
    returns the complex (H, W) field P_z w, on the grid or with ``pad=True``
    on the doubled zero frame. It is the forward map of the one-slice stack
    w: Re[P_z w] = stack_forward(w) and Im[P_z w] = stack_forward(-j w).
    """
    if not (np.isfinite(wavelength) and wavelength > 0):
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    if not np.isfinite(z):
        raise ValueError(f"distance must be finite, got {z}")
    w = _checked_samples(field, pitch_x, pitch_y, np.complex128)[None]
    optics = (pitch_x, pitch_y, float(wavelength), (float(z),))
    return stack_forward(w, *optics, pad) + 1j * stack_forward(-1j * w, *optics, pad)
