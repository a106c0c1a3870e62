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
slice part whose zero-mean remainder is nonzero; with none, no inverse
either); the adjoint reuses one rfft2 of the residual and pays one inverse
per slice for the real part and one more for the imaginary part, which
``real=True`` skips. With padding, the x transforms skip half of the
doubled frame: forward ones run on the slice's rows only
(``_half_spectrum``), inverse ones only on the rows the crop keeps
(``_irfft2_crop``).

Each slice is split into its window mean and the zero-mean remainder.
The mean models the unscattered plane wave, which physically extends far
beyond the recorded window. Propagation is relative to that wave
(``propagation``), so H(0) = 1: the forward map adds sum_z Re(mean w_z),
and the adjoint's mean response is the residual's mean, 0 in the
imaginary part. Only the remainder, compact for sparse objects, goes
through the frame that ``pad`` chooses (``propagation._frame``): the grid
itself, where the split is exact, or a doubled zero frame with the
remainder at its corner, cropped back from the same corner (circular
convolution is shift-invariant). There the split keeps a constant
background representable: a zero-padded constant rings at the frame edge,
and an iterative solver then fights a structural residual over the entire
field. The adjoint is the exact transpose of the split, so gradient
checks hold to rounding error on either frame.

``propagate`` moves one complex field relative to the unscattered plane
wave, Re[P_z w] and Im[P_z w], as the forward map of the one-slice stack
w and of -j w: two forward passes. Padding suppresses wrap-around but
breaks exact unitarity at the frame edge, so its round trip, energy
conservation and composition hold for the unpadded operator.

These functions are the performance core; the public modules check
their arrays against an ``OpticalConfig`` and call them.
"""

from __future__ import annotations

import numpy as np

from .grid import _checked_samples, _positive
from .propagation import _frame, _half_spectrum, _irfft2_crop, _transfer_array

__all__ = ["propagate", "stack_forward", "stack_adjoint"]


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

    parts = (stack.real, -stack.imag) if np.iscomplexobj(stack) else (stack,)
    spectrum = np.zeros((frame[1] // 2 + 1, frame[0]), dtype=np.complex128)
    transformed = False
    for i, z in enumerate(distances):
        for part, h in zip(parts, _transfer_array(*frame, pitch_x, pitch_y, wavelength, z)):
            rest = part[i] - part[i].mean()
            if rest.any():
                half = _half_spectrum(rest, frame)
                spectrum += np.multiply(half, h, out=half)
                transformed = True
    mean = float(np.sum(stack.real.mean(axis=(1, 2))))  # H(0) = 1: the means pass unchanged
    if not transformed:
        return np.full((height, width), mean)
    return _irfft2_crop(spectrum, frame, height, width) + mean


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
    spectrum = _half_spectrum(residual, frame)
    product = np.empty_like(spectrum)

    def back(h):
        part = _irfft2_crop(np.multiply(spectrum, h, out=product), frame, height, width)
        part -= part.mean()
        return part

    out = np.empty((len(distances), height, width),
                   dtype=np.float64 if real else np.complex128)
    mean = residual.mean()  # H(0) = 1: the residual's mean is the mean response
    for i, z in enumerate(distances):
        re_h, im_h = _transfer_array(*frame, pitch_x, pitch_y, wavelength, z)
        np.add(back(re_h), mean, out=out.real[i])
        if not real:
            np.negative(back(im_h), out=out.imag[i])
    return out


def propagate(field, pitch_x: float, pitch_y: float, wavelength: float, z: float,
              pad: bool = False) -> np.ndarray:
    """Propagate a sampled (H, W) field over distance z (negative = backward);
    returns the complex (H, W) field P_z w relative to the unscattered plane
    wave, on the grid or with ``pad=True``
    on the doubled zero frame. It is the forward map of the one-slice stack
    w: Re[P_z w] = stack_forward(w) and Im[P_z w] = stack_forward(-j w).
    """
    _positive(wavelength, "wavelength")
    if not np.isfinite(z):
        raise ValueError(f"distance must be finite, got {z}")
    w = _checked_samples(field, pitch_x, pitch_y, np.complex128)[None]
    optics = (pitch_x, pitch_y, float(wavelength), (float(z),))
    return stack_forward(w, *optics, pad) + 1j * stack_forward(-1j * w, *optics, pad)
