"""Angular-spectrum propagation between parallel planes.

The transfer function for propagation over a distance z at wavelength
lambda is

    H(v) = exp(j k0 z sqrt(1 - (lambda v_x)^2 - (lambda v_y)^2))

inside the propagating band sqrt(v_x^2 + v_y^2) < 1/lambda and exactly 0
outside (evanescent components are dropped), with k0 = 2 pi / lambda.
Distances may be negative (back-propagation); H(-z) = conj(H(z)), so the
propagation operator is unitary on the propagating band and P_{-z} is the
adjoint of P_z.

H depends on v only through |v|^2, so it is even: H(-v) = H(v). For a real
field w that makes Re[P_z w] and Im[P_z w] real-to-real filters,

    Re[P_z w] = irfft2(rfft2(w) Re H),   Im[P_z w] = irfft2(rfft2(w) Im H),

because the Hermitian part of W(v) H(v) is W(v) Re H(v) and its
anti-Hermitian part is j W(v) Im H(v). ``_transfer_array`` caches Re H and
Im H on the rfft2 half spectrum once per |z| (the sign of z only flips
Im H), evaluating only the rows of v_y >= 0 and mirroring the rest. Every
propagation runs on these half spectra: the operators in ``operators.py``,
the autofocus sweep, and ``propagate``, which takes a complex field as
P_z(a + j b) = P_z a + j P_z b.

Padding is the operators' mean split: the field's mean advances as a plane
wave, picking up exp(j k0 z), and only the zero-mean remainder is embedded
at the corner of a 2H x 2W zero frame (the ``s`` argument of the FFT) and
cropped from the same corner; circular convolution is shift-invariant, so
the corner is as good as the centre. The inverse transforms run their row
transforms only on the rows the crop keeps (``_irfft2_crop``). Padding
suppresses wrap-around but breaks exact unitarity at the frame edge, so the
round trip, energy conservation and composition hold for the unpadded
operator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .grid import ComplexGrid2D, fft_workers

__all__ = ["propagate"]


@lru_cache(maxsize=32)
def _transfer_array(
    height: int, width: int, pitch_x: float, pitch_y: float, wavelength: float, depth: float
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Re H and Im H over the distance ``depth`` >= 0 on the rfft2
    half spectrum (the non-negative v_x columns) of a height x width frame.

    Only the rows of v_y >= 0 are evaluated; the row of -v_y equals the row
    of v_y, because fftfreq gives -v exactly and H depends on v_y only
    through v_y^2.
    """
    vx = np.fft.rfftfreq(width, d=pitch_x)
    vy = np.fft.fftfreq(height, d=pitch_y)[:height // 2 + 1]
    s = 1.0 - (wavelength * vx[None, :]) ** 2 - (wavelength * vy[:, None]) ** 2
    inside = s > 0.0
    phase = 2.0 * np.pi / wavelength * depth * np.sqrt(np.where(inside, s, 0.0))

    def mirrored(q):
        full = np.concatenate([q, q[(height - 1) // 2:0:-1]], axis=0)
        full.setflags(write=False)
        return full

    return (mirrored(np.cos(phase, out=np.zeros_like(phase), where=inside)),
            mirrored(np.sin(phase, out=np.zeros_like(phase), where=inside)))


def _half_transfer(
    height: int, width: int, pitch_x: float, pitch_y: float, wavelength: float, z: float
) -> tuple[np.ndarray, np.ndarray]:
    """Re H and Im H over z on the rfft2 half spectrum; +z and -z share one
    cache entry, since H(-z) = conj H(z)."""
    re_h, im_h = _transfer_array(height, width, pitch_x, pitch_y, wavelength, abs(z))
    return re_h, (im_h if z >= 0 else -im_h)


def _frame(height: int, width: int, pad: bool) -> tuple[int, int]:
    """Transform size: the grid itself, or the doubled zero frame with padding."""
    return (2 * height, 2 * width) if pad else (height, width)


def _irfft2_crop(spectrum: np.ndarray, frame: tuple[int, int], height: int, width: int,
                 workers: int) -> np.ndarray:
    """``irfft2(spectrum, s=frame)[:height, :width]`` without transforming
    the rows the crop drops: the column transforms run first, on every
    column, and the row transforms only on the first ``height`` rows.

    Like irfft2, it scales once by 1 / (frame size), after the last
    transform, so it rounds as irfft2 does. An unpadded frame crops
    nothing and gives irfft2's result.
    """
    rows = _fft.ifft(spectrum, axis=0, norm="forward", workers=workers)[:height]
    out = _fft.irfft(rows, n=frame[1], axis=1, norm="forward", workers=workers)[:, :width]
    out *= 1.0 / (frame[0] * frame[1])
    return out


def _propagate_array(
    field: np.ndarray, pitch_x: float, pitch_y: float, wavelength: float, z: float, pad: bool,
    *, spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """P_z of a real field, cropped to its grid. With padding the mean
    advances as a plane wave and the zero-mean remainder is padded.

    ``spectrum``, when given, is the rfft2 on the frame of the field (of its
    zero-mean remainder when padded), computed once by a caller propagating
    one field to many planes.
    """
    height, width = field.shape
    frame = _frame(height, width, pad)
    workers = fft_workers()
    mean = field.mean() if pad else 0.0
    re_h, im_h = _half_transfer(*frame, pitch_x, pitch_y, wavelength, z)
    if spectrum is None:
        spectrum = _fft.rfft2(field - mean if pad else field, s=frame, workers=workers)
    out = np.empty((height, width), dtype=np.complex128)
    out.real = _irfft2_crop(spectrum * re_h, frame, height, width, workers)
    out.imag = _irfft2_crop(spectrum * im_h, frame, height, width, workers)
    if pad:
        out += mean * np.exp(1j * 2.0 * np.pi / wavelength * z)
    return out


def propagate(field: ComplexGrid2D, z: float, wavelength: float, pad: bool = False) -> ComplexGrid2D:
    """Propagate a sampled field over distance z (negative = backward),
    padded (``pad=True``) as ``_propagate_array`` pads each part.
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    args = (field.pitch_x, field.pitch_y, float(wavelength), float(z), pad)
    out = _propagate_array(field.data.real, *args) + 1j * _propagate_array(field.data.imag, *args)
    return ComplexGrid2D(out, field.pitch_x, field.pitch_y)
