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
Im H on the rfft2 half spectrum (the non-negative v_x columns) once per
|z|; the sign of z only flips Im H. The multi-slice operators in
``operators.py`` and the propagation of real fields (the autofocus sweep)
run on these half spectra; complex fields use the full spectrum, mirrored
from the half because H is even in v_x. H is even in v_y as well, so a
build evaluates the phase, cos and sin on the rows of v_y >= 0 only and
mirrors the rest.

Padding embeds the field at the corner of a 2H x 2W zero frame (the ``s``
argument of the FFT) and crops the same corner afterwards. Circular
convolution is shift-invariant, so this equals embedding at the centre and
cropping the centre, without the explicit frame copy. The inverse
transforms run their row transforms only on the rows the crop keeps
(``_irfft2_crop``, ``_ifft2_crop``). Padding suppresses the wrap-around
of the circular convolution but breaks exact unitarity at the frame edge,
so the analytics-grade identities (round trip, energy conservation,
composition) hold for the unpadded operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .grid import ComplexGrid2D, fft_workers

__all__ = ["TransferFunction", "KernelSums", "transfer_function", "propagate", "kernel_sums"]


@dataclass(frozen=True)
class TransferFunction:
    """FFT-ordered angular-spectrum transfer samples for one (z, lambda)."""

    values: np.ndarray
    z: float
    wavelength: float
    pitch_x: float
    pitch_y: float

    def __post_init__(self):
        mag = np.abs(self.values)
        if mag.max(initial=0.0) > 1.0 + 1e-12:
            raise ValueError("transfer function magnitude exceeds 1")


@dataclass(frozen=True)
class KernelSums:
    """Spatial sums of the real/imaginary point-spread kernel parts.

    For the ideal (unpadded) operator these equal cos(k0 z) and sin(k0 z):
    the sum of the kernel over the lattice is the zero-frequency transfer
    sample exp(j k0 z).
    """

    l_re: float
    l_im: float


def _pitch_pair(pitch) -> tuple[float, float]:
    if np.isscalar(pitch):
        return float(pitch), float(pitch)
    px, py = pitch
    return float(px), float(py)


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


def _full_transfer(
    height: int, width: int, pitch_x: float, pitch_y: float, wavelength: float, z: float
) -> np.ndarray:
    """Complex H over z on the full FFT grid, mirrored from the half spectrum:
    the column of v_x < 0 equals the column of -v_x, because H is even."""
    re_h, im_h = _half_transfer(height, width, pitch_x, pitch_y, wavelength, z)
    half = re_h + 1j * im_h
    full = np.concatenate([half, half[:, (width - 1) // 2:0:-1]], axis=1)
    full.setflags(write=False)
    return full


def transfer_function(shape: tuple[int, int], pitch, wavelength: float, z: float) -> TransferFunction:
    """Build the angular-spectrum transfer function for a grid shape.

    Parameters
    ----------
    shape : (height, width)
    pitch : scalar pitch in meters, or (pitch_x, pitch_y)
    wavelength : vacuum wavelength in meters
    z : propagation distance in meters (may be negative)
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    height, width = int(shape[0]), int(shape[1])
    if height < 2 or width < 2:
        raise ValueError(f"shape must be at least 2x2, got {shape}")
    pitch_x, pitch_y = _pitch_pair(pitch)
    if not (pitch_x > 0 and pitch_y > 0):
        raise ValueError("pitch must be positive")
    values = _full_transfer(height, width, pitch_x, pitch_y, float(wavelength), float(z))
    return TransferFunction(values, float(z), float(wavelength), pitch_x, pitch_y)


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


def _ifft2_crop(spectrum: np.ndarray, height: int, width: int, workers: int) -> np.ndarray:
    """``ifft2(spectrum)[:height, :width]``, the complex twin of
    :func:`_irfft2_crop`; like ifft2, it scales after the first transform."""
    rows = _fft.ifft(spectrum, axis=0, norm="forward", workers=workers)[:height]
    rows *= 1.0 / spectrum.size
    return _fft.ifft(rows, axis=1, norm="forward", workers=workers)[:, :width]


def _propagate_array(
    field: np.ndarray, pitch_x: float, pitch_y: float, wavelength: float, z: float, pad: bool,
    *, spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """P_z field, cropped to the field's grid.

    ``spectrum``, when given, is the field's transform on the frame, which a
    caller propagating one field to many planes computes once: ``rfft2`` of
    a real field, ``fft2`` of a complex one.
    """
    height, width = field.shape
    frame = _frame(height, width, pad)
    workers = fft_workers()
    if np.iscomplexobj(field):
        h = _full_transfer(*frame, pitch_x, pitch_y, wavelength, z)
        if spectrum is None:
            spectrum = _fft.fft2(field, s=frame, workers=workers)
        return _ifft2_crop(spectrum * h, height, width, workers)
    # a real field: one rfft2, then one inverse each for Re and Im of P_z field
    re_h, im_h = _half_transfer(*frame, pitch_x, pitch_y, wavelength, z)
    if spectrum is None:
        spectrum = _fft.rfft2(field, s=frame, workers=workers)
    out = np.empty((height, width), dtype=np.complex128)
    out.real = _irfft2_crop(spectrum * re_h, frame, height, width, workers)
    out.imag = _irfft2_crop(spectrum * im_h, frame, height, width, workers)
    return out


def propagate(field: ComplexGrid2D, z: float, wavelength: float, pad: bool = False) -> ComplexGrid2D:
    """Propagate a sampled field over distance z (negative = backward).

    With ``pad=True`` the field is embedded in a doubled zero frame for the
    transform and cropped back, suppressing circular wrap-around at the
    cost of exact unitarity.
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    out = _propagate_array(field.data, field.pitch_x, field.pitch_y, float(wavelength), float(z), pad)
    return ComplexGrid2D(out, field.pitch_x, field.pitch_y)


def kernel_sums(wavelength: float, z: float) -> KernelSums:
    """Lattice sums of the real and imaginary kernel parts: (cos k0 z, sin k0 z)."""
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    k0z = 2.0 * np.pi / wavelength * z
    return KernelSums(l_re=float(np.cos(k0z)), l_im=float(np.sin(k0z)))
