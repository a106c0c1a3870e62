"""Angular-spectrum transfer samples and the half-spectrum transform pair.

Propagation is relative to the unscattered plane wave: the phase
exp(j k0 z), k0 = 2 pi / lambda, that it shares with the scattered wave
cancels in a recorded intensity. Over a distance z the transfer is

    H(v) = exp(j k0 z (sqrt(1 - (lambda v_x)^2 - (lambda v_y)^2) - 1))

inside the propagating band sqrt(v_x^2 + v_y^2) < 1/lambda and exactly 0
outside (evanescent components are dropped), the root minus 1 taken as
-(lambda v)^2 / (1 + root) so that low frequencies keep their digits;
H(0) = 1. Distances may be negative (back-propagation); H(-z) = conj(H(z)),
so the propagation operator is unitary on the propagating band and P_{-z}
is the adjoint of P_z.

H depends on v only through |v|^2, so it is even: H(-v) = H(v). For a
field w = a + j b, with a and b real and A = rfft2(a), B = rfft2(b),
that makes Re[P_z w] and Im[P_z w] real-to-real filters,

    Re[P_z w] = irfft2(A Re H - B Im H),   Im[P_z w] = irfft2(A Im H + B Re H),

because the Hermitian part of A(v) H(v) is A(v) Re H(v) and its
anti-Hermitian part is j A(v) Im H(v). Half spectra are stored kx-major,
``rfft2(w).T`` of shape (W//2 + 1, H), so the y transforms run along the
contiguous axis; ``_half_spectrum`` and ``_irfft2_crop`` are the one
transform pair, and ``_frame`` sizes their frame: the grid, or a 2H x 2W
zero frame whose corner holds the field. ``_sweep_transfers`` gives Re H
and Im H in that layout on a scan of depths, with cos and sin taken twice
per scan and the square root once per grid; ``_propagate_array``, the
B = 0 case, is the autofocus sweep's per-plane step.

The operators (``operators.propagate`` runs on ``stack_forward``) take
one-plane builds from ``_transfer_array``. It keeps the last 32 signed
depths (numpy's cos is even and its sin odd, so -z builds conj H(z) bit
for bit) and counts its builds (holoem's one cache); the autofocus sweep
keeps none. This module exports nothing.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = []


def _transfer_grid(height: int, width: int, pitch_x: float, pitch_y: float, wavelength: float):
    """sqrt(1 - (lambda v)^2) - 1 and the band mask on the kx-major columns
    of v_y >= 0: the depth-free part of a transfer build."""
    vx = np.fft.rfftfreq(width, d=pitch_x)
    vy = np.fft.fftfreq(height, d=pitch_y)[:height // 2 + 1]
    q = (wavelength * vx[:, None]) ** 2 + (wavelength * vy[None, :]) ** 2
    inside = q < 1.0
    return -q / (1.0 + np.sqrt(np.maximum(1.0 - q, 0.0))), inside


def _sweep_transfers(height: int, width: int, pitch_x: float, pitch_y: float, wavelength: float,
                     start: float, step: float, count: int):
    """Re H and Im H at the signed depths start + i step, i < count, on the
    kx-major half spectrum of a height x width frame, each plane in the same
    two arrays. cos and sin are taken at ``start`` and ``step`` only: on the
    columns of v_y >= 0, each later plane adds the step's phase by angle
    addition in place, c' = c cos - s sin and s' = s cos + c sin, and
    entries outside the band stay 0. The columns of v_y < 0 are mirrored,
    as fftfreq gives -v exactly and H depends on v_y only through v_y^2."""
    lag, inside = _transfer_grid(height, width, pitch_x, pitch_y, wavelength)
    k0 = 2.0 * np.pi / wavelength
    c = np.cos(k0 * start * lag, out=np.zeros_like(lag), where=inside)
    s = np.sin(k0 * start * lag, out=np.zeros_like(lag), where=inside)
    re_h, im_h = np.empty((2, lag.shape[0], height))

    def mirrored():
        for full, q in ((re_h, c), (im_h, s)):
            np.concatenate([q, q[:, (height - 1) // 2:0:-1]], axis=1, out=full)
        return re_h, im_h

    yield mirrored()
    cos_step, sin_step = np.cos(k0 * step * lag), np.sin(k0 * step * lag)
    for _ in range(count - 1):
        c_sin = c * sin_step
        c *= cos_step
        c -= s * sin_step
        s *= cos_step
        s += c_sin
        yield mirrored()


@lru_cache(maxsize=32)
def _transfer_array(height: int, width: int, pitch_x: float, pitch_y: float, wavelength: float,
                    depth: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Re H and Im H over the signed distance ``depth``: a one-plane sweep."""
    transfer = next(_sweep_transfers(height, width, pitch_x, pitch_y, wavelength, depth, 0.0, 1))
    for part in transfer:
        part.setflags(write=False)
    return transfer


def _frame(height: int, width: int, pad: bool) -> tuple[int, int]:
    """Transform size: the grid itself, or the doubled zero frame with padding."""
    return (2 * height, 2 * width) if pad else (height, width)


def _half_spectrum(field: np.ndarray, frame: tuple[int, int]) -> np.ndarray:
    """``rfft2(field, s=frame).T``, bit for bit: the x transforms skip the
    zero rows the frame adds, and the y transforms run in place on the
    transposed result, zero-padded to the frame height."""
    rows = np.fft.rfft(field, n=frame[1], axis=1)
    out = np.zeros((rows.shape[1], frame[0]), dtype=np.complex128)
    out[:, :field.shape[0]] = rows.T
    return np.fft.fft(out, axis=1, out=out)


def _irfft2_crop(spectrum: np.ndarray, frame: tuple[int, int], height: int,
                 width: int) -> np.ndarray:
    """``irfft2(spectrum.T, s=frame)[:height, :width]``, bit for bit: the y
    transforms run along the contiguous axis, the x transforms only on the
    rows the crop keeps, and one 1 / (frame size) scale comes last, as in
    irfft2. The y transforms overwrite ``spectrum``, a product each caller
    owns. The kept rows are copied out contiguous 32 columns at a time, so
    that both sides of the transposing copy stay in cache."""
    cols = np.fft.ifft(spectrum, axis=1, norm="forward", out=spectrum)
    rows = np.empty((height, cols.shape[0]), dtype=np.complex128)
    for k in range(0, cols.shape[0], 32):
        rows[:, k:k + 32] = cols[k:k + 32, :height].T
    out = np.fft.irfft(rows, n=frame[1], axis=1, norm="forward")[:, :width]
    out *= 1.0 / (frame[0] * frame[1])
    return out


def _propagate_array(spectrum: np.ndarray, transfer: tuple[np.ndarray, np.ndarray],
                     frame: tuple[int, int], height: int, width: int) -> np.ndarray:
    """P_z of a real field, cropped to height x width, from its kx-major half
    spectrum on the frame and the plane's Re H and Im H: two cropped inverses
    of one product buffer."""
    re_h, im_h = transfer
    out = np.empty((height, width), dtype=np.complex128)
    product = np.multiply(spectrum, re_h)
    out.real = _irfft2_crop(product, frame, height, width)
    out.imag = _irfft2_crop(np.multiply(spectrum, im_h, out=product), frame, height, width)
    return out

