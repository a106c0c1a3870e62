"""holoem's one operator core: the angular-spectrum transfer, the
half-spectrum transform pair, the multi-slice maps, ``propagate`` and the
autofocus sweep's per-plane step. Only this module calls ``np.fft``.

Propagation is relative to the unscattered plane wave: the phase
exp(j k0 z), k0 = 2 pi / lambda, that it shares with the scattered wave
cancels in a recorded intensity. Over a distance z the transfer is

    H(v) = exp(j k0 z (sqrt(1 - (lambda v_x)^2 - (lambda v_y)^2) - 1))

inside the propagating band sqrt(v_x^2 + v_y^2) < 1/lambda and exactly 0
outside (evanescent components are dropped), the root minus 1 taken as
-(lambda v)^2 / (1 + root) so that low frequencies keep their digits;
H(0) = 1. Distances may be negative (back-propagation); H(-z) = conj(H(z)),
so P_z is unitary on the propagating band and P_{-z} is its adjoint.

Half spectra are stored kx-major, ``rfft2(w).T`` of shape (W//2 + 1, H),
so the y transforms run along the contiguous axis. ``_half_spectrum`` and
``_irfft2_crop`` are the one transform pair, and ``_frame`` sizes their
frame: the grid, or a 2H x 2W zero frame whose corner holds the field.
H depends on v only through |v|^2, so it is even: H(-v) = H(v). For a
field w = a + j b, with a and b real and A = rfft2(a), B = rfft2(b),
that makes Re[P_z w] and Im[P_z w] real-to-real filters,

    Re[P_z w] = irfft2(A Re H - B Im H),   Im[P_z w] = irfft2(A Im H + B Re H),

because the Hermitian part of A(v) H(v) is A(v) Re H(v) and its
anti-Hermitian part is j A(v) Im H(v). ``_sweep_transfers`` gives Re H
and Im H in that layout on a scan of depths, with cos and sin taken twice
per scan and the square root once per grid. The maps take one-plane
builds from ``_transfer_array``. It keeps the last 32 signed depths
(numpy's cos is even and its sin odd, so -z builds conj H(z) bit for bit)
and counts its builds (holoem's one cache). The autofocus sweep keeps
none: its spectrum is blurred by ``_low_pass`` and cut by ``_decimated``,
and ``_propagate_array``, the B = 0 case, is its per-plane step.

The forward map of S slices w_z at distances z is sum_z Re[P_z w_z]. Its
adjoint on a real residual r is P_{-z} r per slice: the real part,
irfft2(R Re H), is the gradient w.r.t. a slice's real part, and the
imaginary part, -irfft2(R Im H), w.r.t. its imaginary part. The forward
sums slice spectra before one inverse (one rfft2 per slice part with a
nonzero zero-mean remainder; with none, no inverse either); the adjoint
reuses R = rfft2(r) and pays one inverse per slice for the real part and
one more for the imaginary part, which ``real=True`` skips.

Each slice is split into its window mean and the zero-mean remainder.
The mean models the unscattered plane wave, which physically extends far
beyond the recorded window. As H(0) = 1, the forward map adds
sum_z Re(mean w_z), and the adjoint's mean response is the residual's
mean, 0 in the imaginary part. Only the remainder, compact for sparse
objects, goes through the frame that ``pad`` chooses: on the grid the
split is exact; on the doubled frame the remainder sits at its corner and
is cropped back from it (circular convolution is shift-invariant), and
the split keeps a constant background representable, where a
zero-padded constant would ring at the frame edge and leave a solver a
structural residual over the entire field. The adjoint is the exact
transpose of the split, so gradient checks hold to rounding error on
either frame.

``propagate`` moves one complex field, Re[P_z w] and Im[P_z w], as the
forward map of the one-slice stack w and of -j w: two forward passes.
Padding suppresses wrap-around but breaks exact unitarity at the frame
edge, so its round trip, energy conservation and composition hold for
the unpadded operator. The public modules check their arrays and call
these functions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import _checked_samples, _positive

__all__ = ["propagate", "stack_forward", "stack_adjoint"]


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
