"""Complex-FFT reference for the multi-slice operators and propagation.

A straight transcription of the operator model on full complex
transforms: transfer samples on the full FFT grid, relative to the
unscattered plane wave (so a window mean passes unchanged), and padding
that embeds the zero-mean remainder at the centre of a doubled frame.
Tests compare the production operators and ``propagate``, real and
complex fields alike, against it.
"""

import numpy as np


def full_transfer(height, width, pitch_x, pitch_y, wavelength, z):
    """exp(j k0 z (sqrt(1 - (lambda v)^2) - 1)) on the full FFT grid, 0 outside
    the band; the root minus 1 is taken as expm1(log1p(-(lambda v)^2) / 2),
    accurate at low frequencies."""
    vx = np.fft.fftfreq(width, d=pitch_x)
    vy = np.fft.fftfreq(height, d=pitch_y)
    q = (wavelength * vx[None, :]) ** 2 + (wavelength * vy[:, None]) ** 2
    inside = q < 1.0
    h = np.zeros((height, width), dtype=np.complex128)
    lag = np.expm1(0.5 * np.log1p(-q[inside]))
    h[inside] = np.exp(1j * (2.0 * np.pi / wavelength) * z * lag)
    return h


def pad_slices(height, width):
    """Where a height x width grid sits when embedded centred in the doubled frame."""
    top, left = height // 2, width // 2
    return slice(top, top + height), slice(left, left + width)


def _embed(field):
    height, width = field.shape
    frame = np.zeros((2 * height, 2 * width), dtype=np.complex128)
    sy, sx = pad_slices(height, width)
    frame[sy, sx] = field
    return frame


def oracle_propagate(field, pitch_x, pitch_y, wavelength, z, pad=True):
    """P_z field for a real or complex field on the full complex transform;
    with padding the mean passes unchanged and the zero-mean remainder is
    embedded, propagated and cropped."""
    height, width = field.shape
    if not pad:
        h = full_transfer(height, width, pitch_x, pitch_y, wavelength, z)
        return np.fft.ifft2(np.fft.fft2(field.astype(np.complex128)) * h)
    mean = field.mean()
    sy, sx = pad_slices(height, width)
    h = full_transfer(2 * height, 2 * width, pitch_x, pitch_y, wavelength, z)
    back = np.fft.ifft2(np.fft.fft2(_embed(field - mean)) * h)[sy, sx]
    return back + mean


def oracle_forward(stack, pitch_x, pitch_y, wavelength, distances, pad=True):
    """sum_z Re[P_z w_z] as a real (H, W) array."""
    stack = np.asarray(stack)
    height, width = stack.shape[1:]
    if pad:
        sy, sx = pad_slices(height, width)
        spectrum = np.zeros((2 * height, 2 * width), dtype=np.complex128)
        dc = 0.0
        for w, z in zip(stack, distances):
            mean = w.mean()
            dc += mean.real
            h = full_transfer(2 * height, 2 * width, pitch_x, pitch_y, wavelength, z)
            spectrum += np.fft.fft2(_embed(w - mean)) * h
        return dc + np.fft.ifft2(spectrum).real[sy, sx]
    spectrum = np.zeros((height, width), dtype=np.complex128)
    for w, z in zip(stack, distances):
        h = full_transfer(height, width, pitch_x, pitch_y, wavelength, z)
        spectrum += np.fft.fft2(w.astype(np.complex128)) * h
    return np.fft.ifft2(spectrum).real


def oracle_adjoint(residual, pitch_x, pitch_y, wavelength, distances, pad=True):
    """(P_{-z} r)_z as an (S, H, W) complex array."""
    residual = np.asarray(residual, dtype=np.float64)
    height, width = residual.shape
    out = np.empty((len(distances), height, width), dtype=np.complex128)
    if pad:
        sy, sx = pad_slices(height, width)
        r_mean = residual.mean()
        spectrum = np.fft.fft2(_embed(residual))
        for i, z in enumerate(distances):
            h = full_transfer(2 * height, 2 * width, pitch_x, pitch_y, wavelength, -z)
            back = np.fft.ifft2(spectrum * h)[sy, sx]
            out[i] = (back - back.mean()) + r_mean
        return out
    spectrum = np.fft.fft2(residual.astype(np.complex128))
    for i, z in enumerate(distances):
        h = full_transfer(height, width, pitch_x, pitch_y, wavelength, -z)
        out[i] = np.fft.ifft2(spectrum * h)
    return out
