"""Deterministic synthetic objects for experiments and tests.

All shapes are generated from closed-form masks, so the same call always
yields bit-identical arrays. A stack builder returns an (S, H, W) object
array on the config's grid: float64 for the real phantoms, complex128 for
the complex one. Real phantoms are weak absorbers (negative real
perturbation on an empty background); the complex phantom carries
laterally separated absorption and phase structures so the two parts are
individually identifiable.

Mask helpers return boolean arrays from fractional centers, and sizes as
fractions of a scale in pixels; a builder joins shapes with ``|`` and
multiplies the result by its contrast (a product, not ``np.where``, so an
absorber's background stays -0.0, the value its truth files record).
The builders pass the pixel count of a fixed physical extent (a 143.36 um
reference field) as that scale, so that growing the grid enlarges the
field of view around the same physical object instead of magnifying the
features.
"""

from __future__ import annotations

import numpy as np

from .forward import OpticalConfig

__all__ = [
    "multi_depth_stack",
    "single_slice_stack",
    "complex_stack",
]

# feature sizes below are fractions of this physical extent (the field of a
# 128-pixel grid at 1.12 um pitch), converted to pixels via the grid pitch
REFERENCE_EXTENT = 143.36e-6


def _coords(height: int, width: int):
    y = np.arange(height, dtype=np.float64)[:, None]
    x = np.arange(width, dtype=np.float64)[None, :]
    return y, x


def disk_mask(height: int, width: int, cy: float, cx: float, r: float,
              scale: float) -> np.ndarray:
    """Filled disk; fractional center, radius as a fraction of scale."""
    y, x = _coords(height, width)
    return (y - cy * height) ** 2 + (x - cx * width) ** 2 <= np.float64(r * scale) ** 2


def rect_mask(height: int, width: int, cy: float, cx: float, hy: float, hx: float,
              scale: float) -> np.ndarray:
    """Filled rectangle from a fractional center and half-sizes of scale."""
    y, x = _coords(height, width)
    return (np.abs(y - cy * height) <= hy * scale) & (np.abs(x - cx * width) <= hx * scale)


def ring_mask(height: int, width: int, cy: float, cx: float, r_in: float, r_out: float,
              scale: float) -> np.ndarray:
    """Annulus between two radii given as fractions of scale."""
    y, x = _coords(height, width)
    d2 = (y - cy * height) ** 2 + (x - cx * width) ** 2
    return (np.float64(r_in * scale) ** 2 <= d2) & (d2 <= np.float64(r_out * scale) ** 2)


def cross_mask(height: int, width: int, cy: float, cx: float, arm: float, thick: float,
               scale: float) -> np.ndarray:
    """Plus-shaped cross; arm half-length and half-thickness as fractions of scale."""
    y, x = _coords(height, width)
    dy = np.abs(y - cy * height)
    dx = np.abs(x - cx * width)
    a, t = arm * scale, thick * scale
    return ((dx <= a) & (dy <= t)) | ((dy <= a) & (dx <= t))


def multi_depth_masks(height: int, width: int, scale: float) -> list[np.ndarray]:
    """Three boolean feature masks with laterally disjoint supports.

    Slice 0 occupies the left third of the field, slice 1 the middle,
    slice 2 the right, so depth crosstalk can be measured directly from
    energy outside a slice's own support region. scale fixes the feature
    size in pixels (see module docstring).
    """
    return [
        disk_mask(height, width, 0.30, 0.16, 0.055, scale)
        | rect_mask(height, width, 0.585, 0.17, 0.035, 0.09, scale),
        ring_mask(height, width, 0.35, 0.50, 0.050, 0.080, scale)
        | rect_mask(height, width, 0.63, 0.50, 0.03, 0.08, scale),
        cross_mask(height, width, 0.32, 0.82, 0.070, 0.016, scale)
        | rect_mask(height, width, 0.61, 0.82, 0.05, 0.06, scale),
    ]


def multi_depth_stack(config: OpticalConfig, contrast: float = 0.04) -> np.ndarray:
    """Weak absorbing three-depth object matching the config geometry.

    Each slice is -contrast on its feature mask, zero elsewhere. Requires
    a three-distance config. Feature sizes are fixed physically.
    """
    if config.n_slices != 3:
        raise ValueError(f"multi-depth phantom needs 3 slice distances, got {config.n_slices}")
    masks = multi_depth_masks(config.height, config.width, REFERENCE_EXTENT / config.pitch_x)
    return np.stack([-contrast * m for m in masks])


def single_slice_stack(config: OpticalConfig, contrast: float = 0.04) -> np.ndarray:
    """Weak absorbing single-slice object: disk + bar + ring in one plane."""
    if config.n_slices != 1:
        raise ValueError(f"single-slice phantom needs 1 slice distance, got {config.n_slices}")
    h, w = config.height, config.width
    s = REFERENCE_EXTENT / config.pitch_x
    m = (disk_mask(h, w, 0.34, 0.30, 0.07, s) | rect_mask(h, w, 0.64, 0.40, 0.04, 0.16, s)
         | ring_mask(h, w, 0.36, 0.68, 0.055, 0.085, s))
    return -contrast * m[None]


def complex_stack(
    config: OpticalConfig, contrast: float = 0.06, phase_contrast: float = 0.06
) -> np.ndarray:
    """Single-slice complex object with distinct real and imaginary patterns.

    The real part is -contrast on absorbing disks in the left half, the
    imaginary part phase_contrast on phase-delay bars and a ring in the
    right half, so the two parts have different shapes in different places.
    """
    if config.n_slices != 1:
        raise ValueError(f"complex phantom needs 1 slice distance, got {config.n_slices}")
    h, w = config.height, config.width
    s = REFERENCE_EXTENT / config.pitch_x
    re = -contrast * (disk_mask(h, w, 0.30, 0.22, 0.095, s)
                      | disk_mask(h, w, 0.64, 0.30, 0.070, s))
    im = phase_contrast * (rect_mask(h, w, 0.30, 0.73, 0.05, 0.16, s)
                           | rect_mask(h, w, 0.50, 0.73, 0.05, 0.16, s)
                           | ring_mask(h, w, 0.72, 0.72, 0.050, 0.085, s))
    return (re + 1j * im)[None]
