"""Sampled 2-D images on a uniform lattice.

An image is a (height, width) array, row index y, with the physical pitch
of its samples. Objects, holograms and propagated fields are plain arrays
on an ``OpticalConfig``, which carries their pitch; ``RealGrid2D`` is the
pitch-carrying image record that ``io.load_image`` returns and
``io.save_image`` takes. ``_checked_samples`` is the one check applied
where samples enter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RealGrid2D"]


def _checked_samples(data, pitch_x: float, pitch_y: float, dtype=np.float64) -> np.ndarray:
    """A read-only C-contiguous copy of 2-D data of at least 2x2 finite
    samples, at a positive finite pitch."""
    if not (pitch_x > 0 and np.isfinite(pitch_x)) or not (pitch_y > 0 and np.isfinite(pitch_y)):
        raise ValueError(f"pixel pitch must be positive and finite, got ({pitch_x}, {pitch_y})")
    arr = np.array(data, dtype=dtype, order="C")
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"grid data must be 2-D with at least 2x2 samples, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"grid contains a non-finite sample at (y={bad[0]}, x={bad[1]})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RealGrid2D:
    """Real-valued samples on a uniform lattice.

    data has shape (height, width), row index y, column index x, and is a
    read-only copy; pitch_x / pitch_y are the physical sample pitches in
    meters. Entries must be finite; non-negativity is a property of
    intensity data and is enforced where intensities are constructed.
    """

    data: np.ndarray
    pitch_x: float
    pitch_y: float

    def __post_init__(self):
        object.__setattr__(self, "data", _checked_samples(self.data, self.pitch_x, self.pitch_y))
