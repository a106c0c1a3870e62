"""Sampled 2-D images on a uniform lattice.

An image is a (height, width) array, row index y, with the physical pitch of
its samples. Objects, holograms and propagated fields are plain arrays on an
``OpticalConfig``, which carries their pitch; ``RealGrid2D`` is the
pitch-carrying image record that ``io.load_image`` returns and
``io.save_image`` takes. ``_checked_samples`` is the one check where samples
enter; ``_positive``, ``_finite`` and ``_nonnegative`` are holoem's input rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RealGrid2D"]


def _positive(value, what: str):
    """value, when it is a positive finite scalar; else ValueError naming it."""
    if not 0 < value < np.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


def _first(arr: np.ndarray, bad: np.ndarray) -> str:
    """The first entry of arr where bad holds, with its index unless arr is 0-d."""
    index = np.unravel_index(np.argmax(bad), bad.shape)
    return f"{arr[index]} at index {tuple(map(int, index))}" if index else f"{arr[index]}"


def _finite(arr: np.ndarray, what: str, error=ValueError) -> np.ndarray:
    """arr, when every entry is finite; else ``error`` naming the first that is not."""
    if not np.isfinite(arr).all():
        raise error(f"{what} must be finite: non-finite entry {_first(arr, ~np.isfinite(arr))}")
    return arr


def _nonnegative(arr: np.ndarray, what: str) -> None:
    """ValueError naming the first negative entry of arr, if it has one."""
    if arr.min() < 0:
        raise ValueError(f"{what} must be non-negative: negative entry {_first(arr, arr < 0)}")


def _checked_samples(data, pitch_x: float, pitch_y: float, dtype=np.float64) -> np.ndarray:
    """A read-only C-contiguous copy of 2-D data of at least 2x2 finite
    samples, at a positive finite pitch."""
    _positive(pitch_x, "pixel pitch")
    _positive(pitch_y, "pixel pitch")
    arr = np.array(data, dtype=dtype, order="C")
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"grid data must be 2-D with at least 2x2 samples, got shape {arr.shape}")
    _finite(arr, "grid data")
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
