"""Sampled 2-D fields on a uniform lattice, and the FFT worker count.

The transforms themselves are direct ``scipy.fft`` calls in
``propagation`` and ``operators``, in the default (``norm="backward"``)
convention: the forward transform is unnormalized and the inverse carries
``1/(width*height)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = ["ComplexGrid2D", "RealGrid2D", "fft_workers"]


def fft_workers() -> int:
    """Worker count for FFT calls, read from the HOLOEM_THREADS env var."""
    try:
        return max(1, int(os.environ.get("HOLOEM_THREADS", "1")))
    except ValueError:
        return 1


def _prepare(data, dtype: type) -> np.ndarray:
    arr = np.array(data, dtype=dtype, order="C")
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(
            f"grid data must be 2-D with at least 2x2 samples, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"grid contains a non-finite sample at (y={bad[0]}, x={bad[1]})")
    arr.setflags(write=False)
    return arr


def _check_pitch(pitch_x: float, pitch_y: float) -> None:
    if not (pitch_x > 0 and np.isfinite(pitch_x)) or not (pitch_y > 0 and np.isfinite(pitch_y)):
        raise ValueError(f"pixel pitch must be positive and finite, got ({pitch_x}, {pitch_y})")


@dataclass(frozen=True)
class ComplexGrid2D:
    """Complex field samples on a uniform lattice.

    data has shape (height, width), row index y, column index x.
    pitch_x / pitch_y are the physical sample pitches in meters. The data
    buffer is made read-only; derive modified grids with :meth:`with_data`.
    """

    data: np.ndarray
    pitch_x: float
    pitch_y: float

    def __post_init__(self):
        _check_pitch(self.pitch_x, self.pitch_y)
        object.__setattr__(self, "data", _prepare(self.data, np.complex128))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def with_data(self, data) -> "ComplexGrid2D":
        return ComplexGrid2D(data, self.pitch_x, self.pitch_y)

    def real_part(self) -> "RealGrid2D":
        return RealGrid2D(self.data.real, self.pitch_x, self.pitch_y)

    def imag_part(self) -> "RealGrid2D":
        return RealGrid2D(self.data.imag, self.pitch_x, self.pitch_y)


@dataclass(frozen=True)
class RealGrid2D:
    """Real-valued samples on a uniform lattice (see :class:`ComplexGrid2D`).

    Entries must be finite; non-negativity is a property of intensity data
    and is enforced where intensities are constructed, not here.
    """

    data: np.ndarray
    pitch_x: float
    pitch_y: float

    def __post_init__(self):
        _check_pitch(self.pitch_x, self.pitch_y)
        object.__setattr__(self, "data", _prepare(self.data, np.float64))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def with_data(self, data) -> "RealGrid2D":
        return RealGrid2D(data, self.pitch_x, self.pitch_y)

    def as_complex(self) -> ComplexGrid2D:
        return ComplexGrid2D(self.data.astype(np.complex128), self.pitch_x, self.pitch_y)
