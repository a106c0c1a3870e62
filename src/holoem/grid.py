"""Sampled 2-D fields on a uniform lattice.

Fields are (height, width) arrays, row index y. The transforms are one
pair in ``propagation``, ``_half_spectrum`` and ``_irfft2_crop``, on half
spectra stored kx-major, (width//2 + 1, height); the forward transform is
unnormalized and the inverse carries ``1/(width*height)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ComplexGrid2D", "RealGrid2D"]


@dataclass(frozen=True)
class _Grid2D:
    """Samples on a uniform lattice; a subclass fixes the dtype in ``_dtype``."""

    data: np.ndarray
    pitch_x: float
    pitch_y: float
    _dtype = np.float64

    def __post_init__(self):
        px, py = self.pitch_x, self.pitch_y
        if not (px > 0 and np.isfinite(px)) or not (py > 0 and np.isfinite(py)):
            raise ValueError(f"pixel pitch must be positive and finite, got ({px}, {py})")
        arr = np.array(self.data, dtype=self._dtype, order="C")
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError(
                f"grid data must be 2-D with at least 2x2 samples, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"grid contains a non-finite sample at (y={bad[0]}, x={bad[1]})")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def with_data(self, data):
        """A grid of the same type and pitch holding other samples."""
        return type(self)(data, self.pitch_x, self.pitch_y)


@dataclass(frozen=True)
class ComplexGrid2D(_Grid2D):
    """Complex field samples on a uniform lattice.

    data has shape (height, width), row index y, column index x.
    pitch_x / pitch_y are the physical sample pitches in meters. The data
    buffer is made read-only; derive modified grids with :meth:`with_data`.
    """

    _dtype = np.complex128

    def real_part(self) -> "RealGrid2D":
        return RealGrid2D(self.data.real, self.pitch_x, self.pitch_y)

    def imag_part(self) -> "RealGrid2D":
        return RealGrid2D(self.data.imag, self.pitch_x, self.pitch_y)


@dataclass(frozen=True)
class RealGrid2D(_Grid2D):
    """Real-valued samples on a uniform lattice (see :class:`ComplexGrid2D`).

    Entries must be finite; non-negativity is a property of intensity data
    and is enforced where intensities are constructed, not here.
    """

    def as_complex(self) -> ComplexGrid2D:
        return ComplexGrid2D(self.data.astype(np.complex128), self.pitch_x, self.pitch_y)
