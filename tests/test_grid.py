"""The image record and the sample check applied where data enters."""

import numpy as np
import pytest

from holoem.grid import RealGrid2D


def test_grid_validation():
    with pytest.raises(ValueError):
        RealGrid2D(np.zeros((1, 5)), 1e-6, 1e-6)  # too few rows
    with pytest.raises(ValueError):
        RealGrid2D(np.zeros(10), 1e-6, 1e-6)  # not 2-D
    with pytest.raises(ValueError):
        RealGrid2D(np.full((3, 3), np.nan), 1e-6, 1e-6)
    with pytest.raises(ValueError):
        RealGrid2D(np.zeros((3, 3)), -1e-6, 1e-6)
    with pytest.raises(ValueError):
        RealGrid2D(np.zeros((3, 3)), 1e-6, float("inf"))


def test_grid_data_is_read_only():
    g = RealGrid2D(np.zeros((3, 3)), 1e-6, 1e-6)
    with pytest.raises(ValueError):
        g.data[0, 0] = 1.0
