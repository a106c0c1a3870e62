"""Grid containers."""

import numpy as np
import pytest

from holoem.grid import ComplexGrid2D, RealGrid2D


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
        ComplexGrid2D(np.zeros((3, 3)), 1e-6, float("inf"))


def test_grid_data_is_read_only():
    g = RealGrid2D(np.zeros((3, 3)), 1e-6, 1e-6)
    with pytest.raises(ValueError):
        g.data[0, 0] = 1.0


def test_part_accessors_round_trip(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = ComplexGrid2D(x, 1e-6, 2e-6)
    np.testing.assert_array_equal(g.real_part().data, x.real)
    np.testing.assert_array_equal(g.imag_part().data, x.imag)
    r = RealGrid2D(x.real, 1e-6, 2e-6)
    assert r.as_complex().data.dtype == np.complex128
    assert g.with_data(2 * x).data[1, 1] == 2 * x[1, 1]
    assert g.shape == (4, 4) and g.height == 4 and g.width == 4

