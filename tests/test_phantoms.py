"""Synthetic object generators: geometry, determinism, physical anchoring."""

import numpy as np
import pytest

from holoem.forward import OpticalConfig
from holoem.phantoms import (
    complex_stack,
    cross_mask,
    disk_mask,
    multi_depth_masks,
    multi_depth_stack,
    rect_mask,
    ring_mask,
    single_slice_stack,
)

from conftest import PITCH, WAVELENGTH


def config3(side=128):
    return OpticalConfig(WAVELENGTH, PITCH, side, side, (1.0e-3, 1.5e-3, 2.0e-3))


def config1(side=128):
    return OpticalConfig(WAVELENGTH, PITCH, side, side, (1.0e-3,))


class TestMaskGeometry:
    def test_disk_boundary_inclusive(self):
        # scale 32, radius fraction 0.25 -> radius exactly 8 px around (16, 16)
        m = disk_mask(32, 32, 0.5, 0.5, 0.25, scale=32)
        assert m[16, 16] == 1.0
        assert m[16, 24] == 1.0   # distance exactly 8
        assert m[16, 25] == 0.0
        assert m[24, 16] == 1.0
        assert m.dtype == np.bool_

    def test_disk_explicit_scale(self):
        # same fractional radius, half the scale -> half the pixel radius
        m = disk_mask(32, 32, 0.5, 0.5, 0.25, scale=16.0)
        assert m[16, 20] == 1.0   # distance 4 = 0.25 * 16
        assert m[16, 21] == 0.0

    def test_rect_half_sizes(self):
        m = rect_mask(20, 20, 0.5, 0.5, 0.1, 0.2, scale=20)
        # half-height 2 px, half-width 4 px around (10, 10), inclusive
        assert m[12, 10] == 1.0 and m[13, 10] == 0.0
        assert m[10, 14] == 1.0 and m[10, 15] == 0.0

    def test_ring_excludes_interior(self):
        m = ring_mask(40, 40, 0.5, 0.5, 0.2, 0.3, scale=40)
        assert m[20, 20] == 0.0           # center hole
        assert m[20, 20 + 7] == 0.0       # inside inner radius 8
        assert m[20, 20 + 10] == 1.0      # in the band [8, 12]
        assert m[20, 20 + 13] == 0.0      # outside

    def test_cross_is_union_of_bars(self):
        # arm half-length 10 px, half-thickness 2 px, both bounds inclusive
        m = cross_mask(40, 40, 0.5, 0.5, 0.25, 0.05, scale=40)
        assert m[20, 20] == 1.0
        assert m[20, 30] == 1.0 and m[20, 31] == 0.0   # horizontal arm extent
        assert m[22, 29] == 1.0 and m[23, 29] == 0.0   # arm thickness
        assert m[30, 20] == 1.0                        # vertical arm
        assert m[29, 29] == 0.0                        # diagonal corner stays empty

    def test_masks_are_binary(self):
        for m in multi_depth_masks(64, 64, scale=64):
            assert set(np.unique(m)) <= {0.0, 1.0}


def test_generators_are_deterministic():
    a = multi_depth_stack(config3())
    b = multi_depth_stack(config3())
    np.testing.assert_array_equal(a, b)
    c = complex_stack(config1())
    d = complex_stack(config1())
    np.testing.assert_array_equal(c, d)


def test_multi_depth_supports_are_disjoint():
    masks = multi_depth_masks(128, 128, scale=128)
    assert np.all(masks[0] * masks[1] == 0.0)
    assert np.all(masks[0] * masks[2] == 0.0)
    assert np.all(masks[1] * masks[2] == 0.0)


def test_feature_size_is_anchored_physically():
    # growing the grid at fixed pitch widens the field of view; the object
    # keeps its pixel footprint (up to lattice rounding of thin arms)
    small = [int((s != 0).sum()) for s in multi_depth_stack(config3(128))]
    large = [int((s != 0).sum()) for s in multi_depth_stack(config3(256))]
    for a, b in zip(small, large):
        assert abs(a - b) / a < 0.10


def test_multi_depth_contrast_levels():
    stack = multi_depth_stack(config3(), contrast=0.03)
    assert stack.shape == (3, 128, 128) and stack.dtype == np.float64
    for s in stack:
        assert set(np.round(np.unique(s), 12)) == {-0.03, 0.0}


def test_single_slice_contrast_and_support():
    stack = single_slice_stack(config1(), contrast=0.05)
    assert stack.shape == (1, 128, 128) and stack.dtype == np.float64
    arr = stack[0]
    assert set(np.round(np.unique(arr), 12)) == {-0.05, 0.0}
    assert 0 < (arr != 0).sum() < arr.size * 0.2  # sparse object


def test_complex_stack_parts_are_disjoint():
    stack = complex_stack(config1(), contrast=0.06, phase_contrast=0.05)
    assert stack.shape == (1, 128, 128) and stack.dtype == np.complex128
    re = stack[0].real
    im = stack[0].imag
    assert set(np.round(np.unique(re), 12)) == {-0.06, 0.0}
    assert set(np.round(np.unique(im), 12)) == {0.0, 0.05}
    assert np.all((re != 0) * (im != 0) == 0)


def test_slice_count_guards():
    with pytest.raises(ValueError):
        multi_depth_stack(config1())
    with pytest.raises(ValueError):
        single_slice_stack(config3())
    with pytest.raises(ValueError):
        complex_stack(config3())
