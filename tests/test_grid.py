"""The image record, the input rules and the sample check applied where data enters."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoem.em import ReconParams, reconstruct_real
from holoem.forward import Hologram, OpticalConfig, add_poisson_noise, synthesize_linear
from holoem.grid import RealGrid2D
from holoem.io import HoloIOError, load_image, save_image
from holoem.metrics import psnr, quality_report, resolution_limits, ssim
from holoem.operators import propagate

from conftest import PITCH, WAVELENGTH


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


def _config(**kw):
    return OpticalConfig(**{**dict(wavelength=WAVELENGTH, pitch_x=PITCH, width=16, height=16,
                                   slice_distances=(1.0e-3,)), **kw})


_IMAGE = np.ones((16, 16))

# (entry point, quantity): a call that passes the value as that quantity
SCALARS = {
    ("OpticalConfig", "wavelength"): lambda v: _config(wavelength=v),
    ("OpticalConfig", "pixel pitch"): lambda v: _config(pitch_x=v),
    ("OpticalConfig.pitch_y", "pixel pitch"): lambda v: _config(pitch_y=v),
    ("OpticalConfig", "slice distance"): lambda v: _config(slice_distances=(v, 2e-3)),
    ("RealGrid2D", "pixel pitch"): lambda v: RealGrid2D(_IMAGE, PITCH, v),
    ("Hologram", "photon_scale"): lambda v: Hologram(_IMAGE, _config(), photon_scale=v),
    ("add_poisson_noise", "photon_scale"): lambda v: add_poisson_noise(_IMAGE, v, 1),
    ("propagate", "wavelength"): lambda v: propagate(_IMAGE, PITCH, PITCH, v, 1e-3),
    ("propagate", "pixel pitch"): lambda v: propagate(_IMAGE, v, PITCH, WAVELENGTH, 1e-3),
    ("resolution_limits", "wavelength"): lambda v: resolution_limits(v, 0.5),
    ("psnr", "peak"): lambda v: psnr(_IMAGE, _IMAGE, peak=v),
    ("ssim", "peak"): lambda v: ssim(_IMAGE, _IMAGE, peak=v),
    ("quality_report", "peak"): lambda v: quality_report(_IMAGE, _IMAGE, peak=v),
    ("ReconParams", "stop_delta"): lambda v: ReconParams(stop_delta=v),
}


@pytest.mark.parametrize("entry, quantity", SCALARS, ids=[" ".join(k) for k in SCALARS])
@settings(max_examples=20, deadline=None)
@given(value=st.floats(max_value=0.0) | st.just(np.nan) | st.floats(min_value=np.inf))
@example(value=0.0)
@example(value=-1e-6)
@example(value=np.nan)
@example(value=np.inf)
@example(value=-np.inf)
def test_every_scalar_entry_refuses_a_value_that_is_not_positive_and_finite(entry, quantity,
                                                                             value):
    with pytest.raises(ValueError, match=re.escape(f"{quantity} must be positive and finite, "
                                                   f"got {value}")):
        SCALARS[entry, quantity](value)


def _pfm_with(shape, index, value):
    """Load a PFM of ones whose pixel at index holds value on disk."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "img.pfm"
        save_image(path, RealGrid2D(np.ones(shape), PITCH, PITCH))
        raw = bytearray(path.read_bytes())
        row = shape[0] - 1 - index[0]  # PFM stores the bottom row first
        offset = len(raw) - 4 * (shape[0] * shape[1] - row * shape[1] - index[1])
        raw[offset:offset + 4] = np.float32(value).astype("<f4").tobytes()
        path.write_bytes(bytes(raw))
        return load_image(path)


def _solve_with_bound(shape, bound):
    holo = Hologram(np.ones(shape), _config(width=shape[1], height=shape[0], pad=False))
    return reconstruct_real(holo, ReconParams(max_iters=1, upper_bound=bound))


def _synthesize(obj):
    return synthesize_linear(obj, _config(width=obj.shape[2], height=obj.shape[1],
                                          slice_distances=(1e-3, 2e-3), pad=False))


# entry point: (whether it refuses negatives, the array's shape from a
# drawn (height, width), a call on that array)
ARRAYS = {
    "RealGrid2D": (False, lambda s: s, lambda a: RealGrid2D(a, PITCH, PITCH)),
    "Hologram": (True, lambda s: s,
                 lambda a: Hologram(a, _config(width=a.shape[1], height=a.shape[0]))),
    "synthesize_linear": (False, lambda s: (2, *s), _synthesize),
    "psnr test": (False, lambda s: s, lambda a: psnr(a, np.ones(a.shape))),
    "psnr reference": (False, lambda s: s, lambda a: psnr(np.ones(a.shape), a)),
    "upper bound": (False, lambda s: s, lambda a: _solve_with_bound(a.shape, a)),
    "add_poisson_noise": (True, lambda s: s, lambda a: add_poisson_noise(a, 1e3, 1)),
}


def _index(data, shape):
    return tuple(data.draw(st.integers(0, n - 1)) for n in shape)


@pytest.mark.parametrize("entry", ARRAYS)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), size=st.tuples(st.integers(2, 9), st.integers(2, 9)),
       value=st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(
           max_value=0.0, exclude_max=True, allow_infinity=False))
def test_every_array_entry_names_the_index_of_a_bad_entry(entry, data, size, value):
    refuses_negatives, shape_of, call = ARRAYS[entry]
    shape = shape_of(size)
    arr = np.ones(shape)
    index = _index(data, shape)
    arr[index] = value
    if np.isfinite(value) and not refuses_negatives:
        return  # a finite negative entry is a valid sample here
    rule = "finite: non-finite" if not np.isfinite(value) else "non-negative: negative"
    message = f"must be {rule} entry {value} at index {index}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(arr)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
       value=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_a_loaded_pfm_names_the_index_of_a_non_finite_pixel(data, shape, value):
    index = _index(data, shape)
    with pytest.raises(HoloIOError, match=re.escape(f"must be finite: non-finite entry "
                                                    f"{value} at index {index}")):
        _pfm_with(shape, index, value)


def test_a_scalar_bound_is_refused_without_an_index():
    with pytest.raises(ValueError, match=r"upper bound must be finite: non-finite entry nan$"):
        _solve_with_bound((4, 4), np.nan)
