"""Multi-slice forward/adjoint operator pair.

The adjoint dot test <H w, r> == sum_z Re<w_z, (H* r)_z> is the load-bearing
check: every gradient in the reconstruction modules relies on it. It must
hold to rounding error for both the plain and the padded (mean-split)
variants.
"""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from holoem.operators import stack_adjoint, stack_forward
from holoem.propagation import propagate

from complex_core import full_transfer, oracle_adjoint, oracle_forward, pad_slices
from conftest import PITCH, WAVELENGTH

DISTANCES_3 = (0.9e-3, 1.1e-3, 1.3e-3)


def _random_stack(rng, n_slices, shape=(8, 6)):
    return rng.standard_normal((n_slices, *shape)) + 1j * rng.standard_normal((n_slices, *shape))


def _dot_gap(w, r, distances, pad):
    holo = stack_forward(w, PITCH, PITCH, WAVELENGTH, distances, pad=pad)
    adj = stack_adjoint(r, PITCH, PITCH, WAVELENGTH, distances, pad=pad)
    lhs = float(np.sum(holo * r))
    rhs = float(sum(np.sum((np.conj(w[i]) * adj[i]).real) for i in range(len(distances))))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("pad", [False, True])
@pytest.mark.parametrize("distances", [(1.0e-3,), DISTANCES_3])
def test_adjoint_dot_identity(rng, pad, distances):
    w = _random_stack(rng, len(distances))
    r = rng.standard_normal((8, 6))
    assert _dot_gap(w, r, distances, pad) < 1e-12


@pytest.mark.parametrize("pad", [False, True])
def test_ones_response(pad):
    # constant slices carry only the zero-frequency component, so the reply
    # is sum_z c_z cos(k0 z_z) regardless of padding
    coeffs = (0.7, -0.2, 1.4)
    w = np.stack([c * np.ones((8, 6), dtype=np.complex128) for c in coeffs])
    out = stack_forward(w, PITCH, PITCH, WAVELENGTH, DISTANCES_3, pad=pad)
    k0 = 2.0 * np.pi / WAVELENGTH
    expected = sum(c * np.cos(k0 * z) for c, z in zip(coeffs, DISTANCES_3))
    np.testing.assert_allclose(out, np.full((8, 6), expected), atol=1e-12)


@pytest.mark.parametrize("pad", [False, True])
def test_forward_linearity(rng, pad):
    w1 = _random_stack(rng, 3)
    w2 = _random_stack(rng, 3)
    combo = stack_forward(2.5 * w1 - 0.5 * w2, PITCH, PITCH, WAVELENGTH, DISTANCES_3, pad=pad)
    parts = 2.5 * stack_forward(w1, PITCH, PITCH, WAVELENGTH, DISTANCES_3, pad=pad) \
        - 0.5 * stack_forward(w2, PITCH, PITCH, WAVELENGTH, DISTANCES_3, pad=pad)
    np.testing.assert_allclose(combo, parts, atol=1e-12)


def test_unpadded_forward_matches_per_slice_propagation(rng):
    w = _random_stack(rng, 3)
    out = stack_forward(w, PITCH, PITCH, WAVELENGTH, DISTANCES_3, pad=False)
    expected = np.zeros((8, 6))
    for wz, z in zip(w, DISTANCES_3):
        expected += propagate(wz, PITCH, PITCH, WAVELENGTH, z).real
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_unpadded_adjoint_is_back_propagation(rng):
    r = rng.standard_normal((8, 6))
    adj = stack_adjoint(r, PITCH, PITCH, WAVELENGTH, DISTANCES_3, pad=False)
    for i, z in enumerate(DISTANCES_3):
        expected = propagate(r, PITCH, PITCH, WAVELENGTH, -z)
        np.testing.assert_allclose(adj[i], expected, atol=1e-12)


def test_padded_forward_matches_mean_split_oracle(rng):
    # per-slice oracle: window mean advances analytically as a plane wave,
    # the zero-mean remainder goes through embed / transform / crop
    w = _random_stack(rng, 2, shape=(6, 10))
    distances = (0.8e-3, 1.2e-3)
    out = stack_forward(w, PITCH, PITCH, WAVELENGTH, distances, pad=True)

    k0 = 2.0 * np.pi / WAVELENGTH
    sy, sx = pad_slices(6, 10)
    expected = np.zeros((6, 10))
    for wz, z in zip(w, distances):
        mean = wz.mean()
        expected += (mean * np.exp(1j * k0 * z)).real
        frame = np.zeros((12, 20), dtype=np.complex128)
        frame[sy, sx] = wz - mean
        h = full_transfer(12, 20, PITCH, PITCH, WAVELENGTH, z)
        expected += np.fft.ifft2(np.fft.fft2(frame) * h).real[sy, sx]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_padded_adjoint_mean_terms(rng):
    # the adjoint of the mean split: cropped back-propagation loses its own
    # window mean, replaced by the analytic residual-mean response
    r = rng.standard_normal((8, 6))
    z = 1.0e-3
    adj = stack_adjoint(r, PITCH, PITCH, WAVELENGTH, (z,), pad=True)[0]
    k0 = 2.0 * np.pi / WAVELENGTH
    expected_mean = r.mean() * np.exp(-1j * k0 * z)
    assert adj.mean() == pytest.approx(expected_mean, abs=1e-12)


def test_forward_shape_validation(rng):
    w = _random_stack(rng, 2)
    with pytest.raises(ValueError):
        stack_forward(w, PITCH, PITCH, WAVELENGTH, DISTANCES_3)
    with pytest.raises(ValueError):
        stack_forward(w[0], PITCH, PITCH, WAVELENGTH, (1e-3,))


def test_adjoint_output_dtype(rng):
    r = rng.standard_normal((8, 6))
    adj = stack_adjoint(r, PITCH, PITCH, WAVELENGTH, DISTANCES_3, pad=True)
    assert adj.shape == (3, 8, 6)
    assert adj.dtype == np.complex128


def _rel(got, expected, scale=None):
    """||got - expected|| relative to ||scale|| (default: ||expected||)."""
    scale = expected if scale is None else scale
    return np.linalg.norm(got - expected) / max(np.linalg.norm(scale), 1e-300)


@st.composite
def operator_cases(draw):
    """Random geometry and data: odd and even sizes, anisotropic pitch, 1-5 slices."""
    height = draw(st.integers(2, 17))
    width = draw(st.integers(2, 17))
    n_slices = draw(st.integers(1, 5))
    pitch_x = draw(st.floats(0.4e-6, 3e-6))
    pitch_y = draw(st.floats(0.4e-6, 3e-6))
    distances = tuple(draw(st.lists(st.floats(-2e-3, 2e-3), min_size=n_slices,
                                    max_size=n_slices)))
    pad = draw(st.booleans())
    complex_stack = draw(st.booleans())
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    stack = 0.5 + rng.standard_normal((n_slices, height, width))
    if complex_stack:
        stack = stack + 1j * rng.standard_normal((n_slices, height, width))
    residual = 0.3 + rng.standard_normal((height, width))
    return stack, residual, (pitch_x, pitch_y, WAVELENGTH, distances), pad


@settings(max_examples=150)
@given(operator_cases())
def test_half_spectrum_core_matches_complex_oracle(case):
    stack, residual, geometry, pad = case
    forward = stack_forward(stack, *geometry, pad=pad)
    assert _rel(forward, oracle_forward(stack, *geometry, pad=pad)) <= 1e-12

    expected = oracle_adjoint(residual, *geometry, pad=pad)
    adjoint = stack_adjoint(residual, *geometry, pad=pad)
    real_only = stack_adjoint(residual, *geometry, pad=pad, real=True)
    assert adjoint.dtype == np.complex128 and real_only.dtype == np.float64
    # each part relative to the whole adjoint: at z = 0 the imaginary part is 0
    assert _rel(adjoint.real, expected.real, expected) <= 1e-12
    assert _rel(adjoint.imag, expected.imag, expected) <= 1e-12
    assert _rel(real_only, expected.real, expected) <= 1e-12

    # <H w, r> == sum_z Re<w_z, (H* r)_z>
    lhs = float(np.sum(forward * residual))
    rhs = float(np.sum((np.conj(stack) * adjoint).real))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(stack) * np.linalg.norm(residual)
