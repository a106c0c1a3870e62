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

from holoem import em, operators
from holoem.forward import OpticalConfig, _stack_optics
from holoem.operators import propagate, stack_adjoint, stack_forward

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
    # constant slices carry only the zero-frequency component, where the
    # transfer is 1, so the reply is sum_z Re c_z regardless of padding
    coeffs = (0.7 + 0.3j, -0.2 - 0.5j, 1.4 + 0.1j)
    w = np.stack([c * np.ones((8, 6), dtype=np.complex128) for c in coeffs])
    out = stack_forward(w, PITCH, PITCH, WAVELENGTH, DISTANCES_3, pad=pad)
    expected = sum(c.real for c in coeffs)
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
    # per-slice oracle: the window mean passes unchanged, the zero-mean
    # remainder goes through embed / transform / crop
    w = _random_stack(rng, 2, shape=(6, 10))
    distances = (0.8e-3, 1.2e-3)
    out = stack_forward(w, PITCH, PITCH, WAVELENGTH, distances, pad=True)

    sy, sx = pad_slices(6, 10)
    expected = np.zeros((6, 10))
    for wz, z in zip(w, distances):
        mean = wz.mean()
        expected += mean.real
        frame = np.zeros((12, 20), dtype=np.complex128)
        frame[sy, sx] = wz - mean
        h = full_transfer(12, 20, PITCH, PITCH, WAVELENGTH, z)
        expected += np.fft.ifft2(np.fft.fft2(frame) * h).real[sy, sx]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_padded_adjoint_mean_terms(rng):
    # the adjoint of the mean split: cropped back-propagation loses its own
    # window mean, replaced by the residual's mean, 0 in the imaginary part
    r = rng.standard_normal((8, 6))
    z = 1.0e-3
    adj = stack_adjoint(r, PITCH, PITCH, WAVELENGTH, (z,), pad=True)[0]
    assert adj.mean() == pytest.approx(r.mean(), abs=1e-12)


def test_no_transform_of_a_part_without_remainder(rng, monkeypatch):
    # a slice part whose zero-mean remainder is all zero takes no half
    # spectrum: a real field's propagate takes 2, a complex one 4, and
    # EM's flat start none and no inverse either, its prediction the mean term
    calls = {"_half_spectrum": 0, "_irfft2_crop": 0}

    def counting(name):
        original = getattr(operators, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(operators, name, counting(name))

    def transforms(run):
        calls.update(dict.fromkeys(calls, 0))
        out = run()
        return (calls["_half_spectrum"], calls["_irfft2_crop"]), out

    field = rng.standard_normal((16, 16))
    assert transforms(lambda: propagate(field, PITCH, PITCH, WAVELENGTH, 1e-3))[0] == (2, 2)
    complex_field = field + 1j * rng.standard_normal((16, 16))
    assert transforms(lambda: propagate(complex_field, PITCH, PITCH, WAVELENGTH,
                                        1e-3))[0] == (4, 2)
    cfg = OpticalConfig(WAVELENGTH, PITCH, 16, 16, DISTANCES_3)
    start = em._em_start(cfg, complex_mode=False)
    counts, out = transforms(lambda: stack_forward(start, *_stack_optics(cfg)))
    assert counts == (0, 0) and np.array_equal(out, np.full((16, 16), 3.0))


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
