"""Angular-spectrum propagation identities.

Transfer samples on the kx-major half spectrum (the rfft2 half spectrum,
transposed) are checked against the literal formula with explicit loops,
including a geometry coarse enough to expose the evanescent cut;
propagation is checked against the full complex transform of
``complex_core``, and the transform pair against scipy's rfft2 and irfft2
bit for bit.
The operator identities (round trip, energy, composition) hold exactly for
the unpadded transform at the reference geometry, where every representable
frequency propagates.
"""

import numpy as np
import pytest
import scipy.fft

from hypothesis import given, settings
from hypothesis import strategies as st

from holoem import operators
from holoem.operators import propagate
from holoem.propagation import _frame, _half_spectrum, _irfft2_crop, _transfer_array

from complex_core import oracle_propagate
from conftest import PITCH, WAVELENGTH


def transfer_oracle(shape, pitch_x, pitch_y, wavelength, z):
    """Direct per-sample evaluation of the band-limited transfer function
    relative to the unscattered plane wave, exp(j k0 z (sqrt(1 - q) - 1))
    with q = (lambda v)^2, the root minus 1 as expm1(log1p(-q) / 2)."""
    height, width = shape
    vx = np.fft.fftfreq(width, d=pitch_x)
    vy = np.fft.fftfreq(height, d=pitch_y)
    k0 = 2.0 * np.pi / wavelength
    out = np.zeros((height, width), dtype=np.complex128)
    for i in range(height):
        for j in range(width):
            q = (wavelength * vx[j]) ** 2 + (wavelength * vy[i]) ** 2
            if q < 1.0:
                out[i, j] = np.exp(1j * k0 * z * np.expm1(0.5 * np.log1p(-q)))
    return out


def half_transfer(shape, pitch_x, pitch_y, wavelength, z):
    """Re H + j Im H from ``_transfer_array``, on the kx-major half spectrum."""
    re_h, im_h = _transfer_array(*shape, pitch_x, pitch_y, wavelength, z)
    return re_h + 1j * im_h


def test_transfer_matches_formula_with_evanescent_cut():
    # pitch 0.6 um at wavelength 1.0 um: corner frequencies fall outside the
    # propagating band, axis frequencies stay inside
    shape, px, lam, z = (8, 8), 0.6e-6, 1.0e-6, 5e-6
    h = half_transfer(shape, px, px, lam, z)
    expected = transfer_oracle(shape, px, px, lam, z)[:, :5].T
    np.testing.assert_allclose(h, expected, atol=1e-14)
    assert h[4, 4] == 0.0  # diagonal Nyquist is evanescent
    assert h[4, 0] != 0.0  # axis Nyquist propagates
    assert np.abs(h).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("shape", [(7, 5), (6, 9), (5, 4)])
@pytest.mark.parametrize("z", [40e-6, -40e-6])
def test_transfer_mirrored_from_half_spectrum_at_odd_and_even_sizes(shape, z):
    # the columns of v_y < 0 are mirrored from the columns of v_y > 0
    px, py, lam = 0.6e-6, 0.8e-6, 1.0e-6
    expected = transfer_oracle(shape, px, py, lam, z)[:, :shape[1] // 2 + 1].T
    np.testing.assert_allclose(half_transfer(shape, px, py, lam, z), expected, atol=1e-14)


@pytest.mark.parametrize("shape", [(9, 6), (8, 11)])
@pytest.mark.parametrize("pad", [False, True])
@pytest.mark.parametrize("z", [0.7e-3, -0.7e-3])
@pytest.mark.parametrize("imaginary", [True, False], ids=["complex", "real"])
def test_complex_field_on_the_spectra_of_its_parts(rng, shape, pad, z, imaginary):
    # propagate takes a + j b on the half spectra A and B of its zero-mean
    # parts, Re = irfft2(A Re H - B Im H) = stack_forward(w) and
    # Im = irfft2(A Im H + B Re H) = stack_forward(-j w), with the mean split
    # on either frame; the oracle runs the whole field
    # on the full complex transform unpadded (where the split is exact), and
    # embeds the zero-mean remainder at the frame centre padded
    data = rng.standard_normal(shape) + 0.7
    if imaginary:
        data = data + 1j * (rng.standard_normal(shape) - 0.4)
    px, py = PITCH, 1.3 * PITCH
    out = propagate(data, px, py, WAVELENGTH, z, pad=pad)
    expected = oracle_propagate(data, px, py, WAVELENGTH, z, pad)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("pad", [False, True])
@pytest.mark.parametrize("imaginary", [True, False], ids=["complex", "real"])
def test_two_cropped_inverses_per_call(rng, monkeypatch, pad, imaginary):
    # the real and imaginary outputs are one forward map each, and each
    # forward map sums its spectra before one cropped inverse
    calls = []

    def counting(*args):
        calls.append(args[1])
        return _irfft2_crop(*args)

    monkeypatch.setattr(operators, "_irfft2_crop", counting)
    data = rng.standard_normal((9, 6))
    if imaginary:
        data = data + 1j * rng.standard_normal((9, 6))
    propagate(data, PITCH, PITCH, WAVELENGTH, 0.7e-3, pad=pad)
    assert calls == [_frame(9, 6, pad)] * 2


def test_transfer_anisotropic_pitch():
    h = half_transfer((6, 4), 1.0e-6, 2.0e-6, WAVELENGTH, -3e-6)
    expected = transfer_oracle((6, 4), 1.0e-6, 2.0e-6, WAVELENGTH, -3e-6)[:, :3].T
    np.testing.assert_allclose(h, expected, atol=1e-14)


def test_backward_transfer_is_conjugate():
    # -z is its own build, bit for bit conj H(z): cos is even and sin odd
    z = 0.7e-3
    re_f, im_f = _transfer_array(16, 12, PITCH, PITCH, WAVELENGTH, z)
    re_b, im_b = _transfer_array(16, 12, PITCH, PITCH, WAVELENGTH, -z)
    np.testing.assert_array_equal(re_b, re_f)
    np.testing.assert_array_equal(im_b, -im_f)


def test_transfer_values_are_read_only():
    # cached builds: every later lookup of the depth shares them
    re_h, im_h = _transfer_array(8, 8, PITCH, PITCH, WAVELENGTH, 1e-3)
    for part in (re_h, im_h):
        with pytest.raises(ValueError):
            part[0, 0] = 0.0


def test_transfer_magnitude_guard():
    # |H| = 1 on the propagating band and 0 outside it: never above 1
    for pitch in (0.6e-6, PITCH):
        for z in (5e-6, -1e-3):
            re_h, im_h = _transfer_array(9, 8, pitch, 1.3 * pitch, WAVELENGTH, z)
            assert np.max(re_h * re_h + im_h * im_h) <= 1.0 + 1e-12, (pitch, z)


def test_transfer_validation():
    # _transfer_array takes its inputs unchecked; bad ones are rejected on the way in
    with pytest.raises(ValueError):
        propagate(np.ones((8, 8)), PITCH, PITCH, 0.0, 1e-3)
    with pytest.raises(ValueError):
        propagate(np.ones((8, 8)), PITCH, PITCH, float("nan"), 1e-3)
    with pytest.raises(ValueError):
        propagate(np.ones((8, 8)), -PITCH, PITCH, WAVELENGTH, 1e-3)


def _random_field(rng, shape=(16, 16)):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _propagate(field, z, pad=False):
    return propagate(field, PITCH, PITCH, WAVELENGTH, z, pad=pad)


def test_round_trip_unpadded(rng):
    f = _random_field(rng)
    z = 1.0e-3
    back = _propagate(_propagate(f, z), -z)
    assert np.max(np.abs(back - f)) < 1e-12


def test_energy_conservation_unpadded(rng):
    f = _random_field(rng)
    g = _propagate(f, 0.8e-3)
    e_in = np.sum(np.abs(f) ** 2)
    e_out = np.sum(np.abs(g) ** 2)
    assert abs(e_out - e_in) / e_in < 1e-12


def test_composition_unpadded(rng):
    f = _random_field(rng)
    z1, z2 = 0.4e-3, 0.9e-3
    two_hops = _propagate(_propagate(f, z1), z2)
    one_hop = _propagate(f, z1 + z2)
    assert np.max(np.abs(two_hops - one_hop)) < 1e-11


@pytest.mark.parametrize("pad", [False, True])
def test_plane_wave_passes_unchanged(pad):
    # propagation is relative to the unscattered plane wave: H(0) = 1
    # exactly on either frame, and a constant field whose mean is exact
    # comes back bit for bit
    for z in (1.3e-3, -0.6e-3, 1481.25 * WAVELENGTH):
        re_h, im_h = _transfer_array(*_frame(12, 10, pad), PITCH, PITCH, WAVELENGTH, z)
        assert re_h[0, 0] == 1.0 and im_h[0, 0] == 0.0
        field = np.full((12, 10), 0.75 - 0.25j)
        assert np.array_equal(_propagate(field, z, pad=pad), field)


def test_kernel_sums_match_spatial_sum():
    # the lattice sums of the real and imaginary point-spread kernels are
    # the zero-frequency transfer sample, 1 + 0j: the mean passes unchanged
    # on either frame
    for shape in ((16, 16), (15, 12)):
        for z in (1.0e-3, -0.6e-3):
            re_h, im_h = _transfer_array(*shape, PITCH, PITCH, WAVELENGTH, z)
            assert abs(scipy.fft.irfft2(re_h.T, s=shape).sum() - 1.0) < 1e-10
            assert abs(scipy.fft.irfft2(im_h.T, s=shape).sum()) < 1e-10


def test_padded_matches_manual_embed(rng):
    # mean split: the mean passes unchanged, the zero-mean remainder is
    # embedded at the centre of a doubled zero frame and cropped back
    f = _random_field(rng, shape=(10, 14)) + (0.8 - 0.3j)
    z = 0.5e-3
    got = _propagate(f, z, pad=True)

    mean = f.mean()
    frame = np.zeros((20, 28), dtype=np.complex128)
    frame[5:15, 7:21] = f - mean
    h = transfer_oracle((20, 28), PITCH, PITCH, WAVELENGTH, z)
    full = np.fft.ifft2(np.fft.fft2(frame) * h)
    expected = full[5:15, 7:21] + mean
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_propagate_validation(rng):
    # checked where the field enters: a 2-D field of at least 2x2 finite
    # samples, a positive finite pitch and wavelength, and a finite distance,
    # as OpticalConfig checks its own optics
    f = _random_field(rng, shape=(4, 4))
    with pytest.raises(ValueError, match="wavelength"):
        propagate(f, PITCH, PITCH, -WAVELENGTH, 1e-3)
    with pytest.raises(ValueError, match="2-D"):
        _propagate(f[:1], 1e-3)
    with pytest.raises(ValueError, match="2-D"):
        _propagate(f[0], 1e-3)
    f[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _propagate(f, 1e-3)
    with pytest.raises(ValueError, match="pitch"):
        propagate(np.ones((4, 4)), PITCH, float("inf"), WAVELENGTH, 1e-3)
    for wavelength in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="wavelength"):
            propagate(np.ones((4, 4)), PITCH, PITCH, wavelength, 1e-3)
    for z in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="distance"):
            propagate(np.ones((4, 4)), PITCH, PITCH, WAVELENGTH, z)


sizes = st.integers(2, 40)


@settings(max_examples=150)
@given(sizes, sizes, st.booleans(), st.booleans(),
       st.floats(0.4e-6, 3e-6), st.floats(0.4e-6, 3e-6), st.floats(-2e-3, 2e-3),
       st.integers(0, 2**32 - 1))
def test_propagate_matches_the_complex_transform(height, width, pad, imaginary, pitch_x,
                                                 pitch_y, z, seed):
    # odd and even sides, anisotropic pitch (coarse enough at 0.4 um to cut
    # evanescent corners) and either sign of z, at the oracle tolerance above
    rng = np.random.Generator(np.random.Philox(seed))
    data = rng.standard_normal((height, width)) + 0.7
    if imaginary:
        data = data + 1j * (rng.standard_normal((height, width)) - 0.4)
    out = propagate(data, pitch_x, pitch_y, WAVELENGTH, z, pad=pad)
    expected = oracle_propagate(data, pitch_x, pitch_y, WAVELENGTH, z, pad)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@settings(max_examples=150)
@given(sizes, sizes, st.booleans(), st.floats(0.4e-6, 3e-6), st.floats(0.4e-6, 3e-6),
       st.floats(0.0, 2e-3), st.integers(0, 2**32 - 1))
def test_cropped_inverses_equal_full_frame_inverse_then_crop(height, width, pad, pitch_x,
                                                             pitch_y, depth, seed):
    # scipy's irfft2 runs the same pocketfft core as numpy's FFT, so the
    # rows the crop drops must change no rounding: propagated spectra on a
    # transfer at anisotropic pitch, and an arbitrary one. The y inverses
    # overwrite the spectrum, so the reference is taken first
    rng = np.random.Generator(np.random.Philox(seed))
    frame = _frame(height, width, pad)
    half = _half_spectrum(rng.standard_normal((height, width)), frame)
    re_h, im_h = _transfer_array(*frame, pitch_x, pitch_y, WAVELENGTH, depth)
    arbitrary = rng.standard_normal(half.shape) + 1j * rng.standard_normal(half.shape)
    for spectrum in (half * re_h, half * im_h, arbitrary):
        expected = scipy.fft.irfft2(spectrum.T, s=frame)[:height, :width]
        got = _irfft2_crop(spectrum, frame, height, width)
        assert got.shape == (height, width) and got.dtype == np.float64
        assert np.array_equal(got, expected)


@settings(max_examples=150)
@given(sizes, sizes, st.booleans(), st.integers(0, 2**32 - 1))
def test_half_spectrum_is_the_transposed_rfft2_bit_for_bit(height, width, pad, seed):
    # the x transforms skip the frame's zero rows; the y transforms then see
    # the same values as rfft2's, so nothing rounds differently
    field = np.random.Generator(np.random.Philox(seed)).standard_normal((height, width))
    frame = _frame(height, width, pad)
    assert np.array_equal(_half_spectrum(field, frame), scipy.fft.rfft2(field, s=frame).T)


@settings(max_examples=60)
@given(sizes, sizes, st.floats(0.4e-6, 3e-6), st.floats(0.4e-6, 3e-6), st.floats(0.0, 2e-3))
def test_half_row_transfer_build_equals_evaluation_on_every_row(height, width, pitch_x,
                                                                pitch_y, depth):
    # the columns of v_y < 0 are mirrored, not evaluated; they must match
    # the same formula evaluated on every row-major row bit for bit
    re_h, im_h = _transfer_array(height, width, pitch_x, pitch_y, WAVELENGTH, depth)
    vx = np.fft.rfftfreq(width, d=pitch_x)
    vy = np.fft.fftfreq(height, d=pitch_y)
    q = (WAVELENGTH * vx[None, :]) ** 2 + (WAVELENGTH * vy[:, None]) ** 2
    inside = q < 1.0
    lag = -q / (1.0 + np.sqrt(np.maximum(1.0 - q, 0.0)))
    phase = 2.0 * np.pi / WAVELENGTH * depth * lag
    assert re_h.tobytes() == np.where(inside, np.cos(phase), 0.0).T.tobytes()
    assert im_h.tobytes() == np.where(inside, np.sin(phase), 0.0).T.tobytes()
    assert not (re_h.flags.writeable or im_h.flags.writeable)
