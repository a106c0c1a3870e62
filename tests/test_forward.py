"""Hologram formation: configs, stacks, the two forward models, shot noise."""

import logging

import numpy as np
import pytest

from holoem.forward import (
    Hologram,
    ObjectStack,
    OpticalConfig,
    add_poisson_noise,
    default_photon_scale,
    simulate,
    synthesize_full,
    synthesize_linear,
)
from holoem.grid import ComplexGrid2D, RealGrid2D
from holoem.propagation import propagate

from conftest import PITCH, WAVELENGTH


def make_config(**kw):
    base = dict(wavelength=WAVELENGTH, pitch_x=PITCH, width=16, height=16,
                slice_distances=(1.0e-3,))
    base.update(kw)
    return OpticalConfig(**base)


def gaussian_blob(size=64, width=80.0):
    yy, xx = np.mgrid[0:size, 0:size]
    r2 = (yy - size / 2.0) ** 2 + (xx - size / 2.0) ** 2
    return np.exp(-r2 / width)


class TestOpticalConfig:
    def test_defaults_and_props(self):
        cfg = make_config(slice_distances=(1e-3, 2e-3, 3e-3))
        assert cfg.pitch_y == cfg.pitch_x
        assert cfg.n_slices == 3
        assert cfg.grid_shape == (16, 16)
        assert cfg.illumination_amplitude == 1.0

    @pytest.mark.parametrize("kw", [
        dict(wavelength=0.0),
        dict(wavelength=float("nan")),
        dict(pitch_x=-1e-6),
        dict(width=1),
        dict(height=0),
        dict(slice_distances=()),
        dict(slice_distances=(-1e-3,)),
        dict(slice_distances=(2e-3, 1e-3)),
        dict(slice_distances=(1e-3, 1e-3)),
        dict(illumination_amplitude=0.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            make_config(**kw)


class TestObjectStack:
    def test_from_arrays(self, rng):
        arrs = [rng.standard_normal((8, 8)) for _ in range(2)]
        stack = ObjectStack.from_arrays(arrs, PITCH)
        assert stack.n_slices == 2
        assert stack.shape == (8, 8)
        assert stack.pitch_y == PITCH

    def test_data_is_a_copy(self, rng):
        stack = ObjectStack.from_arrays([rng.standard_normal((4, 4))], PITCH)
        d = stack.data()
        d[:] = 0.0
        assert np.any(stack.slices[0].data != 0.0)

    def test_mismatched_slices_rejected(self):
        a = ComplexGrid2D(np.zeros((4, 4)), PITCH, PITCH)
        b = ComplexGrid2D(np.zeros((4, 6)), PITCH, PITCH)
        with pytest.raises(ValueError):
            ObjectStack((a, b))
        c = ComplexGrid2D(np.zeros((4, 4)), 2 * PITCH, PITCH)
        with pytest.raises(ValueError):
            ObjectStack((a, c))
        with pytest.raises(ValueError):
            ObjectStack(())


class TestHologram:
    def test_negative_intensity_rejected(self):
        cfg = make_config()
        img = np.ones((16, 16))
        img[3, 2] = -1e-9
        with pytest.raises(ValueError, match="negative"):
            Hologram(RealGrid2D(img, PITCH, PITCH), cfg)

    def test_geometry_must_match(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            Hologram(RealGrid2D(np.ones((8, 8)), PITCH, PITCH), cfg)
        with pytest.raises(ValueError):
            Hologram(RealGrid2D(np.ones((16, 16)), 2 * PITCH, PITCH), cfg)

    def test_photon_scale_guard(self):
        cfg = make_config()
        grid = RealGrid2D(np.ones((16, 16)), PITCH, PITCH)
        with pytest.raises(ValueError):
            Hologram(grid, cfg, photon_scale=0.0)


def test_linear_model_matches_formula(rng):
    # independent evaluation of |A|^2 (1 + 2 sum_z Re[P_z o_z]) through the
    # public single-field propagator
    cfg = make_config(slice_distances=(0.9e-3, 1.2e-3), illumination_amplitude=1.3)
    arrs = [0.01 * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
            for _ in range(2)]
    stack = ObjectStack.from_arrays(arrs, PITCH)
    got = synthesize_linear(stack, cfg, pad=False).data

    scattered = np.zeros((16, 16))
    for o, z in zip(arrs, cfg.slice_distances):
        scattered += propagate(ComplexGrid2D(o, PITCH, PITCH), z, WAVELENGTH).data.real
    expected = 1.3**2 * (1.0 + 2.0 * scattered)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_linear_model_clamps_and_warns(caplog):
    # short distance keeps the block concentrated, so 1 + 2 Re[P o] < 0 there
    cfg = make_config(slice_distances=(2.0e-6,))
    strong = np.zeros((16, 16))
    strong[6:10, 6:10] = -5.0  # far outside the weak regime
    stack = ObjectStack.from_arrays([strong], PITCH)
    with caplog.at_level(logging.WARNING, logger="holoem.forward"):
        g = synthesize_linear(stack, cfg)
    assert g.data.min() == 0.0
    assert any("negative" in r.message for r in caplog.records)


@pytest.mark.parametrize("pad", [False, True])
def test_full_model_deviation_is_second_order(pad):
    # halving the contrast must quarter the full-vs-linear gap; both models
    # run on the same operator and padding, so this holds padded too
    cfg = OpticalConfig(WAVELENGTH, PITCH, 64, 64, (1.0e-3,))
    blob = gaussian_blob()

    def gap(eps):
        stack = ObjectStack.from_arrays([-eps * blob], PITCH)
        full = synthesize_full(stack, cfg, pad=pad).data
        lin = synthesize_linear(stack, cfg, pad=pad).data
        return np.max(np.abs(full - lin))

    ratio = gap(0.04) / gap(0.02)
    assert 3.8 < ratio < 4.2


@pytest.mark.parametrize("pad", [False, True])
def test_full_model_matches_the_propagated_field(rng, pad):
    # |A + sum_z P_z(A o_z)|^2 through the public single-field propagator,
    # which pads with the same mean split as the multi-slice operator
    cfg = make_config(slice_distances=(0.9e-3, 1.2e-3), illumination_amplitude=1.3)
    arrs = [0.3 + 0.05 * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
            for _ in range(2)]
    got = synthesize_full(ObjectStack.from_arrays(arrs, PITCH), cfg, pad=pad).data

    total = np.full((16, 16), 1.3, dtype=np.complex128)
    for o, z in zip(arrs, cfg.slice_distances):
        total += propagate(ComplexGrid2D(1.3 * o, PITCH, PITCH), z, WAVELENGTH, pad=pad).data
    np.testing.assert_allclose(got, np.abs(total) ** 2, rtol=1e-12)


class TestPoissonNoise:
    def test_deterministic_per_seed(self):
        img = RealGrid2D(np.linspace(0.5, 2.0, 64).reshape(8, 8), PITCH, PITCH)
        a = add_poisson_noise(img, 500.0, 11).data
        b = add_poisson_noise(img, 500.0, 11).data
        c = add_poisson_noise(img, 500.0, 12).data
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_moments_on_constant_image(self):
        img = RealGrid2D(np.full((64, 64), 1.0), PITCH, PITCH)
        noisy = add_poisson_noise(img, 1000.0, 42).data
        assert noisy.mean() == pytest.approx(1.0, rel=0.01)
        assert noisy.var() == pytest.approx(1e-3, rel=0.10)

    def test_converges_at_large_scale(self):
        img = RealGrid2D(np.full((64, 64), 1.0), PITCH, PITCH)
        noisy = add_poisson_noise(img, 1e12, 42).data
        assert np.max(np.abs(noisy - 1.0)) < 1e-4

    def test_validation(self):
        img = RealGrid2D(np.ones((4, 4)), PITCH, PITCH)
        with pytest.raises(ValueError):
            add_poisson_noise(img, 0.0, 1)


def test_default_photon_scale():
    img = RealGrid2D(np.full((4, 4), 2.0), PITCH, PITCH)
    assert default_photon_scale(img) == pytest.approx(5e3)
    with pytest.raises(ValueError):
        default_photon_scale(RealGrid2D(np.zeros((4, 4)), PITCH, PITCH))


class TestSimulate:
    def setup_method(self):
        self.cfg = make_config()
        self.stack = ObjectStack.from_arrays([0.01 * gaussian_blob(16, 20.0)], PITCH)

    def test_noise_free_by_default(self):
        holo = simulate(self.stack, self.cfg)
        assert holo.photon_scale is None and holo.noise_seed is None
        clean = synthesize_linear(self.stack, self.cfg)
        np.testing.assert_array_equal(holo.intensity.data, clean.data)

    def test_seed_applies_default_scale(self):
        holo = simulate(self.stack, self.cfg, seed=7)
        clean = synthesize_linear(self.stack, self.cfg)
        assert holo.noise_seed == 7
        assert holo.photon_scale == pytest.approx(1e4 / clean.data.mean())
        assert np.any(holo.intensity.data != clean.data)

    def test_explicit_scale_respected(self):
        holo = simulate(self.stack, self.cfg, photon_scale=250.0, seed=3)
        assert holo.photon_scale == 250.0

    def test_full_model_dispatch(self):
        holo = simulate(self.stack, self.cfg, model="full")
        expected = synthesize_full(self.stack, self.cfg)
        np.testing.assert_array_equal(holo.intensity.data, expected.data)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown forward model"):
            simulate(self.stack, self.cfg, model="exact")

    def test_slice_count_mismatch(self):
        cfg3 = make_config(slice_distances=(1e-3, 2e-3, 3e-3))
        with pytest.raises(ValueError, match="slices"):
            simulate(self.stack, cfg3)
