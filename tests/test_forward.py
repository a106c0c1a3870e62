"""Hologram formation: configs, object arrays, the two forward models, shot noise."""

import logging

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from holoem.forward import (
    Hologram,
    OpticalConfig,
    add_poisson_noise,
    default_photon_scale,
    simulate,
    synthesize_full,
    synthesize_linear,
)
from holoem.operators import propagate

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
        assert cfg.pad

    @pytest.mark.parametrize("kw", [
        dict(wavelength=0.0),
        dict(wavelength=float("nan")),
        dict(pitch_x=-1e-6),
        dict(pitch_x=float("inf")),
        dict(pitch_y=float("inf")),
        dict(width=1),
        dict(height=0),
        dict(slice_distances=()),
        dict(slice_distances=(-1e-3,)),
        dict(slice_distances=(2e-3, 1e-3)),
        dict(slice_distances=(1e-3, 1e-3)),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            make_config(**kw)

    def test_grid_size_is_an_integer(self):
        # a float size used to simulate and then fail in the solver's start
        with pytest.raises(ValueError, match="width and height must be integers"):
            make_config(width=64.0, height=64.0)
        assert make_config(width=np.int64(8), height=np.int32(6)).grid_shape == (6, 8)


class TestHologram:
    def test_negative_intensity_rejected(self):
        cfg = make_config()
        img = np.ones((16, 16))
        img[3, 2] = -1e-9
        with pytest.raises(ValueError, match="negative"):
            Hologram(img, cfg)

    def test_geometry_must_match(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="shape"):
            Hologram(np.ones((8, 8)), cfg)
        with pytest.raises(ValueError, match="2-D"):
            Hologram(np.ones(16), cfg)

    def test_intensity_must_be_finite(self):
        img = np.ones((16, 16))
        img[5, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Hologram(img, make_config())

    def test_intensity_is_a_read_only_copy(self):
        img = np.ones((16, 16))
        holo = Hologram(img, make_config())
        img[0, 0] = 2.0
        assert holo.intensity[0, 0] == 1.0
        with pytest.raises(ValueError):
            holo.intensity[0, 0] = 3.0

    def test_photon_scale_guard(self):
        cfg = make_config()
        for scale in (0.0, float("inf")):
            with pytest.raises(ValueError, match="photon_scale must be positive and finite"):
                Hologram(np.ones((16, 16)), cfg, photon_scale=scale)


def test_linear_model_matches_formula(rng):
    # independent evaluation of 1 + 2 sum_z Re[P_z o_z], in units of the
    # illumination, through the public single-field propagator
    cfg = make_config(slice_distances=(0.9e-3, 1.2e-3), pad=False)
    arrs = [0.01 * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
            for _ in range(2)]
    got = synthesize_linear(np.stack(arrs), cfg)

    scattered = np.zeros((16, 16))
    for o, z in zip(arrs, cfg.slice_distances):
        scattered += propagate(o, PITCH, PITCH, WAVELENGTH, z).real
    expected = 1.0 + 2.0 * scattered
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_linear_model_clamps_and_warns(caplog):
    # short distance keeps the block concentrated, so 1 + 2 Re[P o] < 0 there
    cfg = make_config(slice_distances=(2.0e-6,))
    strong = np.zeros((16, 16))
    strong[6:10, 6:10] = -5.0  # far outside the weak regime
    with caplog.at_level(logging.WARNING, logger="holoem.forward"):
        g = synthesize_linear(strong[None], cfg)
    assert g.min() == 0.0
    assert any("negative" in r.message for r in caplog.records)


@pytest.mark.parametrize("model", ["linear", "full"])
@pytest.mark.parametrize("pad", [False, True])
def test_empty_object_records_the_illumination(model, pad):
    # intensities are in units of the illumination, so a noise-free hologram
    # of a zero object is exactly 1 everywhere, real or complex
    cfg = make_config(slice_distances=(0.9e-3, 1.2e-3), pad=pad)
    for dtype in (np.float64, np.complex128):
        g = simulate(np.zeros((2, 16, 16), dtype=dtype), cfg, model=model).intensity
        assert np.array_equal(g, np.ones((16, 16)))


@settings(max_examples=60)
@given(st.integers(2, 17), st.integers(2, 17), st.floats(0.5e-6, 3e-6),
       st.lists(st.floats(1e-6, 2e-3), min_size=1, max_size=5, unique=True),
       st.lists(st.floats(-0.2, 0.2), min_size=5, max_size=5), st.booleans())
def test_constant_real_slices_record_their_sum_at_any_depth(height, width, pitch, depths,
                                                             levels, pad):
    # the plane-wave phase that illumination and scattered wave share cancels
    # in the intensity: real slices o_z = a_z record 1 + 2 sum_z a_z at every
    # depth, on either frame
    cfg = make_config(width=width, height=height, pitch_x=pitch,
                      slice_distances=tuple(sorted(depths)), pad=pad)
    levels = levels[:len(depths)]
    obj = np.stack([np.full((height, width), a) for a in levels])
    g = synthesize_linear(obj, cfg)
    np.testing.assert_allclose(g, 1.0 + 2.0 * sum(levels), rtol=0, atol=1e-14)


@pytest.mark.parametrize("pad", [False, True])
def test_full_model_deviation_is_second_order(pad):
    # halving the contrast must quarter the full-vs-linear gap; both models
    # run on the same operator and padding, so this holds padded too
    cfg = OpticalConfig(WAVELENGTH, PITCH, 64, 64, (1.0e-3,), pad=pad)
    blob = gaussian_blob()

    def gap(eps):
        obj = -eps * blob[None]
        full = synthesize_full(obj, cfg)
        lin = synthesize_linear(obj, cfg)
        return np.max(np.abs(full - lin))

    ratio = gap(0.04) / gap(0.02)
    assert 3.8 < ratio < 4.2


@pytest.mark.parametrize("pad", [False, True])
def test_full_model_matches_the_propagated_field(rng, pad):
    # |1 + sum_z P_z o_z|^2 through the public single-field propagator,
    # which splits the mean off as the multi-slice operator does
    cfg = make_config(slice_distances=(0.9e-3, 1.2e-3), pad=pad)
    arrs = [0.3 + 0.05 * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
            for _ in range(2)]
    got = synthesize_full(np.stack(arrs), cfg)

    total = np.ones((16, 16), dtype=np.complex128)
    for o, z in zip(arrs, cfg.slice_distances):
        total += propagate(o, PITCH, PITCH, WAVELENGTH, z, pad=pad)
    np.testing.assert_allclose(got, np.abs(total) ** 2, rtol=1e-12)


class TestPoissonNoise:
    def test_deterministic_per_seed(self):
        img = np.linspace(0.5, 2.0, 64).reshape(8, 8)
        a = add_poisson_noise(img, 500.0, 11)
        b = add_poisson_noise(img, 500.0, 11)
        c = add_poisson_noise(img, 500.0, 12)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_moments_on_constant_image(self):
        noisy = add_poisson_noise(np.full((64, 64), 1.0), 1000.0, 42)
        assert noisy.mean() == pytest.approx(1.0, rel=0.01)
        assert noisy.var() == pytest.approx(1e-3, rel=0.10)

    def test_converges_at_large_scale(self):
        noisy = add_poisson_noise(np.full((64, 64), 1.0), 1e12, 42)
        assert np.max(np.abs(noisy - 1.0)) < 1e-4

    def test_validation(self):
        # numpy's own error for an infinite mean would name no setting
        for scale in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="photon_scale must be positive and finite"):
                add_poisson_noise(np.ones((4, 4)), scale, 1)
        with pytest.raises(ValueError, match="non-negative"):
            add_poisson_noise(np.full((4, 4), -0.5), 100.0, 1)


def test_default_photon_scale():
    assert default_photon_scale(np.full((4, 4), 2.0)) == pytest.approx(5e3)
    with pytest.raises(ValueError):
        default_photon_scale(np.zeros((4, 4)))


class TestSimulate:
    def setup_method(self):
        self.cfg = make_config()
        self.obj = 0.01 * gaussian_blob(16, 20.0)[None]

    def test_noise_free_by_default(self):
        holo = simulate(self.obj, self.cfg)
        assert holo.photon_scale is None
        clean = synthesize_linear(self.obj, self.cfg)
        np.testing.assert_array_equal(holo.intensity, clean)

    def test_seed_applies_default_scale(self):
        holo = simulate(self.obj, self.cfg, seed=7)
        clean = synthesize_linear(self.obj, self.cfg)
        assert holo.photon_scale == pytest.approx(1e4 / clean.mean())
        assert np.any(holo.intensity != clean)

    def test_explicit_scale_respected(self):
        holo = simulate(self.obj, self.cfg, photon_scale=250.0, seed=3)
        assert holo.photon_scale == 250.0

    def test_scale_without_a_seed_is_refused(self):
        # the scale sets shot noise; without a seed it would be dropped unseen
        with pytest.raises(ValueError, match="seed"):
            simulate(self.obj, self.cfg, photon_scale=100.0)

    def test_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="noise seed must be a non-negative integer, got -1"):
            simulate(self.obj, self.cfg, seed=-1)

    def test_fractional_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="noise seed must be a non-negative integer, got 1.5"):
            simulate(self.obj, self.cfg, seed=1.5)
        assert simulate(self.obj, self.cfg, seed=np.int64(3)).intensity.tobytes() == \
            simulate(self.obj, self.cfg, seed=3).intensity.tobytes()

    def test_full_model_dispatch(self):
        holo = simulate(self.obj, self.cfg, model="full")
        expected = synthesize_full(self.obj, self.cfg)
        np.testing.assert_array_equal(holo.intensity, expected)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown forward model"):
            simulate(self.obj, self.cfg, model="exact")

    def test_slice_count_mismatch(self):
        cfg3 = make_config(slice_distances=(1e-3, 2e-3, 3e-3))
        with pytest.raises(ValueError, match="slices"):
            simulate(self.obj, cfg3)

    @pytest.mark.parametrize("synthesize", [synthesize_linear, synthesize_full])
    def test_object_must_be_finite_slices_on_the_grid(self, synthesize):
        with pytest.raises(ValueError, match="slices"):
            synthesize(self.obj[0], self.cfg)  # no slice axis
        with pytest.raises(ValueError, match="slices"):
            synthesize(self.obj[:, :8], self.cfg)
        bad = self.obj.copy()
        bad[0, 3, 4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            synthesize(bad, self.cfg)
        # a complex object of the same shape is accepted, as a real one is
        assert synthesize(self.obj + 0j, self.cfg).shape == self.cfg.grid_shape
