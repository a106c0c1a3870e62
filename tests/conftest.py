"""Shared constants and the finite-difference gradient check for the test suite.

The reference geometry (675 nm, 1.12 um pitch) matches the package's
built-in defaults; short distances (a few microns) give well-conditioned
instances where predicted intensities stay strictly positive, which the
finite-difference likelihood checks need.

``binned_hologram`` makes data outside the model the solvers invert, to
check them without the inverse crime: the phantom on a grid k times finer
at pitch / k (the phantoms' features have physical sizes), its exact
intensity, binned k x k onto the sensor, optionally with shot noise.

Property tests run under one hypothesis profile: derandomized, with no
example database and no deadline, so every run draws the same examples
and a slow example never fails on time. Each test sets its own
``max_examples``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from holoem.forward import (Hologram, OpticalConfig, add_poisson_noise, default_photon_scale,
                            synthesize_full)

settings.register_profile("holoem", derandomize=True, database=None, deadline=None)
settings.load_profile("holoem")

WAVELENGTH = 675e-9
PITCH = 1.12e-6
SHORT_DISTANCES = (2.0e-6, 3.5e-6)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(1234))


def directional_check(objective, parts, grads, rng):
    """Central difference of objective along the gradient plus noise (so the
    directional derivative cannot vanish) against the analytic value."""
    rms = np.sqrt(np.mean([np.mean(gr * gr) for gr in grads]))
    dirs = [gr + 0.5 * rms * rng.standard_normal(gr.shape) for gr in grads]
    norm = np.sqrt(np.mean([np.mean(d * d) for d in dirs]))
    dirs = [d / norm for d in dirs]
    analytic = sum(float(np.sum(gr * d)) for gr, d in zip(grads, dirs))
    t = 1e-6
    numeric = (objective([p + t * d for p, d in zip(parts, dirs)])
               - objective([p - t * d for p, d in zip(parts, dirs)])) / (2 * t)
    assert abs(numeric - analytic) / abs(analytic) < 1e-7


def _bin(a: np.ndarray, k: int) -> np.ndarray:
    """Mean over k x k blocks of the last two axes."""
    *lead, h, w = a.shape
    return a.reshape(*lead, h // k, k, w // k, k).mean(axis=(-3, -1))


def binned_hologram(build, config: OpticalConfig, k: int = 2, seed: int | None = None):
    """(binned truth, Hologram on config) for the object build(fine config)
    makes on a grid k times finer at pitch / k: forward.synthesize_full's
    intensity binned k x k to config's pixels and, with a seed, shot noise at
    the default photon scale (mean intensity 1e4 counts), as ``simulate``
    draws it. The truth is the object binned the same way."""
    fine = dataclasses.replace(config, pitch_x=config.pitch_x / k, pitch_y=config.pitch_y / k,
                               width=config.width * k, height=config.height * k)
    obj = build(fine)
    g = _bin(synthesize_full(obj, fine), k)
    if seed is None:
        return _bin(obj, k), Hologram(g, config)
    scale = default_photon_scale(g)
    return _bin(obj, k), Hologram(add_poisson_noise(g, scale, seed), config, photon_scale=scale)
