"""Shared constants and the finite-difference gradient check for the test suite.

The reference geometry (675 nm, 1.12 um pitch) matches the package's
built-in defaults; short distances (a few microns) give well-conditioned
instances where predicted intensities stay strictly positive, which the
finite-difference likelihood checks need.

Property tests run under one hypothesis profile: derandomized, with no
example database and no deadline, so every run draws the same examples
and a slow example never fails on time. Each test sets its own
``max_examples``.
"""

import numpy as np
import pytest
from hypothesis import settings

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
