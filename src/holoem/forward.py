"""Weak-scattering hologram formation model.

A plane illumination of amplitude A passes through S thin object slices
with complex perturbations o_z (|o_z| << 1). In units of the illumination
|A|^2, the recorded in-line intensity is to first order

    g(x) = 1 + 2 sum_z Re[ P_z o_z ](x)

(``synthesize_linear``); the exact interference pattern |1 + sum_z P_z o_z|^2
is ``synthesize_full``, for checking where the linearization holds. P_z is
relative to the unscattered wave, whose phase exp(j k0 z) cancels. Both
run on ``operators.stack_forward`` and its padding, so they differ by
exactly |sum_z P_z o_z|^2. Shot noise is Poisson counts at a chosen
photons-per-intensity-unit scale: a brighter illumination is a larger scale.

An object is an (S, H, W) array, float64 when real and complex128 when
complex, slice z at ``config.slice_distances[z]``; intensities are (H, W)
arrays. The ``OpticalConfig`` is their one geometry record: every caller
passes it alongside the data, and the data is checked against it where it
enters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .grid import _checked_samples, _finite, _nonnegative, _positive
from .operators import stack_forward

logger = logging.getLogger(__name__)

__all__ = [
    "OpticalConfig",
    "Hologram",
    "synthesize_linear",
    "synthesize_full",
    "simulate",
]


@dataclass(frozen=True)
class OpticalConfig:
    """Geometry of a single recording: what the operators and the grid read.

    All lengths in meters. ``slice_distances`` are the object-to-sensor
    distances, strictly increasing and positive. The illumination is the
    intensity unit, so it has no field here. ``pad`` picks the doubled
    zero frame for every propagation on the config (synthesis, the solvers
    and autofocus), so a solve inverts the model that made its hologram.
    """

    wavelength: float
    pitch_x: float
    width: int
    height: int
    slice_distances: tuple[float, ...]
    pitch_y: float | None = None
    pad: bool = True

    def __post_init__(self):
        if self.pitch_y is None:
            object.__setattr__(self, "pitch_y", self.pitch_x)
        object.__setattr__(self, "slice_distances", tuple(float(z) for z in self.slice_distances))
        _positive(self.wavelength, "wavelength")
        _positive(self.pitch_x, "pixel pitch")
        _positive(self.pitch_y, "pixel pitch")
        size = self.width, self.height
        if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in size):
            raise ValueError(f"width and height must be integers >= 2, got {size}")
        zs = self.slice_distances
        if len(zs) < 1:
            raise ValueError("at least one slice distance is required")
        for z in zs:
            _positive(z, "slice distance")
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError(f"slice distances must be strictly increasing, got {zs}")

    @property
    def n_slices(self) -> int:
        return len(self.slice_distances)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.height, self.width)


@dataclass(frozen=True, eq=False)
class Hologram:
    """A recorded (or simulated) intensity image plus its recording geometry.

    ``photon_scale`` is the photons-per-intensity-unit factor used when
    noise was added, None for noise-free data; the noise seed stays with the caller.
    """

    intensity: np.ndarray
    config: OpticalConfig
    photon_scale: float | None = None

    def __post_init__(self):
        data = _checked_samples(self.intensity, self.config.pitch_x, self.config.pitch_y)
        if data.shape != self.config.grid_shape:
            raise ValueError(f"intensity shape {data.shape} does not match config "
                             f"{self.config.grid_shape}")
        _nonnegative(data, "hologram intensity")
        if self.photon_scale is not None:
            _positive(self.photon_scale, "photon_scale")
        object.__setattr__(self, "intensity", data)


def _stack_optics(config: OpticalConfig) -> tuple:
    """The arguments of stack_forward and stack_adjoint after the data:
    the config's pitches, wavelength, distances and padding."""
    return config.pitch_x, config.pitch_y, config.wavelength, config.slice_distances, config.pad


def _slice_stack(stack, config: OpticalConfig, what: str) -> np.ndarray:
    """``stack`` as an array, refused unless it is (n_slices, H, W) on the config."""
    stack = np.asarray(stack)
    expected = (config.n_slices,) + config.grid_shape
    if stack.shape != expected:
        raise ValueError(f"{what} shape {stack.shape} does not match the config's "
                         f"(slices, height, width) {expected}")
    return stack


def _object_args(obj, config: OpticalConfig):
    """stack_forward's arguments: the object, refused unless finite, then :func:`_stack_optics`."""
    return _finite(_slice_stack(obj, config, "object"), "object"), *_stack_optics(config)


def synthesize_linear(obj, config: OpticalConfig) -> np.ndarray:
    """First-order interference intensity 1 + 2 sum_z Re[P_z o_z], in illumination units.

    Negative output pixels (possible when the perturbations are not weak)
    are clamped to zero; the clamp count is logged as a warning.
    """
    g = 1.0 + 2.0 * stack_forward(*_object_args(obj, config))
    n_neg = int(np.count_nonzero(g < 0.0))
    if n_neg:
        logger.warning(
            "linearized hologram has %d negative pixels (clamped to 0); "
            "object is outside the weak-scattering regime", n_neg,
        )
        g = np.maximum(g, 0.0)
    return g


def synthesize_full(obj, config: OpticalConfig) -> np.ndarray:
    """Exact interference intensity |1 + sum_z P_z o_z|^2, in units of the
    illumination, as (1 + F(o))^2 + F(-j o)^2, with F = ``stack_forward``:
    F(o) is Re[sum_z P_z o_z] and F(-j o) its imaginary part."""
    obj, *optics = _object_args(obj, config)
    re = stack_forward(obj, *optics)
    im = stack_forward(-1j * obj, *optics)
    return (1.0 + re) ** 2 + im**2


def add_poisson_noise(intensity: np.ndarray, photon_scale: float, seed: int) -> np.ndarray:
    """Replace each pixel with a Poisson draw at mean photon_scale * value.

    The returned image is counts / photon_scale, so it stays in intensity
    units and converges to the input as photon_scale grows. Counts are
    drawn with numpy's Generator.poisson on the Philox 4x64-10
    counter-based bit generator (inversion for small means, transformed
    rejection for large means); for a fixed seed the stream is identical
    across platforms.
    """
    _positive(photon_scale, "photon_scale")
    _nonnegative(_finite(intensity, "intensity"), "intensity")
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.poisson(photon_scale * intensity) / photon_scale


def default_photon_scale(intensity: np.ndarray) -> float:
    """Photon scale that maps the mean intensity to 1e4 counts."""
    mean = float(intensity.mean())
    if not mean > 0:
        raise ValueError("mean intensity must be positive to pick a photon scale")
    return 1e4 / mean


def simulate(
    obj,
    config: OpticalConfig,
    model: str = "linear",
    photon_scale: float | None = None,
    seed: int | None = None,
) -> Hologram:
    """Synthesize a hologram of an (S, H, W) object, optionally with shot noise.

    model is "linear" or "full". photon_scale=None with a seed picks the
    default scale (mean intensity -> 1e4 counts); without a seed the
    hologram is noise-free, and a photon_scale given without one raises.
    """
    if photon_scale is not None and seed is None:
        raise ValueError("photon_scale sets the shot noise, which needs a seed")
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"noise seed must be a non-negative integer, got {seed}")
    if model == "linear":
        g = synthesize_linear(obj, config)
    elif model == "full":
        g = synthesize_full(obj, config)
    else:
        raise ValueError(f"unknown forward model {model!r}, expected 'linear' or 'full'")
    if seed is None:
        return Hologram(g, config)
    scale = default_photon_scale(g) if photon_scale is None else float(photon_scale)
    noisy = add_poisson_noise(g, scale, seed)
    return Hologram(noisy, config, photon_scale=scale)
