"""Weak-scattering hologram formation model.

A unit-magnitude plane illumination of amplitude A passes through S thin
object slices with complex perturbations o_z (|o_z| << 1). To first order
the recorded in-line intensity is

    g(x) = |A|^2 * ( 1 + 2 sum_z Re[ P_z o_z ](x) )

(``synthesize_linear``); the exact squared-magnitude interference pattern
|A + sum_z P_z(A o_z)|^2 is available as ``synthesize_full`` for checking
where the linearization holds. Both run on ``operators.stack_forward`` and
its padding, so they differ by exactly |A|^2 |sum_z P_z o_z|^2. Shot noise
is modeled as Poisson counts at a chosen photons-per-intensity-unit scale.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .grid import ComplexGrid2D, RealGrid2D
from .operators import stack_forward

logger = logging.getLogger(__name__)

__all__ = [
    "OpticalConfig",
    "ObjectStack",
    "Hologram",
    "synthesize_linear",
    "synthesize_full",
    "add_poisson_noise",
    "default_photon_scale",
    "simulate",
]


@dataclass(frozen=True)
class OpticalConfig:
    """Geometry and illumination of a single recording.

    All lengths in meters. ``slice_distances`` are the object-to-sensor
    distances, strictly increasing and positive. ``illumination_amplitude``
    is the real positive plane-wave amplitude A.
    """

    wavelength: float
    pitch_x: float
    width: int
    height: int
    slice_distances: tuple[float, ...]
    pitch_y: float | None = None
    illumination_amplitude: float = 1.0

    def __post_init__(self):
        if self.pitch_y is None:
            object.__setattr__(self, "pitch_y", self.pitch_x)
        object.__setattr__(self, "slice_distances", tuple(float(z) for z in self.slice_distances))
        if not (self.wavelength > 0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if not (self.pitch_x > 0 and self.pitch_y > 0):
            raise ValueError("pixel pitch must be positive")
        if self.width < 2 or self.height < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.width}x{self.height}")
        if not (self.illumination_amplitude > 0 and math.isfinite(self.illumination_amplitude)):
            raise ValueError("illumination amplitude must be real and positive")
        zs = self.slice_distances
        if len(zs) < 1:
            raise ValueError("at least one slice distance is required")
        if any(not (z > 0 and math.isfinite(z)) for z in zs):
            raise ValueError(f"slice distances must be positive, got {zs}")
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError(f"slice distances must be strictly increasing, got {zs}")

    @property
    def n_slices(self) -> int:
        return len(self.slice_distances)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.height, self.width)


def _pitch_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)


def _check_geometry(shape: tuple[int, int], pitch_x: float, pitch_y: float, config: OpticalConfig):
    if shape != config.grid_shape:
        raise ValueError(f"grid shape {shape} does not match config {config.grid_shape}")
    if not (_pitch_close(pitch_x, config.pitch_x) and _pitch_close(pitch_y, config.pitch_y)):
        raise ValueError(
            f"grid pitch ({pitch_x}, {pitch_y}) does not match config "
            f"({config.pitch_x}, {config.pitch_y})"
        )


@dataclass(frozen=True)
class ObjectStack:
    """Ordered object slices, nearest-to-sensor last (matching config order).

    A real object is a stack whose slices have zero imaginary parts, as
    the real-mode solvers return.
    """

    slices: tuple[ComplexGrid2D, ...]

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        if len(self.slices) < 1:
            raise ValueError("object stack must contain at least one slice")
        first = self.slices[0]
        for s in self.slices[1:]:
            if s.shape != first.shape or not (
                _pitch_close(s.pitch_x, first.pitch_x) and _pitch_close(s.pitch_y, first.pitch_y)
            ):
                raise ValueError("object slices must share shape and pitch")

    @classmethod
    def from_arrays(cls, arrays, pitch_x: float, pitch_y: float | None = None) -> "ObjectStack":
        py = pitch_x if pitch_y is None else pitch_y
        return cls(tuple(ComplexGrid2D(a, pitch_x, py) for a in arrays))

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @property
    def shape(self) -> tuple[int, int]:
        return self.slices[0].shape

    @property
    def pitch_x(self) -> float:
        return self.slices[0].pitch_x

    @property
    def pitch_y(self) -> float:
        return self.slices[0].pitch_y

    def data(self) -> np.ndarray:
        """Slices as one (S, H, W) complex array (a copy)."""
        return np.stack([s.data for s in self.slices])


@dataclass(frozen=True)
class Hologram:
    """A recorded (or simulated) intensity image plus its recording geometry.

    ``photon_scale`` is the photons-per-intensity-unit factor used when
    noise was added, ``noise_seed`` the generator seed; both None for
    noise-free data.
    """

    intensity: RealGrid2D
    config: OpticalConfig
    photon_scale: float | None = None
    noise_seed: int | None = None

    def __post_init__(self):
        _check_geometry(self.intensity.shape, self.intensity.pitch_x, self.intensity.pitch_y,
                        self.config)
        data = self.intensity.data
        if data.min() < 0.0:
            bad = np.argwhere(data < 0.0)[0]
            raise ValueError(
                f"hologram intensity is negative at (y={bad[0]}, x={bad[1]}): {data[tuple(bad)]}"
            )
        if self.photon_scale is not None and not self.photon_scale > 0:
            raise ValueError(f"photon_scale must be positive, got {self.photon_scale}")


def _stack_args(stack: ObjectStack, config: OpticalConfig):
    _check_geometry(stack.shape, stack.pitch_x, stack.pitch_y, config)
    if stack.n_slices != config.n_slices:
        raise ValueError(
            f"stack has {stack.n_slices} slices, config expects {config.n_slices}"
        )
    return stack.data(), config.pitch_x, config.pitch_y, config.wavelength, config.slice_distances


def synthesize_linear(stack: ObjectStack, config: OpticalConfig, pad: bool = True) -> RealGrid2D:
    """First-order interference intensity |A|^2 (1 + 2 sum_z Re[P_z o_z]).

    Negative output pixels (possible when the perturbations are not weak)
    are clamped to zero; the clamp count is logged as a warning.
    """
    arrs, px, py, lam, zs = _stack_args(stack, config)
    a2 = config.illumination_amplitude**2
    g = a2 * (1.0 + 2.0 * stack_forward(arrs, px, py, lam, zs, pad=pad))
    n_neg = int(np.count_nonzero(g < 0.0))
    if n_neg:
        logger.warning(
            "linearized hologram has %d negative pixels (clamped to 0); "
            "object is outside the weak-scattering regime", n_neg,
        )
        g = np.maximum(g, 0.0)
    return RealGrid2D(g, config.pitch_x, config.pitch_y)


def synthesize_full(stack: ObjectStack, config: OpticalConfig, pad: bool = True) -> RealGrid2D:
    """Exact interference intensity |A + sum_z P_z(A o_z)|^2 as
    A^2 ((1 + F(o))^2 + F(-j o)^2), with F = ``stack_forward``: F(o) is
    Re[sum_z P_z o_z] and F(-j o) its imaginary part."""
    arrs, px, py, lam, zs = _stack_args(stack, config)
    re = stack_forward(arrs, px, py, lam, zs, pad=pad)
    im = stack_forward(-1j * arrs, px, py, lam, zs, pad=pad)
    g = config.illumination_amplitude**2 * ((1.0 + re) ** 2 + im**2)
    return RealGrid2D(g, config.pitch_x, config.pitch_y)


def add_poisson_noise(intensity: RealGrid2D, photon_scale: float, seed: int) -> RealGrid2D:
    """Replace each pixel with a Poisson draw at mean photon_scale * value.

    The returned image is counts / photon_scale, so it stays in intensity
    units and converges to the input as photon_scale grows. Counts are
    drawn with numpy's Generator.poisson on the Philox 4x64-10
    counter-based bit generator (inversion for small means, transformed
    rejection for large means); for a fixed seed the stream is identical
    across platforms.
    """
    if not photon_scale > 0:
        raise ValueError(f"photon_scale must be positive, got {photon_scale}")
    data = intensity.data
    if data.min() < 0.0:
        raise ValueError("intensity must be non-negative for Poisson sampling")
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.poisson(photon_scale * data)
    return intensity.with_data(counts / photon_scale)


def default_photon_scale(intensity: RealGrid2D) -> float:
    """Photon scale that maps the mean intensity to 1e4 counts."""
    mean = float(intensity.data.mean())
    if not mean > 0:
        raise ValueError("mean intensity must be positive to pick a photon scale")
    return 1e4 / mean


def simulate(
    stack: ObjectStack,
    config: OpticalConfig,
    model: str = "linear",
    photon_scale: float | None = None,
    seed: int | None = None,
    pad: bool = True,
) -> Hologram:
    """Synthesize a hologram, optionally with shot noise.

    model is "linear" or "full". photon_scale=None with a seed picks the
    default scale (mean intensity -> 1e4 counts); without a seed the
    hologram is noise-free.
    """
    if model == "linear":
        g = synthesize_linear(stack, config, pad=pad)
    elif model == "full":
        g = synthesize_full(stack, config, pad=pad)
    else:
        raise ValueError(f"unknown forward model {model!r}, expected 'linear' or 'full'")
    if seed is None:
        return Hologram(g, config)
    scale = default_photon_scale(g) if photon_scale is None else float(photon_scale)
    noisy = add_poisson_noise(g, scale, seed)
    return Hologram(noisy, config, photon_scale=scale, noise_seed=int(seed))
