"""Single-shot in-line holography: simulation and iterative reconstruction.

Simulates multi-depth in-line holograms under a weak-scattering linear
forward model with optional Poisson shot noise, and reconstructs real
multi-depth or complex single-plane objects by multiplicative
gradient-descent minimization of the Poisson likelihood with total
variation sparsity and an optional per-pixel upper bound. Includes an
additive least-squares comparator, image-quality and autofocus metrics,
and a CLI for reproducible runs. Import from the submodules: holoem.em,
holoem.baseline, holoem.forward, holoem.metrics, holoem.cli and so on.
"""

__version__ = "0.1.0"
