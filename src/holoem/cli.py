"""Command-line front end.

Modes: simulate, reconstruct-real, reconstruct-complex, baseline,
autofocus, metrics, resolution. Parameters come from an optional flat
``key = value`` config document overridden by command-line flags; both
parse every value the same way, so lengths accept units (675nm, 1.12um,
0.5mm) and bare numbers are SI. Every run writes a manifest capturing the
resolved parameters, seeds and output files; feeding the manifest back as
--config reproduces the run bit-identically (measured times and memory aside).

Exit codes: 0 success, 2 configuration error, 3 numeric failure
(divergence, non-finite iterates, or an estimate beyond float32 range),
4 I/O failure. Every failure after the command line parses, an
unreadable or invalid config document included, also leaves an
``error.json`` in the output directory.

Start-up: importing this module before numpy sets ``OPENBLAS_NUM_THREADS=1``
unless the environment already sets it, so a CLI process starts no BLAS
thread pool and runs SSIM's window, holoem's one BLAS call, on one thread;
set the variable to choose another count.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import logging
import os
import resource
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

# holoem's one BLAS call is SSIM's window (metrics._windowed), and numpy reads
# this only once, when it loads: one thread spares a CLI process the start of
# OpenBLAS's thread pool, and the window runs on that thread
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .baseline import baseline_reconstruct
from .em import _RISES, NumericError, ReconParams, reconstruct_complex, reconstruct_real
from .forward import Hologram, OpticalConfig, simulate
from .grid import RealGrid2D
from .io import (
    DEFAULT_PITCH,
    DEFAULT_WAVELENGTH,
    ConfigError,
    HoloIOError,
    _check_dims,
    _read_pixels,
    _sidecar_optics,
    apply_reference_illumination,
    load_image,
    load_key_values,
    load_metadata,
    parse_key_values,
    save_image,
    write_error_record,
    write_key_values,
    write_trace,
)
from .metrics import autofocus, object_units, psnr, quality_report, resolution_limits, ssim
from .phantoms import complex_stack, multi_depth_stack, single_slice_stack

logger = logging.getLogger(__name__)

_UNITS = {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "μm": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0}


def parse_length(text: str) -> float:
    """Parse a length with an optional unit suffix; bare numbers are meters."""
    s = str(text).strip()
    for unit in sorted(_UNITS, key=len, reverse=True):
        if s.endswith(unit):
            number = s[: -len(unit)].strip()
            if number:
                try:
                    return float(number) * _UNITS[unit]
                except ValueError:
                    raise ConfigError(f"bad length {text!r}") from None
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"bad length {text!r} (use e.g. 675nm, 1.12um, 0.5mm or meters)") from None


def format_length(meters: float) -> str:
    """Human-readable length: mm / um / nm depending on magnitude."""
    a = abs(meters)
    if a >= 1e-3 or a == 0.0:
        return f"{meters * 1e3:.6g} mm"
    if a >= 1e-6:
        return f"{meters * 1e6:.6g} um"
    return f"{meters * 1e9:.6g} nm"


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def _number_parser(cast, noun: str, unset=()):
    """A parser for one numeric kind: the words in unset (matched without case or
    surrounding space) mean None, anything else must pass cast."""
    def parse(text: str):
        if text.strip().lower() in unset:
            return None
        try:
            return cast(text)
        except ValueError:
            raise ConfigError(f"bad {noun} {text!r}") from None
    return parse


def _parse_paths(text: str) -> tuple[str, ...]:
    """One path when text names an existing file as a whole, else the paths
    between its commas: only a single path may hold a comma."""
    if os.path.isfile(text):
        return (text,)
    return tuple(p.strip() for p in text.split(",") if p.strip())


_CONFIG_PARSERS = {
    "str": str,
    "path": str,
    "paths": _parse_paths,
    "int": _number_parser(int, "integer"),
    "optint": _number_parser(int, "integer", ("", "none")),
    "float": _number_parser(float, "number"),
    "optfloat": _number_parser(float, "number", ("", "auto", "none")),
    "bool": _parse_bool,
    "length": parse_length,
    "lengths": lambda s: tuple(parse_length(p) for p in s.split(",") if p.strip()),
}


def _key(kind: str, help_text: str, default=None, modes=()):
    """A run-config key: kind drives both config and flag parsing, help is the flag
    help, and modes are the modes that read it, which are the ones taking its flag."""
    return field(default=default, metadata={"kind": kind, "help": help_text, "modes": modes})


_REAL = ("reconstruct-real",)
_SOLVE = _REAL + ("reconstruct-complex", "baseline")
_EM = _SOLVE[:2]
_LOAD = _SOLVE + ("autofocus",)  # modes that load a hologram
_SIM = ("simulate",)
_OPTICS = _SIM + _LOAD  # modes that build an optical configuration
_GEOMETRY = _SIM + _SOLVE  # modes that read the object geometry (autofocus scans for it)
_FOCUS = ("autofocus",)

# manifest entries that record a run's outcome; legal, and ignored, as config input
# (the last two are no longer written, but earlier manifests carry them)
_RESULT_KEYS = ("holoem_version", "numpy_version", "stop_reason", "step_halvings", "wall_s",
                "peak_rss_mib", "scipy_version", "fft_workers")
# retired keys, each now fixed at one value: older manifests record them, so each
# stays legal config input at that value only (key -> kind, value); init, the EM
# start, also keeps its RunConfig field and flag, which command lines still pass
_RETIRED = {"tv_epsilon": ("optfloat", "auto"), "ratio_floor": ("optfloat", "auto"),
            "power_iters": ("int", "20"), "power_seed": ("int", "0"),
            "step_size": ("optfloat", "auto"), "median_size": ("int", "3"),
            "illumination_amplitude": ("float", "1.0"), "init": ("str", "constant"),
            "beta": ("float", "0.5")}


@dataclass
class RunConfig:
    """Resolved flat run configuration (SI units throughout).

    Each field is one config key and, for the modes that read it, one
    command-line flag. Solver and optics defaults are the library records'.
    """

    mode: str = _key("str", "run mode", "")
    wavelength: float | None = _key(
        "length", "illumination wavelength", modes=_OPTICS + ("resolution",))
    pitch: float | None = _key("length", "pixel pitch (square pixels)", modes=_OPTICS)
    pitch_y: float | None = _key(
        "length", "vertical pixel pitch when pixels are not square", modes=_OPTICS)
    width: int | None = _key("int", "grid width in pixels", modes=_SIM)
    height: int | None = _key("int", "grid height in pixels", modes=_SIM)
    slice_distances: tuple[float, ...] | None = _key(
        "lengths", "comma-separated object-to-sensor distances", modes=_GEOMETRY)
    model: str = _key("str", "forward model: linear or full", "linear", modes=_SIM)
    photon_scale: float | None = _key(
        "optfloat", "photons per intensity unit ('auto' scales mean to 1e4)", modes=_SIM)
    noise_seed: int | None = _key(
        "optint", "Poisson seed; omit for a noise-free hologram", modes=_SIM)
    pad: bool = _key(
        "bool", "zero-pad propagations to twice the grid", OpticalConfig.pad, modes=_OPTICS)
    phantom: str | None = _key(
        "str", "built-in object: multi-depth, single or complex", modes=_SIM)
    contrast: float | None = _key(
        "float", "phantom absorption contrast (default: the phantom's own)", modes=_SIM)
    phase_contrast: float | None = _key(
        "float", "phantom phase contrast, complex phantom (default: its own)", modes=_SIM)
    objects: tuple[str, ...] | None = _key(
        "paths", "comma-separated per-slice object images", modes=_SIM)
    input: str | None = _key("path", "input hologram image", modes=_LOAD + ("metrics",))
    reference: str | None = _key(
        "path", "reference illumination image (upper-bound source)", modes=_REAL)
    truth: tuple[str, ...] | None = _key(
        "paths", "ground-truth image(s)", modes=_SOLVE + ("metrics",))
    iters: int = _key("int", "iteration count", ReconParams.max_iters, modes=_SOLVE)
    tau: float | None = _key(
        "optfloat", "TV weight ('auto' = 0.002 * mean intensity)", modes=_SOLVE)
    init: str = _key("str", "EM start: constant, the only one", "constant", modes=_EM)
    stop: str = _key(
        "str", "stop rule: fixed_iters or relative_change", ReconParams.stop_rule, modes=_EM)
    stop_delta: float = _key(
        "float", "relative-change stop threshold", ReconParams.stop_delta, modes=_EM)
    z_min: float | None = _key("length", "autofocus scan start", modes=_FOCUS)
    z_max: float | None = _key("length", "autofocus scan end", modes=_FOCUS)
    z_step: float | None = _key("length", "autofocus scan step", modes=_FOCUS)
    numerical_aperture: float | None = _key(
        "float", "effective numerical aperture", modes=("resolution",))
    peak: float | None = _key(
        "optfloat", "dynamic range for PSNR/SSIM ('auto' = reference max, or max - min "
        "when the max is not positive)", modes=("metrics",))
    output_dir: str = _key("path", "output directory", "out")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str], where: str = "<config>") -> "RunConfig":
        cfg = cls()
        cfg.update(mapping, where=where)
        return cfg

    def update(self, mapping: dict[str, str], where: str = "<config>"):
        kinds = {f.name: f.metadata["kind"] for f in fields(self)}
        kinds.update((key, kind) for key, (kind, _) in _RETIRED.items())
        for key, raw in mapping.items():
            if key in _RESULT_KEYS or key.startswith("output."):
                continue  # manifest bookkeeping keys are legal config input
            if key not in kinds:
                raise ConfigError(f"{where}: unknown key {key!r}")
            # the value's manifest line must parse back to it: see parse_key_values
            line, at = f"{key} = {raw}", f"{where}: key {key!r}"
            if isinstance(raw, str) and parse_key_values(line, at) != {key: raw}:
                raise ConfigError(f"{where}: key {key!r}: {raw!r} cannot be kept in a manifest")
            parse = _CONFIG_PARSERS[kinds[key]]
            try:
                value = parse(raw) if isinstance(raw, str) else raw
            except ConfigError as exc:
                raise ConfigError(f"{where}: key {key!r}: {exc}") from None
            if key not in _RETIRED:
                setattr(self, key, value)
            elif value != parse(_RETIRED[key][1]):
                raise ConfigError(f"{where}: key {key!r} is retired and accepts only "
                                  f"{_RETIRED[key][1]}, got {raw!r}")

    def require(self, *keys: str):
        missing = [k for k in keys if getattr(self, k) is None]
        if missing:
            raise ConfigError(
                f"mode {self.mode!r} requires {', '.join(missing)} "
                "(set in the config document or by flag)"
            )


def _optic(cfg: RunConfig, recorded: dict[str, float], key: str, default: float) -> float:
    """One optical key: the config's value, else the input image sidecar's
    (``recorded``, by ``io._sidecar_optics``), else default. The resolved value
    is written into cfg, so the manifest records it. pitch_y defaults to the
    resolved pitch, and :func:`_optical_config` passes it the sidecar only when
    the pitch came from there; any other default is logged as a warning."""
    value = getattr(cfg, key)
    if value is None:
        value = recorded.get(key, default)
        if key not in recorded and key != "pitch_y":
            logger.warning("no %s configured or recorded; assuming %s", key, format_length(default))
    setattr(cfg, key, value)
    return value


def _outputs(*paths) -> dict[str, str]:
    """Manifest entries naming written files: ``output.<stem>_<suffix> = <name>``."""
    return {f"output.{Path(p).stem.replace('.', '_')}_{Path(p).suffix.lstrip('.')}": Path(p).name
            for p in paths}


def _write_manifest(out: Path, cfg: RunConfig, outcome: dict, started: float) -> Path:
    """Write the manifest, which doubles as a rerunnable config: every RunConfig
    key the mode reads, as ``cfg`` holds it by then (an unset 'optfloat' key as
    'auto', any other unset key skipped), then the ``outcome`` entries the run
    recorded, then ``wall_s``, the seconds since ``started`` (a
    ``time.perf_counter()`` reading), and ``peak_rss_mib``, this process's peak
    resident set size."""
    entries = {"holoem_version": __version__, "numpy_version": np.__version__, "mode": cfg.mode}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None and f.metadata["kind"] == "optfloat":
            value = "auto"
        if cfg.mode in f.metadata["modes"] and value is not None:
            entries[f.name] = value
    path = out / "manifest.txt"
    entries.update(outcome)
    entries.update(_outputs(path))
    entries["wall_s"] = round(time.perf_counter() - started, 3)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
    entries["peak_rss_mib"] = peak / (2**20 if sys.platform == "darwin" else 2**10)
    return write_key_values(path, entries)


def _save_all(out: Path, named_arrays, optics: OpticalConfig, outcome: dict):
    """Save (H, W) arrays as images at the run's pitch and wavelength."""
    for name, data in named_arrays:
        grid = RealGrid2D(data, optics.pitch_x, optics.pitch_y)
        outcome.update(_outputs(*save_image(out / name, grid, wavelength=optics.wavelength)))


def _optical_config(cfg: RunConfig, recorded: dict[str, float], width: int,
                    height: int) -> OpticalConfig:
    """The run's optics, each key resolved by :func:`_optic`. Autofocus reads
    no geometry: its hologram carries one fixed depth. Every mode works in
    units of the illumination, so none reads an amplitude."""
    if cfg.mode != "autofocus":
        cfg.require("slice_distances")
    pitch_recorded = recorded if cfg.pitch is None and "pitch" in recorded else {}
    pitch = _optic(cfg, recorded, "pitch", DEFAULT_PITCH)
    return OpticalConfig(
        wavelength=_optic(cfg, recorded, "wavelength", DEFAULT_WAVELENGTH),
        pitch_x=pitch,
        pitch_y=_optic(cfg, pitch_recorded, "pitch_y", pitch),
        width=width,
        height=height,
        slice_distances=(1.0,) if cfg.mode == "autofocus" else cfg.slice_distances,
        pad=cfg.pad,
    )


_CONTRASTS = ("contrast", "phase_contrast")  # the keys a phantom builder may take


def _phantom_stack(cfg: RunConfig, optics: OpticalConfig) -> np.ndarray:
    """The built-in object, given the keywords its builder takes after the config.
    A keyword left unset takes the builder's default, which goes into cfg so that
    the manifest records it. A contrast key the builder does not take, or one
    that is not finite, is refused."""
    builders = {"multi-depth": multi_depth_stack, "single": single_slice_stack,
                "complex": complex_stack}
    if cfg.phantom not in builders:
        raise ConfigError(f"unknown phantom {cfg.phantom!r} (multi-depth, single or complex)")
    build = builders[cfg.phantom]
    own = {p.name: p.default for p in list(inspect.signature(build).parameters.values())[1:]}
    for key in _CONTRASTS:
        value = getattr(cfg, key)
        if value is not None and key not in own:
            raise ConfigError(f"phantom {cfg.phantom!r} takes no {key!r}")
        if value is not None and not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if value is None and key in own:
            setattr(cfg, key, own[key])
    return build(optics, **{key: getattr(cfg, key) for key in own})


def _object_stack(cfg: RunConfig, optics: OpticalConfig) -> np.ndarray:
    if (cfg.phantom is None) == (cfg.objects is None):
        raise ConfigError("simulate needs exactly one object source: 'phantom' or 'objects'")
    if cfg.phantom is not None:
        return _phantom_stack(cfg, optics)
    for key in _CONTRASTS:
        if getattr(cfg, key) is not None:
            raise ConfigError(f"{key!r} sets a phantom, and 'objects' builds none")
    return np.stack([_load_on_grid(p, optics) for p in cfg.objects])


def _load_on_grid(path, optics: OpticalConfig) -> np.ndarray:
    """An input image's pixels, taken on the run's grid and pitch (whatever
    pitch its sidecar records, if it has one); a shape mismatch names the file."""
    data = load_image(path).data
    if data.shape != optics.grid_shape:
        raise ConfigError(f"{path}: shape {data.shape} does not match grid {optics.grid_shape}")
    return data


def _fits_float32(data: np.ndarray, what: str, error=ConfigError):
    """Raise error, before any image is written, when no image can hold data."""
    largest = float(np.abs(data).max())
    if largest > float(np.finfo(np.float32).max):
        raise error(f"{what} magnitude {largest:.6g} exceeds the float32 range of its images")


def _run_simulate(cfg: RunConfig, out: Path, outcome: dict) -> int:
    cfg.require("width", "height", "slice_distances")
    _check_dims(cfg.width, cfg.height, "configured grid", ConfigError)  # as the reader limits it
    optics = _optical_config(cfg, {}, cfg.width, cfg.height)
    obj = _object_stack(cfg, optics)
    # an object an image can hold keeps either model's hologram finite
    source = "objects" if cfg.objects else "/".join(
        k for k in _CONTRASTS if getattr(cfg, k) is not None)
    _fits_float32(obj, f"{source}: object")
    holo = simulate(obj, optics, model=cfg.model, photon_scale=cfg.photon_scale,
                    seed=cfg.noise_seed)
    _fits_float32(holo.intensity, f"{source}: hologram")
    cfg.photon_scale = holo.photon_scale
    images = [("hologram.pfm", holo.intensity), ("hologram.pgm", holo.intensity)]
    for i, s in enumerate(obj):
        images.append((f"truth_{i:02d}_re.pfm", s.real))
        if np.any(s.imag != 0.0):
            images.append((f"truth_{i:02d}_im.pfm", s.imag))
    _save_all(out, images, optics, outcome)
    print(f"simulated {optics.width}x{optics.height} hologram, "
          f"{optics.n_slices} slice(s), wavelength {format_length(optics.wavelength)}")
    return 0


def _load_hologram(cfg: RunConfig) -> Hologram:
    """The input hologram on its image's grid and the run's optics: one sidecar read, one grid."""
    cfg.require("input")
    meta = load_metadata(cfg.input)
    data = _read_pixels(Path(cfg.input), meta)
    optics = _optical_config(cfg, _sidecar_optics(cfg.input, meta), *data.shape[::-1])
    return Hologram(data, optics)


def _load_truth(cfg: RunConfig, optics: OpticalConfig, complex_mode: bool) -> np.ndarray | None:
    if cfg.truth is None:
        return None
    paths = cfg.truth
    n = optics.n_slices
    expected = 2 * n if complex_mode else n
    if len(paths) != expected:
        raise ConfigError(
            f"expected {expected} truth image(s) for {n} slice(s)"
            + (" (real,imag per slice)" if complex_mode else "")
        )
    parts = np.stack([_load_on_grid(p, optics) for p in paths])
    return parts[::2] + 1j * parts[1::2] if complex_mode else parts


def _psnr_db(db: float) -> float | None:
    """A PSNR as quality.json's strict JSON holds it: identical images' +inf as null."""
    return None if db == float("inf") else db


def _write_quality(out: Path, record: dict, outcome: dict) -> None:
    """Write ``record`` to quality.json as strict JSON and list the file in the outcome."""
    qpath = out / "quality.json"
    qpath.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    outcome.update(_outputs(qpath))


def _slice_quality(estimate: np.ndarray, truth: np.ndarray, complex_mode: bool) -> dict:
    def _report(a, b):
        x, t, rel_error = object_units(a, b)
        return {"ssim": ssim(x, t, peak=1.0), "psnr_db": _psnr_db(psnr(x, t, peak=1.0)),
                "rel_error": rel_error}

    slices = [{"real": _report(est.real, tru.real), "imag": _report(est.imag, tru.imag)}
              if complex_mode else _report(est, tru) for est, tru in zip(estimate, truth)]
    return {"slices": slices}


def _upper_bound(cfg: RunConfig, optics: OpticalConfig) -> np.ndarray | None:
    if cfg.reference is None:
        return None
    return apply_reference_illumination(_load_on_grid(cfg.reference, optics))


def _run_reconstruct(cfg: RunConfig, out: Path, outcome: dict) -> int:
    """reconstruct-real, reconstruct-complex and baseline: solve, then one output tail."""
    holo = _load_hologram(cfg)
    optics = holo.config
    complex_mode = cfg.mode == "reconstruct-complex"
    if cfg.mode == "baseline":
        params = ReconParams(max_iters=cfg.iters, tau=cfg.tau)
        solve = baseline_reconstruct
    else:
        params = ReconParams(max_iters=cfg.iters, tau=cfg.tau, stop_rule=cfg.stop,
                             stop_delta=cfg.stop_delta, upper_bound=_upper_bound(cfg, optics))
        solve = reconstruct_complex if complex_mode else reconstruct_real
    truth = _load_truth(cfg, optics, complex_mode)
    estimate, trace = solve(holo, params, ground_truth=truth)
    outcome.update(stop_reason=trace.stop_reason, step_halvings=trace.step_halvings)
    _fits_float32(estimate, "estimate", NumericError)

    if complex_mode:
        images = [(f"slice_{i:02d}_{name}.pfm", part(s)) for i, s in enumerate(estimate)
                  for name, part in (("amplitude", np.abs), ("phase", np.angle))]
    else:
        images = [(f"slice_{i:02d}.pfm", s) for i, s in enumerate(estimate)]
    _save_all(out, images, optics, outcome)
    outcome.update(_outputs(write_trace(out / "trace.csv", trace)))
    if truth is not None:
        _write_quality(out, _slice_quality(estimate, truth, complex_mode), outcome)

    if trace.diverged:
        write_error_record(out, 3, "Divergence", f"objective increased for {_RISES} consecutive "
                           f"iterations; the slices written are iteration {len(trace) - _RISES}")
        print(f"{cfg.mode} halted: diverging objective (outputs written)", file=sys.stderr)
        return 3
    print(f"reconstructed {optics.n_slices} slice(s) in {len(trace)} iteration(s), "
          f"final objective {trace.nll[-1]:.6g}")
    return 0


def _run_autofocus(cfg: RunConfig, out: Path, outcome: dict) -> int:
    cfg.require("input", "z_min", "z_max", "z_step")
    best = autofocus(_load_hologram(cfg), cfg.z_min, cfg.z_max, cfg.z_step)
    outcome.update(_outputs(write_key_values(out / "autofocus.txt", {"best_z": best})))
    print(f"best focus at {format_length(best)}")
    return 0


def _run_metrics(cfg: RunConfig, out: Path, outcome: dict) -> int:
    cfg.require("input", "truth")
    if len(cfg.truth) != 1:
        raise ConfigError("metrics mode takes exactly one truth image")
    report = quality_report(load_image(cfg.input).data, load_image(cfg.truth[0]).data, cfg.peak)
    _write_quality(out, {**report, "psnr_db": _psnr_db(report["psnr_db"])}, outcome)
    print(f"mse {report['mse']:.6g}  psnr {report['psnr_db']:.2f} dB  ssim {report['ssim']:.4f}")
    return 0


def _run_resolution(cfg: RunConfig, out: Path, outcome: dict) -> int:
    cfg.require("numerical_aperture")
    wavelength = _optic(cfg, {}, "wavelength", DEFAULT_WAVELENGTH)
    lateral, axial = resolution_limits(wavelength, cfg.numerical_aperture)
    result = write_key_values(out / "resolution.txt", {"lateral": lateral, "axial": axial})
    outcome.update(_outputs(result))
    print(f"lateral resolution {format_length(lateral)}, axial {format_length(axial)}")
    return 0


_RUNNERS = {
    "simulate": _run_simulate,
    "reconstruct-real": _run_reconstruct,
    "reconstruct-complex": _run_reconstruct,
    "baseline": _run_reconstruct,
    "autofocus": _run_autofocus,
    "metrics": _run_metrics,
    "resolution": _run_resolution,
}
MODES = tuple(_RUNNERS)


def run(args: argparse.Namespace, started: float) -> int:
    """Resolve a parsed command line's config document and flags, then execute the
    run; returns the process exit code. A mode that returns writes the manifest
    of the config as the mode resolved it; every failure leaves error.json in the
    output directory: --out, else the config's output_dir, else 'out' when the
    config document itself cannot be read. The manifest's ``wall_s`` counts from
    ``started``, a ``time.perf_counter()`` reading."""
    cfg = RunConfig()
    out = Path(args.out or cfg.output_dir)
    try:
        if args.config:
            cfg = RunConfig.from_mapping(load_key_values(args.config), where=args.config)
            out = Path(args.out or cfg.output_dir)
        cfg.mode = args.mode
        cfg.update({key[len("key_"):]: value for key, value in vars(args).items()
                    if key.startswith("key_") and value is not None}, where="<flags>")
        out.mkdir(parents=True, exist_ok=True)
        outcome: dict[str, object] = {}  # entries each runner records as it goes
        code = _RUNNERS[cfg.mode](cfg, out, outcome)
        _write_manifest(out, cfg, outcome, started)
        return code
    except (ConfigError, ValueError) as exc:
        # invalid parameter combinations surface as configuration errors
        logger.error("configuration error: %s", exc)
        write_error_record(out, 2, type(exc).__name__, str(exc))
        return 2
    except NumericError as exc:
        logger.error("numeric failure: %s", exc)
        write_error_record(out, 3, type(exc).__name__, str(exc))
        return 3
    except (HoloIOError, OSError) as exc:
        logger.error("I/O failure: %s", exc)
        write_error_record(out, 4, type(exc).__name__, str(exc))
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoem",
        description="Single-shot in-line holography: simulation and iterative reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"holoem {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"{mode} run")
        p.add_argument("--config", help="flat key = value config document (bare numbers are SI)")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("-v", "--verbose", action="store_true", help="debug logging")
        for f in fields(RunConfig):
            if mode not in f.metadata["modes"]:
                continue
            kind = f.metadata["kind"]
            suffix = " (accepts units: nm, um, mm)" if kind in ("length", "lengths") else ""
            p.add_argument("--" + f.name.replace("_", "-"), dest=f"key_{f.name}", metavar="V",
                           help=f.metadata["help"] + suffix)
    return parser


def _keep_freed_pages() -> None:
    """Keep freed heap blocks in this process instead of handing them back to the kernel.

    Every sweep plane and operator call allocates 2-8 MiB spectra and frames.
    glibc maps such blocks on their own and unmaps them when freed, so the next
    call page-faults and zero-fills the same memory again. A 32 MiB mmap
    threshold (the most glibc's own adaptive threshold reaches on 64-bit)
    serves them from the heap, and a 1 GiB trim threshold keeps the heap's
    freed top; larger blocks are still mapped. It pays where many calls reuse
    such blocks: 7-15% on autofocus sweeps and the baseline. On a short EM
    solve, whose few iterations are mostly first touches (the benchmark's
    ``multidepth-512``), it measured neutral. Only the CLI process calls
    this; off glibc it does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    started = time.perf_counter()
    _keep_freed_pages()
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return run(args, started)


if __name__ == "__main__":
    sys.exit(main())
