"""Command-line front end.

Modes: simulate, reconstruct-real, reconstruct-complex, baseline,
autofocus, metrics, resolution. Parameters come from an optional flat
``key = value`` config document (SI units) overridden by command-line
flags (which accept human length units: 675nm, 1.12um, 0.5mm). Every run
writes a manifest capturing the resolved parameters, seeds and output
files; feeding the manifest back as --config reproduces the run
bit-identically (wall-clock trace times aside).

Exit codes: 0 success, 2 configuration error, 3 numeric failure
(divergence or non-finite iterates), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import BaselineParams, baseline_reconstruct
from .em import NumericError, ReconParams, reconstruct_complex, reconstruct_real
from .forward import Hologram, ObjectStack, OpticalConfig, simulate
from .grid import ComplexGrid2D, RealGrid2D
from .io import (
    DEFAULT_PITCH,
    DEFAULT_WAVELENGTH,
    ConfigError,
    HoloIOError,
    apply_reference_illumination,
    load_image,
    load_key_values,
    load_metadata,
    save_image,
    write_error_record,
    write_key_values,
    write_trace,
)
from .metrics import autofocus, display_normalize, quality_report, resolution_limits, ssim
from .phantoms import complex_stack, multi_depth_stack, single_slice_stack

logger = logging.getLogger(__name__)

MODES = (
    "simulate",
    "reconstruct-real",
    "reconstruct-complex",
    "baseline",
    "autofocus",
    "metrics",
    "resolution",
)

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


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad number {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad integer {text!r}") from None


def _parse_opt_float(text: str) -> float | None:
    if text.strip().lower() in ("", "auto", "none"):
        return None
    return _parse_float(text)


_CONFIG_PARSERS = {
    "str": str,
    "path": str,
    "paths": lambda s: tuple(p.strip() for p in s.split(",") if p.strip()),
    "int": _parse_int,
    "optint": lambda s: None if s.strip().lower() in ("", "none") else _parse_int(s),
    "float": _parse_float,
    "optfloat": _parse_opt_float,
    "bool": _parse_bool,
    "length": _parse_float,  # config documents are SI
    "lengths": lambda s: tuple(_parse_float(p) for p in s.split(",") if p.strip()),
}

_FLAG_PARSERS = dict(
    _CONFIG_PARSERS,
    length=parse_length,
    lengths=lambda s: tuple(parse_length(p) for p in s.split(",") if p.strip()),
)


def _key(kind: str, help_text: str, default=None):
    """A run-config key: kind drives both config and flag parsing, help is the flag help."""
    return field(default=default, metadata={"kind": kind, "help": help_text})


@dataclass
class RunConfig:
    """Resolved flat run configuration (SI units throughout).

    Each field is one config key and one command-line flag.
    """

    mode: str = _key("str", "run mode", "")
    wavelength: float | None = _key("length", "illumination wavelength")
    pitch: float | None = _key("length", "pixel pitch (square pixels)")
    pitch_y: float | None = _key("length", "vertical pixel pitch when pixels are not square")
    width: int | None = _key("int", "grid width in pixels")
    height: int | None = _key("int", "grid height in pixels")
    slice_distances: tuple[float, ...] | None = _key(
        "lengths", "comma-separated object-to-sensor distances")
    illumination_amplitude: float = _key("float", "plane-wave amplitude A", 1.0)
    model: str = _key("str", "forward model: linear or full", "linear")
    photon_scale: float | None = _key(
        "optfloat", "photons per intensity unit ('auto' scales mean to 1e4)")
    noise_seed: int | None = _key("optint", "Poisson seed; omit for a noise-free hologram")
    pad: bool = _key("bool", "zero-pad propagations to twice the grid", True)
    phantom: str | None = _key("str", "built-in object: multi-depth, single or complex")
    contrast: float = _key("float", "phantom absorption contrast", 0.04)
    phase_contrast: float = _key("float", "phantom phase contrast (complex phantom)", 0.05)
    objects: tuple[str, ...] | None = _key("paths", "comma-separated per-slice object images")
    input: str | None = _key("path", "input hologram image")
    reference: str | None = _key("path", "reference illumination image (upper-bound source)")
    truth: tuple[str, ...] | None = _key("paths", "ground-truth image(s)")
    iters: int = _key("int", "iteration count", 100)
    tau: float | None = _key("optfloat", "TV weight ('auto' = 0.002 * mean intensity)")
    beta: float = _key("float", "upper-bound relaxation factor", 0.5)
    tv_epsilon: float | None = _key("optfloat", "TV smoothing epsilon ('auto')")
    ratio_floor: float | None = _key("optfloat", "intensity ratio floor ('auto')")
    init: str = _key("str", "initialization: backpropagation or constant", "backpropagation")
    stop: str = _key("str", "stop rule: fixed_iters or relative_change", "fixed_iters")
    stop_delta: float = _key("float", "relative-change stop threshold", 1e-6)
    step_size: float | None = _key("optfloat", "baseline step size ('auto' = 1/L)")
    power_iters: int = _key("int", "power iterations for the step-size estimate", 20)
    power_seed: int = _key("int", "seed for the step-size power iteration", 0)
    z_min: float | None = _key("length", "autofocus scan start")
    z_max: float | None = _key("length", "autofocus scan end")
    z_step: float | None = _key("length", "autofocus scan step")
    numerical_aperture: float | None = _key("float", "effective numerical aperture")
    peak: float | None = _key("optfloat", "dynamic range for PSNR/SSIM ('auto' = reference max)")
    median_size: int = _key("int", "median filter size for the quality report", 3)
    output_dir: str = _key("path", "output directory", "out")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str], where: str = "<config>",
                     from_flags: bool = False) -> "RunConfig":
        parsers = _FLAG_PARSERS if from_flags else _CONFIG_PARSERS
        cfg = cls()
        cfg.update(mapping, where=where, parsers=parsers)
        return cfg

    def update(self, mapping: dict[str, str], where: str = "<config>", parsers=None):
        parsers = parsers or _CONFIG_PARSERS
        kinds = {f.name: f.metadata["kind"] for f in fields(self)}
        for key, raw in mapping.items():
            if key == "holoem_version" or key.startswith("output."):
                continue  # manifest bookkeeping keys are legal config input
            if key not in kinds:
                raise ConfigError(f"{where}: unknown key {key!r}")
            kind = kinds[key]
            try:
                value = parsers[kind](raw) if isinstance(raw, str) else raw
            except ConfigError as exc:
                raise ConfigError(f"{where}: key {key!r}: {exc}") from None
            setattr(self, key, value)

    def require(self, *keys: str):
        missing = [k for k in keys if getattr(self, k) is None]
        if missing:
            raise ConfigError(
                f"mode {self.mode!r} requires {', '.join(missing)} "
                "(set in the config document or by flag)"
            )


def _resolved_pitch(cfg: RunConfig, meta: dict[str, str]) -> tuple[float, float]:
    if cfg.pitch is not None:
        px = cfg.pitch
    elif "pitch_x" in meta:
        px = float(meta["pitch_x"])
    else:
        logger.warning("no pitch configured or recorded; assuming %s", format_length(DEFAULT_PITCH))
        px = DEFAULT_PITCH
    if cfg.pitch_y is not None:
        py = cfg.pitch_y
    elif "pitch_y" in meta:
        py = float(meta["pitch_y"])
    else:
        py = px
    return px, py


def _resolved_wavelength(cfg: RunConfig, meta: dict[str, str]) -> float:
    if cfg.wavelength is not None:
        return cfg.wavelength
    if "wavelength" in meta:
        return float(meta["wavelength"])
    logger.warning("no wavelength configured or recorded; assuming %s",
                   format_length(DEFAULT_WAVELENGTH))
    return DEFAULT_WAVELENGTH


class _Manifest:
    """Ordered manifest accumulator; doubles as a rerunnable config."""

    def __init__(self, cfg: RunConfig):
        self.entries: dict[str, object] = {"holoem_version": __version__}
        self.record("mode", cfg.mode)

    def record(self, key: str, value):
        if value is None:
            return
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (tuple, list)):
            value = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        self.entries[key] = value

    def record_params(self, cfg: RunConfig, keys, auto: bool = False):
        """Record config keys as set; with auto, an unset key is recorded as 'auto'."""
        for key in keys:
            value = getattr(cfg, key)
            self.record(key, "auto" if auto and value is None else value)

    def record_optics(self, optics: OpticalConfig):
        self.record("wavelength", optics.wavelength)
        self.record("pitch", optics.pitch_x)
        self.record("pitch_y", optics.pitch_y)
        self.record("slice_distances", list(optics.slice_distances))
        self.record("illumination_amplitude", optics.illumination_amplitude)

    def outputs(self, paths):
        for p in paths:
            name = Path(p).name
            self.entries[f"output.{Path(p).stem.replace('.', '_')}_{Path(p).suffix.lstrip('.')}"] = name

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.txt"
        self.entries["output.manifest_txt"] = path.name
        return write_key_values(path, self.entries)


def _save_all(out: Path, named_grids, wavelength: float, manifest: _Manifest):
    for name, grid in named_grids:
        written = save_image(out / name, grid, wavelength=wavelength)
        manifest.outputs(written)


def _optical_config(cfg: RunConfig, width: int, height: int,
                    pitch: tuple[float, float], wavelength: float) -> OpticalConfig:
    cfg.require("slice_distances")
    return OpticalConfig(
        wavelength=wavelength,
        pitch_x=pitch[0],
        pitch_y=pitch[1],
        width=width,
        height=height,
        slice_distances=cfg.slice_distances,
        illumination_amplitude=cfg.illumination_amplitude,
    )


def _phantom_stack(cfg: RunConfig, optics: OpticalConfig) -> ObjectStack:
    kind = cfg.phantom
    if kind == "multi-depth":
        return multi_depth_stack(optics, contrast=cfg.contrast)
    if kind == "single":
        return single_slice_stack(optics, contrast=cfg.contrast)
    if kind == "complex":
        return complex_stack(optics, absorb_contrast=cfg.contrast,
                             phase_contrast=cfg.phase_contrast)
    raise ConfigError(f"unknown phantom {kind!r} (multi-depth, single or complex)")


def _object_stack(cfg: RunConfig, optics: OpticalConfig) -> ObjectStack:
    if (cfg.phantom is None) == (cfg.objects is None):
        raise ConfigError("simulate needs exactly one object source: 'phantom' or 'objects'")
    if cfg.phantom is not None:
        return _phantom_stack(cfg, optics)
    if len(cfg.objects) != optics.n_slices:
        raise ConfigError(
            f"{len(cfg.objects)} object image(s) for {optics.n_slices} slice distance(s)"
        )
    slices = []
    for p in cfg.objects:
        img = load_image(p)
        if img.shape != optics.grid_shape:
            raise ConfigError(f"{p}: shape {img.shape} does not match grid {optics.grid_shape}")
        slices.append(img.as_complex())
    return ObjectStack(tuple(slices))


def _run_simulate(cfg: RunConfig, out: Path) -> int:
    cfg.require("width", "height", "slice_distances")
    wavelength = _resolved_wavelength(cfg, {})
    pitch = _resolved_pitch(cfg, {})
    optics = _optical_config(cfg, cfg.width, cfg.height, pitch, wavelength)
    stack = _object_stack(cfg, optics)
    holo = simulate(stack, optics, model=cfg.model, photon_scale=cfg.photon_scale,
                    seed=cfg.noise_seed, pad=cfg.pad)

    manifest = _Manifest(cfg)
    manifest.record_optics(optics)
    manifest.record_params(cfg, ("width", "height", "model", "pad",
                                 "phantom", "contrast", "phase_contrast", "objects"))
    manifest.record("photon_scale", holo.photon_scale)
    manifest.record("noise_seed", holo.noise_seed)

    grids = [("hologram.pfm", holo.intensity), ("hologram.pgm", holo.intensity)]
    for i, s in enumerate(stack.slices):
        grids.append((f"truth_{i:02d}_re.pfm", s.real_part()))
        if np.any(s.data.imag != 0.0):
            grids.append((f"truth_{i:02d}_im.pfm", s.imag_part()))
    _save_all(out, grids, wavelength, manifest)
    manifest.write(out)
    print(f"simulated {optics.width}x{optics.height} hologram, "
          f"{optics.n_slices} slice(s), wavelength {format_length(wavelength)}")
    return 0


def _load_hologram(cfg: RunConfig) -> Hologram:
    cfg.require("input")
    img = load_image(cfg.input)
    meta = load_metadata(cfg.input)
    wavelength = _resolved_wavelength(cfg, meta)
    pitch = _resolved_pitch(cfg, meta)
    if (cfg.width is not None and cfg.width != img.width) or (
        cfg.height is not None and cfg.height != img.height
    ):
        raise ConfigError(
            f"configured grid {cfg.width}x{cfg.height} does not match "
            f"{cfg.input} ({img.width}x{img.height})"
        )
    optics = _optical_config(cfg, img.width, img.height, pitch, wavelength)
    img = RealGrid2D(img.data, pitch[0], pitch[1])
    return Hologram(img, optics)


def _load_truth(cfg: RunConfig, optics: OpticalConfig, complex_mode: bool) -> ObjectStack | None:
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
    slices = []
    for i in range(n):
        if complex_mode:
            re = load_image(paths[2 * i]).data
            im = load_image(paths[2 * i + 1]).data
            slices.append(ComplexGrid2D(re + 1j * im, optics.pitch_x, optics.pitch_y))
        else:
            slices.append(load_image(paths[i]).as_complex())
    return ObjectStack(tuple(slices))


def _quality_json(stack: ObjectStack, truth: ObjectStack, complex_mode: bool) -> str:
    import json

    def _norm_report(a, b):
        an, bn = display_normalize(a), display_normalize(b)
        return {
            "ssim": ssim(an, bn, peak=1.0),
            "psnr_db": float("inf") if np.array_equal(an, bn) else float(
                10 * np.log10(1.0 / max(np.mean((an - bn) ** 2), 1e-300))
            ),
        }

    out = {"normalized": True, "slices": []}
    for est, tru in zip(stack.slices, truth.slices):
        if complex_mode:
            out["slices"].append({
                "real": _norm_report(est.data.real, tru.data.real),
                "imag": _norm_report(est.data.imag, tru.data.imag),
            })
        else:
            out["slices"].append(_norm_report(est.data.real, tru.data.real))
    return json.dumps(out, indent=2)


def _params(cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _upper_bound(cfg: RunConfig, optics: OpticalConfig) -> RealGrid2D | None:
    if cfg.reference is None:
        return None
    ref = load_image(cfg.reference)
    if ref.shape != optics.grid_shape:
        raise ConfigError(f"reference shape {ref.shape} does not match {optics.grid_shape}")
    return apply_reference_illumination(RealGrid2D(ref.data, optics.pitch_x, optics.pitch_y))


def _run_reconstruct(cfg: RunConfig, out: Path) -> int:
    """reconstruct-real, reconstruct-complex and baseline: solve, then one output tail."""
    holo = _load_hologram(cfg)
    optics = holo.config
    complex_mode = cfg.mode == "reconstruct-complex"
    manifest = _Manifest(cfg)
    manifest.record("input", cfg.input)
    if cfg.mode == "baseline":
        params = _params(
            BaselineParams, max_iters=cfg.iters, tau=cfg.tau, step_size=cfg.step_size,
            tv_epsilon=cfg.tv_epsilon, pad=cfg.pad,
            power_iters=cfg.power_iters, power_seed=cfg.power_seed,
        )
        solve = baseline_reconstruct
        # solver keys for the manifest: recorded as given, then 'auto' when unset
        given = ("iters", "pad", "power_iters", "power_seed")
        auto = ("tau", "tv_epsilon", "step_size")
    else:
        if complex_mode and cfg.reference is not None:
            raise ConfigError("the upper bound (reference) applies to real mode only")
        params = _params(
            ReconParams, max_iters=cfg.iters, tau=cfg.tau, beta=cfg.beta,
            tv_epsilon=cfg.tv_epsilon, ratio_floor=cfg.ratio_floor, init_mode=cfg.init,
            stop_rule=cfg.stop, stop_delta=cfg.stop_delta,
            upper_bound=_upper_bound(cfg, optics), pad=cfg.pad,
        )
        solve = reconstruct_complex if complex_mode else reconstruct_real
        given = ("iters", "beta", "init", "stop", "stop_delta", "pad")
        auto = ("tau", "tv_epsilon", "ratio_floor")
        manifest.record("reference", cfg.reference)
    truth = _load_truth(cfg, optics, complex_mode)
    stack, trace = solve(holo, params, ground_truth=truth)

    manifest.record("truth", cfg.truth)
    manifest.record_optics(optics)
    manifest.record_params(cfg, given)
    manifest.record_params(cfg, auto, auto=True)

    grids = []
    for i, s in enumerate(stack.slices):
        if complex_mode:
            grids.append((f"slice_{i:02d}_amplitude.pfm",
                          RealGrid2D(np.abs(s.data), s.pitch_x, s.pitch_y)))
            grids.append((f"slice_{i:02d}_phase.pfm",
                          RealGrid2D(np.angle(s.data), s.pitch_x, s.pitch_y)))
        else:
            grids.append((f"slice_{i:02d}.pfm", s.real_part()))
    _save_all(out, grids, optics.wavelength, manifest)
    trace_path = write_trace(out / "trace.csv", trace)
    manifest.outputs([trace_path])
    if truth is not None:
        qpath = out / "quality.json"
        qpath.write_text(_quality_json(stack, truth, complex_mode), encoding="utf-8")
        manifest.outputs([qpath])
    manifest.write(out)

    if trace.diverged:
        write_error_record(out, 3, "Divergence",
                           "objective increased for 5 consecutive iterations")
        print(f"{cfg.mode} halted: diverging objective (outputs written)", file=sys.stderr)
        return 3
    print(f"reconstructed {optics.n_slices} slice(s) in {len(trace)} iteration(s), "
          f"final objective {trace.nll[-1]:.6g}")
    return 0


def _run_autofocus(cfg: RunConfig, out: Path) -> int:
    cfg.require("input", "z_min", "z_max", "z_step")
    if cfg.slice_distances is None:
        cfg.slice_distances = (cfg.z_min + (cfg.z_max - cfg.z_min) / 2,)  # placeholder geometry
    holo = _load_hologram(cfg)
    best = autofocus(holo, cfg.z_min, cfg.z_max, cfg.z_step, pad=cfg.pad)
    manifest = _Manifest(cfg)
    manifest.record("input", cfg.input)
    manifest.record_optics(holo.config)
    manifest.record_params(cfg, ("z_min", "z_max", "z_step", "pad"))
    result = write_key_values(out / "autofocus.txt", {"best_z": best})
    manifest.outputs([result])
    manifest.write(out)
    print(f"best focus at {format_length(best)}")
    return 0


def _run_metrics(cfg: RunConfig, out: Path) -> int:
    cfg.require("input", "truth")
    if len(cfg.truth) != 1:
        raise ConfigError("metrics mode takes exactly one truth image")
    test = load_image(cfg.input)
    reference = load_image(cfg.truth[0])
    if test.shape != reference.shape:
        raise ConfigError(f"image shapes differ: {test.shape} vs {reference.shape}")
    report = quality_report(test.data, reference.data, peak=cfg.peak,
                            median_size=cfg.median_size)
    manifest = _Manifest(cfg)
    manifest.record_params(cfg, ("input", "truth"))
    manifest.record_params(cfg, ("peak",), auto=True)
    manifest.record("median_size", cfg.median_size)
    qpath = out / "quality.json"
    qpath.write_text(report.to_json() + "\n", encoding="utf-8")
    manifest.outputs([qpath])
    manifest.write(out)
    print(f"mse {report.mse:.6g}  psnr {report.psnr_db:.2f} dB  "
          f"ssim {report.ssim:.4f}  ssim(median) {report.ssim_after_median:.4f}")
    return 0


def _run_resolution(cfg: RunConfig, out: Path) -> int:
    cfg.require("numerical_aperture")
    wavelength = _resolved_wavelength(cfg, {})
    try:
        lateral, axial = resolution_limits(wavelength, cfg.numerical_aperture)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    manifest = _Manifest(cfg)
    manifest.record("wavelength", wavelength)
    manifest.record("numerical_aperture", cfg.numerical_aperture)
    result = write_key_values(out / "resolution.txt", {"lateral": lateral, "axial": axial})
    manifest.outputs([result])
    manifest.write(out)
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


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    out = Path(cfg.output_dir)
    try:
        if cfg.mode not in _RUNNERS:
            raise ConfigError(f"unknown mode {cfg.mode!r}, expected one of {', '.join(MODES)}")
        out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[cfg.mode](cfg, out)
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


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoem",
        description="Single-shot in-line holography: simulation and iterative reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"holoem {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"{mode} run")
        p.add_argument("--config", help="flat key = value config document (SI units)")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("-v", "--verbose", action="store_true", help="debug logging")
        for f in fields(RunConfig):
            if f.name in ("mode", "output_dir"):
                continue
            kind = f.metadata["kind"]
            suffix = " (accepts units: nm, um, mm)" if kind in ("length", "lengths") else ""
            p.add_argument(_flag_name(f.name), dest=f"key_{f.name}", metavar="V",
                           help=f.metadata["help"] + suffix)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = RunConfig()
        if args.config:
            cfg.update(load_key_values(args.config), where=args.config)
        flag_values = {
            key[len("key_"):]: value
            for key, value in vars(args).items()
            if key.startswith("key_") and value is not None
        }
        cfg.update(flag_values, where="<flags>", parsers=_FLAG_PARSERS)
        cfg.mode = args.mode
        if args.out:
            cfg.output_dir = args.out
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return 2
    except HoloIOError as exc:
        logger.error("I/O failure: %s", exc)
        return 4
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
