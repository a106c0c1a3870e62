"""File formats and flat key-value documents.

Images travel as PFM (grayscale 'Pf', float32, |scale| row order
bottom-to-top, sign of scale giving endianness) for lossless float data,
or binary PGM ('P5') for display: previews are written 16-bit (maxval
65535, big-endian), and 8-bit files (maxval up to 255) are read too.
Every image carries a sidecar ``<image>.meta`` in the same ``key = value``
format as config files, holding pixel pitch, wavelength when known, and
for PGM the quantization range so loading can undo the scaling.

Config documents are flat ``key = value`` lines; ``#`` at a line's start
or after whitespace starts a comment. All physical quantities in files are
SI. Traces are CSV whose fixed header is the trace's ``COLUMNS``,
``iteration,nll,tv,ssim,rel_error,millis``.
"""

from __future__ import annotations

import json
import logging
import re
from pathlib import Path

import numpy as np

from .grid import RealGrid2D, _finite

logger = logging.getLogger(__name__)

__all__ = [
    "HoloIOError",
    "ConfigError",
    "DEFAULT_WAVELENGTH",
    "DEFAULT_PITCH",
    "save_image",
    "load_image",
    "load_metadata",
    "apply_reference_illumination",
    "parse_key_values",
    "load_key_values",
    "write_key_values",
    "write_trace",
    "write_error_record",
]

DEFAULT_WAVELENGTH = 675e-9
DEFAULT_PITCH = 1.12e-6

_COMMENT = re.compile(r"(^|\s)#.*")
_MAX_SIDE = 32768
_MAX_PIXELS = 1 << 26


class HoloIOError(Exception):
    """Malformed or unreadable image/trace data."""


class ConfigError(Exception):
    """Invalid configuration document or parameter value."""


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta")


def _check_dims(width: int, height: int, where: str, error=HoloIOError):
    if width < 1 or height < 1:
        raise error(f"{where}: non-positive dimensions {width}x{height}")
    if width > _MAX_SIDE or height > _MAX_SIDE or width * height > _MAX_PIXELS:
        raise error(f"{where}: dimensions {width}x{height} overflow the supported range")


def _read_netpbm(path: Path, magic: bytes, comments: bool) -> tuple[int, int, bytes, bytes]:
    """Width, height, the third header token and the bytes after the one
    whitespace byte that ends the header of a binary Netpbm file; with
    ``comments``, '#' between tokens starts a comment that runs to the end
    of its line."""
    buf = path.read_bytes()
    token = re.compile((rb"(?:[ \t\r\n]|#[^\r\n]*)*" if comments else rb"[ \t\r\n]*")
                       + rb"([^ \t\r\n]+)")
    tokens, pos = [], 0
    while len(tokens) < 4:
        found = token.match(buf, pos)
        if found is None:
            raise HoloIOError(f"{path}: header truncated at byte {len(buf)}")
        tokens.append(found[1])
        pos = found.end()
        if tokens[0] != magic:
            kind = "color PFM not supported" if tokens[0] == b"PF" else f"bad magic {tokens[0]!r}"
            raise HoloIOError(f"{path}: {kind}, expected {magic.decode()!r}")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise HoloIOError(f"{path}: expected integer dimensions, got {tokens[1]!r} by "
                          f"{tokens[2]!r}") from None
    _check_dims(width, height, str(path))
    return width, height, tokens[3], buf[pos + 1:]


def _samples(path: Path, raw: bytes, dtype: str, width: int, height: int) -> np.ndarray:
    """The height x width samples of ``dtype`` that ``raw`` holds, exactly."""
    size = np.dtype(dtype).itemsize * width * height
    if len(raw) != size:
        raise HoloIOError(f"{path}: expected {size} data bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype=dtype).reshape(height, width)


def _write_netpbm(path: Path, header: tuple[str, str], samples: np.ndarray):
    """A binary Netpbm file: the magic and the third header token of
    ``header`` around the samples' width and height, one line each, then
    the samples' bytes."""
    magic, third = header
    height, width = samples.shape
    with open(path, "wb") as f:
        f.write(f"{magic}\n{width} {height}\n{third}\n".encode("ascii"))
        f.write(samples.tobytes())


def _write_pfm(path: Path, data: np.ndarray):
    with np.errstate(over="ignore"):
        samples = np.flipud(data).astype("<f4")
    if not np.isfinite(samples).all():
        raise HoloIOError(f"{path}: values up to {float(np.abs(data).max())!r} exceed "
                          "the float32 range of PFM")
    _write_netpbm(path, ("Pf", "-1.0"), samples)


def _read_pfm(path: Path) -> np.ndarray:
    width, height, token, raw = _read_netpbm(path, b"Pf", comments=False)
    try:
        scale = float(token)
    except ValueError:
        raise HoloIOError(f"{path}: bad scale token {token!r}") from None
    if scale == 0.0 or not np.isfinite(scale):
        raise HoloIOError(f"{path}: scale must be finite and nonzero, got {scale}")
    samples = _samples(path, raw, "<f4" if scale < 0 else ">f4", width, height)
    return _finite(np.flipud(samples).astype(np.float64), f"{path}: pixel data", HoloIOError)


def _write_pgm(path: Path, data: np.ndarray) -> tuple[float, float]:
    maxval = 65535
    lo, hi = float(data.min()), float(data.max())
    if not np.isfinite(hi - lo):
        raise HoloIOError(f"{path}: value range [{lo!r}, {hi!r}] is too wide to quantize")
    if hi > lo:
        q = np.rint((data - lo) / (hi - lo) * maxval)
    else:
        q = np.zeros_like(data)
    _write_netpbm(path, ("P5", str(maxval)), q.astype(">u2"))
    return lo, hi


def _read_pgm(path: Path) -> tuple[np.ndarray, int]:
    width, height, token, raw = _read_netpbm(path, b"P5", comments=True)
    maxval = int(token) if token.isdigit() else 0
    if not 0 < maxval < 65536:
        raise HoloIOError(f"{path}: maxval must be an integer in 1..65535, got {token!r}")
    counts = _samples(path, raw, ">u2" if maxval > 255 else "u1", width, height)
    return counts.astype(np.float64), maxval


def save_image(path, grid: RealGrid2D, wavelength: float | None = None) -> list[Path]:
    """Write a grid as .pfm (float) or 16-bit .pgm (quantized) plus its sidecar.

    Returns the written paths ([image, sidecar]). PGM data is min-max
    scaled to 0..65535; the range goes into the sidecar so
    :func:`load_image` can restore the original values to quantization
    accuracy.
    """
    path = Path(path)
    meta: dict[str, object] = {"pitch_x": grid.pitch_x, "pitch_y": grid.pitch_y}
    if wavelength is not None:
        meta["wavelength"] = wavelength
    suffix = path.suffix.lower()
    if suffix == ".pfm":
        _write_pfm(path, grid.data)
    elif suffix == ".pgm":
        lo, hi = _write_pgm(path, grid.data)
        meta["pgm_min"] = lo
        meta["pgm_max"] = hi
    else:
        raise HoloIOError(f"{path}: unsupported image suffix {suffix!r} (use .pfm or .pgm)")
    side = sidecar_path(path)
    write_key_values(side, meta)
    return [path, side]


def load_metadata(path) -> dict[str, str]:
    """Sidecar key-value pairs for an image path; empty when absent."""
    side = sidecar_path(path)
    if not side.exists():
        return {}
    return load_key_values(side)


def _read_pixels(path: Path, meta: dict[str, str]) -> np.ndarray:
    """The pixels of a .pfm or .pgm image, given its sidecar's key-value pairs
    (see :func:`load_image`); an empty sidecar is logged as a warning."""
    if not path.exists():
        raise HoloIOError(f"{path}: no such file")
    if not meta:
        logger.warning("%s: no sidecar metadata", path)
    suffix = path.suffix.lower()
    if suffix == ".pfm":
        return _read_pfm(path)
    if suffix != ".pgm":
        raise HoloIOError(f"{path}: unsupported image suffix {suffix!r} (use .pfm or .pgm)")
    counts, maxval = _read_pgm(path)
    data = counts / maxval
    if "pgm_min" in meta and "pgm_max" in meta:
        try:
            lo, hi = float(meta["pgm_min"]), float(meta["pgm_max"])
        except ValueError as exc:
            raise HoloIOError(f"{sidecar_path(path)}: bad PGM range value ({exc})") from None
        if not np.isfinite(hi - lo):
            raise HoloIOError(f"{sidecar_path(path)}: range [{lo!r}, {hi!r}] is not finite")
        data = lo + data * (hi - lo)
    return data


def _sidecar_optics(path, meta: dict[str, str]) -> dict[str, float]:
    """The pitch (recorded as pitch_x), pitch_y and wavelength that an image's
    sidecar holds, keyed as config documents name them; a value that is not a
    positive finite number raises HoloIOError naming the sidecar and the key."""
    optics = {}
    for recorded in ("pitch_x", "pitch_y", "wavelength"):
        if recorded in meta:
            try:
                value = float(meta[recorded])
            except ValueError:
                value = np.nan
            if not 0.0 < value < np.inf:
                raise HoloIOError(f"{sidecar_path(path)}: {recorded} must be positive and "
                                  f"finite, got {meta[recorded]}")
            optics["pitch" if recorded == "pitch_x" else recorded] = value
    return optics


def load_image(path) -> RealGrid2D:
    """Read a .pfm or .pgm image with its sidecar metadata.

    A missing sidecar is logged as a warning and the grid takes the
    default pitch (1.12 um); the CLI resolves its optics itself and warns
    for each value it defaults. PGM values are mapped back to the recorded
    range when the sidecar has one, otherwise to [0, 1].
    """
    path = Path(path)
    meta = load_metadata(path)
    data = _read_pixels(path, meta)
    optics = _sidecar_optics(path, meta)
    pitch = optics.get("pitch", DEFAULT_PITCH)
    return RealGrid2D(data, pitch, optics.get("pitch_y", pitch))


def apply_reference_illumination(raw: np.ndarray) -> np.ndarray:
    """Smooth a recorded reference image into a per-pixel upper bound.

    A 5 x 5 mean filter with replicated edges knocks shot noise out of the
    reference while keeping its low-frequency illumination profile. Each
    axis in turn takes running window sums, the first window summed and
    each later one stepped by the sample entering minus the sample
    leaving, and divides every sum by 5.
    """
    data = raw
    for axis in (0, 1):
        lines = np.pad(np.moveaxis(data, axis, 0), ((2, 2), (0, 0)), mode="edge")
        sums = np.concatenate([lines[:5].sum(axis=0, keepdims=True), lines[5:] - lines[:-5]])
        np.cumsum(sums, axis=0, out=sums)
        sums /= 5.0
        data = np.moveaxis(sums, 0, axis)
    return data


def parse_key_values(text: str, where: str = "<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' at a line's start or after
    whitespace starts a comment, so a value may hold 'a#b'."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _COMMENT.sub("", line, count=1).strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = body.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{where}:{lineno}: empty key")
        if key in out:
            logger.warning("%s:%d: duplicate key %r overrides earlier value", where, lineno, key)
        out[key] = value
    return out


def load_key_values(path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise HoloIOError(f"{path}: {exc}") from None
    return parse_key_values(text, where=str(path))


def _format_value(value) -> str:
    """A value as one ``key = value`` document reads it back: a bool as
    true/false, any float (numpy's too) by its shortest round-trip repr, a
    tuple or list comma-joined, anything else as str."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def write_key_values(path, mapping) -> Path:
    path = Path(path)
    lines = [f"{key} = {_format_value(value)}" for key, value in mapping.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_trace(path, trace) -> Path:
    """Write a solver trace (``em.ReconTrace``) as CSV with the header ``trace.COLUMNS``."""
    path = Path(path)
    columns = zip(trace.iterations, trace.nll, trace.tv, trace.ssim, trace.rel_error, trace.millis)
    rows = [",".join(trace.COLUMNS)] + [",".join("" if v is None else repr(v) for v in row)
                                        for row in columns]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_error_record(out_dir, exit_code: int, kind: str, message: str) -> Path | None:
    """Best-effort machine-readable failure record in the output directory."""
    try:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "error.json"
        path.write_text(
            json.dumps({"exit_code": exit_code, "error": kind, "message": message}, indent=2)
            + "\n",
            encoding="utf-8",
        )
        return path
    except OSError:
        logger.error("could not write error record to %s", out_dir)
        return None
