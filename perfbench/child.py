"""One benchmark process: import holoem, run one CLI job through ``holoem.cli.main``.

Usage: ``python3 child.py SPEC.json``. The spec (written by run.py) gives
the source directory, the argv, whether to trace, the result path and the
checks to run on the job's outputs. The process times its own imports and
``main(argv)``, reads its peak RSS right after ``main`` returns, and only
then checks the outputs, so checking never enters a timed figure. With
``import_only`` it stops after the imports, which measures set-up alone.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
from pathlib import Path


class HalvingCounter(logging.Handler):
    """Counts em's step halvings from its 'gradient halved %d time(s)' warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "gradient halved" in str(record.msg):
            self.count += int(record.args[1])


def _anchored_ssim(parts, truth_parts, ssim) -> list[float]:
    """Per-slice SSIM in object units, as acceptance criterion 3 scores it.

    A real-mode estimate is a flat background plus twice the object
    contrast: shifting by the median and halving maps it to object units,
    then both images are put on the truth's own range.
    """
    import numpy as np

    scores = []
    for r, t in zip(parts, truth_parts):
        span = t.max() - t.min()
        rn = ((r - np.median(r)) / 2.0 - t.min()) / span
        tn = (t - t.min()) / span
        scores.append(float(ssim(rn, tn, peak=1.0)))
    return scores


def _iterations(out: Path) -> int:
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines[1:] if line.strip())


def check_outputs(argv: list[str], check: dict) -> dict:
    """Scores of a finished job's outputs against the simulated truth."""
    import numpy as np

    from holoem.io import load_image, load_key_values, load_metadata
    from holoem.metrics import ncc, ssim
    from holoem.operators import stack_adjoint

    out = Path(argv[argv.index("--out") + 1])
    kind = check["kind"]
    if kind == "autofocus":
        best = float(load_key_values(out / "autofocus.txt")["best_z"])
        return {"best_z": best, "focus_err_um": abs(best - check["z_true"]) * 1e6,
                "iterations": check["planes"], "finite": bool(np.isfinite(best))}

    sim = Path(check["sim"])
    zs = tuple(check["distances"])
    holo = load_image(sim / "hologram.pfm")
    wavelength = float(load_metadata(sim / "hologram.pfm")["wavelength"])
    bp = stack_adjoint(holo.data, holo.pitch_x, holo.pitch_y, wavelength, zs)
    result = {"iterations": _iterations(out)}
    if kind == "em-complex":
        amp = load_image(out / "slice_00_amplitude.pfm").data
        phase = load_image(out / "slice_00_phase.pfm").data
        rec = amp * np.exp(1j * phase)
        truth = (load_image(sim / "truth_00_re.pfm").data, load_image(sim / "truth_00_im.pfm").data)
        result["finite"] = bool(np.isfinite(rec).all())
        if result["finite"]:
            result["ncc"] = [ncc(rec.real, truth[0]), ncc(rec.imag, truth[1])]
            result["bp_ncc"] = [ncc(bp[0].real, truth[0]), ncc(bp[0].imag, truth[1])]
        return result
    slices = [load_image(out / f"slice_{i:02d}.pfm").data for i in range(len(zs))]
    truth = [load_image(sim / f"truth_{i:02d}_re.pfm").data for i in range(len(zs))]
    result["finite"] = all(bool(np.isfinite(s).all()) for s in slices)
    if result["finite"]:
        result["ssim"] = _anchored_ssim(slices, truth, ssim)
        result["bp_ssim"] = _anchored_ssim(list(bp.real), truth, ssim)
    return result


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import holoem.cli

    result = {"import_s": time.perf_counter() - t0}
    if spec.get("import_only"):
        return result

    import numpy
    import scipy

    from holoem import propagation
    from tracing import Tracer, write_spans

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    halvings = HalvingCounter()
    logging.getLogger("holoem.em").addHandler(halvings)
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        code = holoem.cli.main(list(spec["argv"]))
        result["solve_s"] = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
    result["exit_code"] = code
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache = propagation._transfer_array.cache_info()
    result["transfer"] = {"builds": cache.misses, "hits": cache.hits}
    result["step_halvings"] = halvings.count
    if tracer:
        result["layers"] = tracer.summary()
        result["bytes_written"] = tracer.bytes_written
        write_spans(Path(spec["spans"]), tracer.records())
    if spec.get("check"):
        from holoem.io import HoloIOError

        try:
            result["checks"] = check_outputs(list(spec["argv"]), spec["check"])
        except (HoloIOError, OSError, KeyError) as exc:
            result["checks"] = {"missing": str(exc)}
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
