"""The benchmark's workloads: which holograms to simulate and which CLI jobs to run.

Every input is written by ``holoem simulate`` from the workload seed (as
``--noise-seed``, so about 1e4 mean counts), at 675 nm, 1.12 um pitch and
padding on. Each workload has a full size, which the benchmark measures,
and a smoke size, which the benchmark's own tests run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

PAD = ("--pad", "true")
GEOMETRY = ("--wavelength", "675nm", "--pitch", "1.12um", *PAD)
THREE_PLANES = "0.5mm,1mm,1.25mm"
THREE_PLANES_M = (0.5e-3, 1.0e-3, 1.25e-3)
FOCUS_Z_M = 1.0e-3
FOCUS_TOLERANCE_UM = 10.0  # acceptance criterion 7

# Known defects, kept visible: each job that shows one counts as failed.
BASELINE_DIVERGES = "baseline-diverges-on-noise"  # exit code 3 on a noisy hologram
AUTOFOCUS_MISSES = "autofocus-misses-on-noise"  # lands on the scan edge


@dataclass(frozen=True)
class Sim:
    """One ``holoem simulate`` run writing an input directory."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Job:
    """One CLI job, run in a fresh process; ``check`` says how to judge its output."""

    name: str
    argv: tuple[str, ...]
    check: dict = field(default_factory=dict)
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    sims: tuple[Sim, ...]
    jobs: tuple[Job, ...]
    size: int  # image side in pixels


# name -> (full size, smoke size); a size is a dict of the knobs each builder reads
SIZES = {
    "multidepth-512": ({"n": 512, "iters": 5}, {"n": 128, "iters": 4}),
    "complex-192": ({"n": 192, "iters": 100}, {"n": 64, "iters": 20}),
    # the baseline diverges on noise after 48-58 iterations (seeds 1-7, 41-90)
    "compare-256": ({"n": 256, "iters": 20, "baseline_iters": 80},
                    {"n": 128, "iters": 4, "baseline_iters": 60}),
    # more than 64 planes per sweep, so the 64-entry transfer cache fills and evicts
    "autofocus-512": ({"n": 512, "z_step_um": 15.625}, {"n": 256, "z_step_um": 50.0}),
}
NAMES = tuple(SIZES)


def _simulate(out: Path, n: int, distances: str, phantom: str, seed: int | None) -> tuple[str, ...]:
    argv = ["simulate", "--out", str(out), "--width", str(n), "--height", str(n),
            *GEOMETRY, "--slice-distances", distances, "--phantom", phantom]
    if seed is not None:
        argv += ["--noise-seed", str(seed)]
    return tuple(argv)


def _truth_list(sim_dir: Path, count: int) -> str:
    return ",".join(str(sim_dir / f"truth_{i:02d}_re.pfm") for i in range(count))


def focus_planes(z_min: float, z_max: float, z_step: float) -> int:
    """Planes an autofocus sweep visits, counted as ``holoem.metrics.autofocus`` does."""
    return int(math.floor((z_max - z_min) / z_step + 1e-9)) + 1


def build(name: str, seed: int, inputs: Path, outputs: Path, smoke: bool = False) -> Workload:
    """Concrete simulate and job command lines for one workload and seed."""
    size = SIZES[name][1 if smoke else 0]
    n = size["n"]
    if name == "multidepth-512":
        holo = inputs / "holo"
        return Workload(
            (Sim("holo", _simulate(holo, n, THREE_PLANES, "multi-depth", seed)),),
            (Job("em", ("reconstruct-real", "--out", str(outputs / "em"),
                        "--input", str(holo / "hologram.pfm"), *PAD,
                        "--slice-distances", THREE_PLANES, "--iters", str(size["iters"]),
                        "--init", "constant"),
                 {"kind": "em-real", "sim": str(holo), "distances": THREE_PLANES_M}),),
            n,
        )
    if name == "complex-192":
        holo = inputs / "holo"
        return Workload(
            (Sim("holo", _simulate(holo, n, "1mm", "complex", seed)),),
            (Job("em", ("reconstruct-complex", "--out", str(outputs / "em"),
                        "--input", str(holo / "hologram.pfm"), *PAD,
                        "--slice-distances", "1mm", "--iters", str(size["iters"]),
                        "--init", "constant"),
                 {"kind": "em-complex", "sim": str(holo), "distances": (FOCUS_Z_M,)}),),
            n,
        )
    if name == "compare-256":
        holo = inputs / "holo"
        common = ("--input", str(holo / "hologram.pfm"), *PAD,
                  "--slice-distances", THREE_PLANES, "--truth", _truth_list(holo, 3))
        check = {"sim": str(holo), "distances": THREE_PLANES_M}
        return Workload(
            (Sim("holo", _simulate(holo, n, THREE_PLANES, "multi-depth", seed)),),
            (Job("em", ("reconstruct-real", "--out", str(outputs / "em"), *common,
                        "--iters", str(size["iters"]), "--init", "constant"),
                 {"kind": "em-real", **check}),
             Job("baseline", ("baseline", "--out", str(outputs / "baseline"), *common,
                              "--iters", str(size["baseline_iters"])),
                 {"kind": "baseline", **check}, known_defect=BASELINE_DIVERGES)),
            n,
        )
    if name == "autofocus-512":
        step = size["z_step_um"]
        planes = focus_planes(0.5e-3, 1.5e-3, step * 1e-6)
        jobs = []
        sims = []
        for label, noise_seed in (("clean", None), ("noisy", seed)):
            holo = inputs / label
            sims.append(Sim(label, _simulate(holo, n, "1mm", "single", noise_seed)))
            jobs.append(Job(
                f"focus-{label}",
                ("autofocus", "--out", str(outputs / label), "--input", str(holo / "hologram.pfm"),
                 *PAD, "--z-min", "0.5mm", "--z-max", "1.5mm", "--z-step", f"{step}um"),
                {"kind": "autofocus", "z_true": FOCUS_Z_M, "planes": planes},
                known_defect=AUTOFOCUS_MISSES if noise_seed is not None else None,
            ))
        return Workload(tuple(sims), tuple(jobs), n)
    raise KeyError(name)


def judge(job: Job, returncode: int, result: dict | None) -> tuple[str | None, bool]:
    """Why a finished job counts as failed (None when it passed), and whether
    that failure is the known defect the job is expected to show."""
    reason = _failure(job, returncode, result)
    if reason is None:
        return None, False
    if job.known_defect == BASELINE_DIVERGES:
        return reason, reason == "exit code 3"
    if job.known_defect == AUTOFOCUS_MISSES:
        return reason, reason.startswith("focus error")
    return reason, False


def _failure(job: Job, returncode: int, result: dict | None) -> str | None:
    if result is None:
        return f"process exit code {returncode}"
    if result["exit_code"] != 0:
        return f"exit code {result['exit_code']}"
    checks = result.get("checks", {})
    if "missing" in checks:
        return f"missing output: {checks['missing']}"
    if not checks.get("finite"):
        return "non-finite output"
    kind = job.check["kind"]
    if kind == "em-real" and not all(e > b for e, b in zip(checks["ssim"], checks["bp_ssim"])):
        return "EM lost to backpropagation on SSIM"
    if kind == "em-complex" and not all(e > b for e, b in zip(checks["ncc"], checks["bp_ncc"])):
        return "EM lost to backpropagation on NCC"
    if kind == "autofocus" and not checks["focus_err_um"] <= FOCUS_TOLERANCE_UM:
        return f"focus error {checks['focus_err_um']:.1f} um > {FOCUS_TOLERANCE_UM:g} um"
    return None
