"""holoem benchmark: end-to-end and per-layer metrics of the CLI workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload multidepth-512 --seed 1 --seconds 12 --trace 0

A run first times three set-up passes (the workload's ``holoem simulate``
processes), then repeats rounds for about ``--seconds``. A round runs each
CLI job in a fresh process through ``holoem.cli.main``, one process at a
time, and times a fixed reference kernel around the jobs. With
``--trace 0`` it prints the end-to-end metrics (medians over rounds);
with ``--trace 1`` it alternates untraced and traced rounds and prints
the per-layer metrics of the traced ones, with the tracing overhead.
Every job's outputs are checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (environment, every round, every failure) goes to
``perfbench/.work/results``. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
CHILD_TIMEOUT_S = 90
SETUP_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("solve_ref", "ref"),
    ("iters_per_ref", "1/ref"),
    ("peak_rss_mib", "MiB"),
)
# printed and recorded beside them; too unsteady on a shared host to gate on
RAW_TIMES = (
    ("solve_s", "s"),
    ("iters_per_s", "1/s"),
)
PER_LAYER = (
    ("operators.forward.calls", "count"),
    ("operators.forward.ms", "ms"),
    ("operators.adjoint.calls", "count"),
    ("operators.adjoint.ms", "ms"),
    ("propagation.transfer.builds", "count"),
    ("propagation.transfer.hits", "count"),
    ("propagation.transfer.hit_ratio", "ratio"),
    ("propagation.propagate.calls", "count"),
    ("propagation.propagate.ms", "ms"),
    ("em.solve.ms", "ms"),
    ("em.self.ms", "ms"),
    ("em.iterations", "count"),
    ("em.step_halvings", "count"),
    ("em.tv.ms", "ms"),
    ("em.nll.ms", "ms"),
    ("metrics.ssim.calls", "count"),
    ("metrics.ssim.ms", "ms"),
    ("metrics.focus.calls", "count"),
    ("metrics.focus.ms", "ms"),
    ("baseline.solve.ms", "ms"),
    ("baseline.self.ms", "ms"),
    ("baseline.iterations", "count"),
    ("baseline.step_size.ms", "ms"),
    ("io.load.ms", "ms"),
    ("io.save.ms", "ms"),
    ("io.bytes_written", "bytes"),
    ("cli.self.ms", "ms"),
    ("forward.simulate.ms", "ms"),
    ("phantoms.build.ms", "ms"),
    ("tracing.overhead.ms", "ms"),
    ("tracing.overhead.pct", "%"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing program, set-up failed)."""


class Run:
    """One benchmark invocation: its directories, its processes and its rounds."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        stamp = time.strftime("%Y%m%dT%H%M%S")
        self.dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
        self.results = WORK / "results"
        self.record = self.results / f"{stamp}-{workload}-seed{seed}-{os.getpid()}"
        self.spawned = 0

    def build(self, index: int) -> workloads.Workload:
        return workloads.build(self.workload, self.seed, self.dir / "inputs",
                               self.dir / f"round{index}", self.smoke)

    def spawn(self, argv, *, trace=False, check=None, import_only=False, run_id=""):
        """Run child.py in a fresh process; returns (exit code, wall s, result or None)."""
        self.spawned += 1
        spec_path = self.dir / f"spec{self.spawned}.json"
        result_path = self.dir / f"result{self.spawned}.json"
        spec = {"src": str(SRC), "argv": list(argv), "trace": trace, "check": check,
                "import_only": import_only, "run_id": run_id, "result": str(result_path),
                "spans": str(self.record) + ".spans.jsonl"}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        with open(self.dir / f"log{self.spawned}.txt", "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                  stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - start
        result = None
        if proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        return proc.returncode, wall, result

    def simulate(self, trace=False) -> list[dict]:
        """One set-up pass: every ``holoem simulate`` process of the workload."""
        sims = []
        for sim in self.build(0).sims:
            code, wall, result = self.spawn(sim.argv, trace=trace,
                                            run_id=f"{self.workload}-seed{self.seed}-{sim.name}")
            if result is None or result["exit_code"] != 0:
                raise BenchError(f"simulate {sim.name} failed (process exit code {code}); "
                                 f"see {self.dir}")
            sims.append({"name": sim.name, "wall_s": wall, **result})
        return sims

    def round(self, index: int, traced: bool) -> dict:
        """Each job of the workload once, in a fresh process, on the simulated
        inputs; the reference kernel is timed before the first job and after each."""
        run_id = f"{self.workload}-seed{self.seed}-round{index}"
        wl = self.build(index)
        reference = reference_s(wl.size)
        start = time.perf_counter()
        jobs = []
        for job in wl.jobs:
            code, _, result = self.spawn(job.argv, trace=traced, check=job.check,
                                         run_id=f"{run_id}-{job.name}")
            reference += reference_s(wl.size)
            reason, known = workloads.judge(job, code, result)
            jobs.append({"name": job.name, "kind": job.check["kind"], "returncode": code,
                         "result": result, "failure": reason, "known_defect": known})
        shutil.rmtree(self.dir / f"round{index}", ignore_errors=True)
        return {"index": index, "traced": traced, "jobs": jobs,
                "wall_s": time.perf_counter() - start, "reference_s": reference}

    def import_s(self) -> float:
        """Import time of a fresh process that stops before the job."""
        code, _, result = self.spawn((), import_only=True)
        if result is None:
            raise BenchError(f"import-only process failed (exit code {code})")
        return result["import_s"]


def reference_s(n: int, min_s: float = 0.3) -> list[float]:
    """Seconds of each repetition of a fixed kernel shaped like one solver
    iteration on an n x n image: a padded 2n x 2n complex FFT round trip with
    a transfer-like product, a ratio residual and a TV-like gradient. It
    repeats for at least ``min_s``.

    It runs the same numpy/scipy code on every commit, so dividing a solve
    time by it takes out the speed of the host, which drifts by tens of
    percent within minutes on a shared machine. Its mix of FFT and
    elementwise work makes it drift as the solvers do at every size.
    """
    import numpy as np
    import scipy.fft as sfft

    rng = np.random.default_rng(0)
    x = 1.0 + 0.01 * rng.standard_normal((n, n))
    h = np.exp(2j * np.pi * rng.uniform(size=(2 * n, 2 * n)))
    inner = slice(n // 2, n // 2 + n)
    times: list[float] = []
    while sum(times) < min_s:
        start = time.perf_counter()
        frame = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        frame[inner, inner] = x - x.mean()
        y = sfft.ifft2(sfft.fft2(frame) * h)[inner, inner].real
        residual = 1.0 - x / np.maximum(y + 1.0, 1e-12)
        dx = np.zeros_like(x)
        dy = np.zeros_like(x)
        dx[:, :-1] = x[:, 1:] - x[:, :-1]
        dy[:-1, :] = x[1:, :] - x[:-1, :]
        x = x - np.abs(x) * 1e-6 * (residual + dx / np.sqrt(dx * dx + dy * dy + 1e-8))
        times.append(time.perf_counter() - start)
    return times


def timed(rnd: dict, reference: float) -> dict | None:
    """Times, iterations and peak RSS of a round whose jobs all reported;
    ``reference`` is the run's median reference-kernel time."""
    results = [j["result"] for j in rnd["jobs"]]
    if any(r is None for r in results):
        return None
    solve = sum(r["solve_s"] for r in results)
    solve_ref = solve / reference
    iterations = sum(r.get("checks", {}).get("iterations", 0) for r in results)
    return {"solve_s": solve, "iterations": iterations,
            "iters_per_s": iterations / solve,
            "solve_ref": solve_ref, "iters_per_ref": iterations / solve_ref,
            "peak_rss_mib": max(r["peak_rss_mib"] for r in results)}


def layer_metrics(sims: list[dict], rnd: dict) -> dict[str, float]:
    """Per-layer figures of a traced set-up pass and a traced round, summed
    over their processes.

    Spans come from every process (simulate and jobs); the transfer-cache
    counters come from the job processes only.
    """
    procs = sims + [j["result"] for j in rnd["jobs"] if j["result"]]
    agg: dict[str, dict[str, float]] = {}
    for proc in procs:
        for name, row in proc.get("layers", {}).items():
            acc = agg.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for key in acc:
                acc[key] += row[key]

    def span(name, key="ms"):
        value = agg.get(name, {}).get(key, 0.0)
        return int(value) if key == "calls" else value

    jobs = [j for j in rnd["jobs"] if j["result"]]

    def iterations(kinds):
        return sum(j["result"].get("checks", {}).get("iterations", 0)
                   for j in jobs if j["kind"] in kinds)

    builds = sum(j["result"]["transfer"]["builds"] for j in jobs)
    hits = sum(j["result"]["transfer"]["hits"] for j in jobs)
    return {
        "operators.forward.calls": span("operators.forward", "calls"),
        "operators.forward.ms": span("operators.forward"),
        "operators.adjoint.calls": span("operators.adjoint", "calls"),
        "operators.adjoint.ms": span("operators.adjoint"),
        "propagation.transfer.builds": builds,
        "propagation.transfer.hits": hits,
        "propagation.transfer.hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
        "propagation.propagate.calls": span("propagation.propagate", "calls"),
        "propagation.propagate.ms": span("propagation.propagate"),
        "em.solve.ms": span("em.solve"),
        "em.self.ms": span("em.solve", "self_ms"),
        "em.iterations": iterations(("em-real", "em-complex")),
        "em.step_halvings": sum(j["result"]["step_halvings"] for j in jobs),
        "em.tv.ms": span("em.tv"),
        "em.nll.ms": span("em.nll"),
        "metrics.ssim.calls": span("metrics.ssim", "calls"),
        "metrics.ssim.ms": span("metrics.ssim"),
        "metrics.focus.calls": span("metrics.focus", "calls"),
        "metrics.focus.ms": span("metrics.focus"),
        "baseline.solve.ms": span("baseline.solve"),
        "baseline.self.ms": span("baseline.solve", "self_ms"),
        "baseline.iterations": iterations(("baseline",)),
        "baseline.step_size.ms": span("baseline.step_size"),
        "io.load.ms": span("io.load"),
        "io.save.ms": span("io.save"),
        "io.bytes_written": sum(p.get("bytes_written", 0) for p in procs),
        "cli.self.ms": span("cli.main", "self_ms"),
        "forward.simulate.ms": span("forward.simulate"),
        "phantoms.build.ms": span("phantoms.build"),
    }


def quality(rounds: list[dict]) -> dict[str, float]:
    """Worst output scores over all rounds, computed after timing."""
    scores: dict[str, list[float]] = {}
    for rnd in rounds:
        for job in rnd["jobs"]:
            checks = (job["result"] or {}).get("checks", {})
            if "ssim" in checks:
                key = "baseline_ssim_min" if job["kind"] == "baseline" else "ssim_min"
                scores.setdefault(key, []).extend(checks["ssim"])
                scores.setdefault("backprop_ssim_max", []).extend(checks["bp_ssim"])
            if "ncc" in checks:
                scores.setdefault("ncc_min", []).extend(checks["ncc"])
                scores.setdefault("backprop_ncc_max", []).extend(checks["bp_ncc"])
            if "focus_err_um" in checks:
                scores.setdefault("focus_err_um", []).append(checks["focus_err_um"])
    return {k: (max(v) if k.endswith("_max") or k == "focus_err_um" else min(v))
            for k, v in scores.items()}


def _lscpu() -> dict[str, str]:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def environment(seed: int, versions: dict) -> dict:
    """What the numbers depend on: versions, thread settings, CPU, commit, seed."""
    cpu = _lscpu()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() or None
    return {
        **versions,
        "threads": {k: os.environ.get(k) for k in
                    ("HOLOEM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "job_processes_at_once": 1,
    }


def measure(run: Run, seconds: float, trace: bool) -> list[dict]:
    """Rounds for about ``seconds``: another starts while it would end less
    than half a round past them. With tracing, untraced and traced rounds
    alternate and at least one of each runs."""
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run.round(len(rounds), traced))
        elapsed = time.perf_counter() - start
        if trace and len(rounds) < 2:
            continue
        if elapsed + rounds[-1]["wall_s"] / 2 > seconds:
            return rounds


def median(values):
    return statistics.median(values) if values else float("nan")


def report(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    run = Run(workload, seed, smoke)
    run.dir.mkdir(parents=True, exist_ok=True)
    run.results.mkdir(parents=True, exist_ok=True)
    try:
        # set-up is simulate plus the first job process's imports: the wait
        # before the first solve starts
        passes = [run.simulate(trace)] if trace else [run.simulate() for _ in range(SETUP_SAMPLES)]
        rounds = measure(run, seconds, trace)
        imports = [r["jobs"][0]["result"]["import_s"] for r in rounds if r["jobs"][0]["result"]]
        while len(imports) < len(passes):
            imports.append(run.import_s())
        setups = [sum(s["wall_s"] for s in sims) + imp for sims, imp in zip(passes, imports)]
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    # one reference for the run: the median repetition of the kernel timed
    # before and after every job, which a disturbed moment cannot move
    reference = median([x for r in rounds for x in r["reference_s"]])
    plain = [t for r in rounds if not r["traced"] and (t := timed(r, reference))]
    if not plain:
        raise BenchError("no round completed all its jobs")
    metrics = {
        "setup_s": median(setups),
        "solve_s": median([t["solve_s"] for t in plain]),
        "iters_per_s": median([t["iters_per_s"] for t in plain]),
        "solve_ref": median([t["solve_ref"] for t in plain]),
        "iters_per_ref": median([t["iters_per_ref"] for t in plain]),
        "peak_rss_mib": median([t["peak_rss_mib"] for t in plain]),
    }
    layers = {}
    if trace:
        traced = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(passes[0], r) for r in traced]
        layers = {k: median([m[k] for m in per_round]) for k in per_round[0]}
        traced_solve = median([t["solve_s"] for r in traced if (t := timed(r, reference))])
        overhead = traced_solve - metrics["solve_s"]
        layers["tracing.overhead.ms"] = overhead * 1e3
        layers["tracing.overhead.pct"] = 100.0 * overhead / metrics["solve_s"]

    jobs = [j for r in rounds for j in r["jobs"]]
    failures = [j for j in jobs if j["failure"]]
    versions = next(j["result"]["versions"] for j in jobs if j["result"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": environment(seed, versions),
        "metrics": metrics, "layers": layers, "quality": quality(rounds),
        "setup_samples": setups,
        "reference_s": reference,
        "attempted": len(jobs),
        "failures": [{"round": r["index"], "job": j["name"], "reason": j["failure"],
                      "known_defect": j["known_defect"]}
                     for r in rounds for j in r["jobs"] if j["failure"]],
        "correct": all(j["known_defect"] for j in failures),
        "rounds": rounds,
        "record": str(run.record) + ".json",
    }


def print_report(rec: dict) -> None:
    print(f"perfbench {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
          f"rounds={len(rec['rounds'])} setup_samples={len(rec['setup_samples'])}")
    print("environment " + json.dumps(rec["environment"]))
    for rnd in rec["rounds"]:
        t = timed(rnd, rec["reference_s"])
        timing = (f"solve {t['solve_s']:.3f} s, {t['iterations']} iterations, "
                  f"peak {t['peak_rss_mib']:.0f} MiB" if t else "incomplete")
        print(f"round {rnd['index']}{' traced' if rnd['traced'] else ''}: {timing}")
    for name, value in rec["quality"].items():
        print(f"quality {name} {value:.4f}")
    for f in rec["failures"]:
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"failed round {f['round']} {f['job']}: {f['reason']} ({tag})")
    print(f"failed_fraction {len(rec['failures'])}/{rec['attempted']} = "
          f"{len(rec['failures']) / rec['attempted']:.4f}")
    units = dict(END_TO_END + RAW_TIMES + PER_LAYER)
    for name, value in {**rec["metrics"], **rec["layers"]}.items():
        print(f"metric {name} {value} {units[name]}")
    print(f"record {rec['record']}")


def result_line(rec: dict) -> str:
    names = PER_LAYER if rec["trace"] else END_TO_END
    values = {**rec["metrics"], **rec["layers"]}
    return json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": len(rec["failures"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "holoem" / "cli.py").is_file():
        print(f"perfbench: no holoem sources under {SRC}", file=sys.stderr)
        return 2
    try:
        rec = report(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    Path(rec["record"]).write_text(json.dumps(rec, indent=1), encoding="utf-8")
    print_report(rec)
    print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
