"""Tests of the benchmark itself, at smoke size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import TARGETS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_autofocus() -> dict:
    return _last_json(_bench("--workload", "autofocus-512", "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--smoke"))


def test_declared_metrics_and_workloads_match_the_code(declared):
    # complex-192 runs but is not declared: its spread is too wide to gate on
    assert [w["name"] for w in declared["workloads"]] == [
        n for n in workloads.NAMES if n != "complex-192"]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit(declared):
    out = _last_json(_bench("--workload", "multidepth-512", "--seed", "1", "--seconds", "1",
                            "--trace", "0", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_with_its_unit(declared, traced_autofocus):
    expected = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: v["unit"] for k, v in traced_autofocus["metrics"].items()} == expected
    layers = {k: v["value"] for k, v in traced_autofocus["metrics"].items()}
    planes = workloads.focus_planes(0.5e-3, 1.5e-3, 50e-6)
    # two sweeps, each a cold process: one transfer build per plane, no hits
    assert layers["propagation.transfer.builds"] == 2 * planes
    assert layers["propagation.transfer.hit_ratio"] == 0
    assert layers["metrics.focus.calls"] == 2 * planes
    assert layers["operators.forward.calls"] == 0


def test_gate_counts_the_noisy_autofocus_sweep_as_failed(traced_autofocus):
    # one untraced and one traced round, two sweeps each; the noisy sweeps miss
    assert traced_autofocus["attempted"] == 4
    assert traced_autofocus["failed"] == 2
    assert traced_autofocus["correct"] is True  # the miss is the known defect


def _job(kind: str, known=None) -> workloads.Job:
    return workloads.Job("j", ("x",), {"kind": kind}, known_defect=known)


def test_gate_separates_known_defects_from_unexpected_failures():
    miss = {"exit_code": 0, "checks": {"finite": True, "focus_err_um": 500.0}}
    hit = {"exit_code": 0, "checks": {"finite": True, "focus_err_um": 0.0}}
    assert workloads.judge(_job("autofocus", workloads.AUTOFOCUS_MISSES), 0, miss)[1] is True
    assert workloads.judge(_job("autofocus"), 0, miss) == ("focus error 500.0 um > 10 um", False)
    assert workloads.judge(_job("autofocus", workloads.AUTOFOCUS_MISSES), 0, hit) == (None, False)

    diverged = {"exit_code": 3, "checks": {"finite": True, "ssim": [0.1], "bp_ssim": [0.0]}}
    assert workloads.judge(_job("baseline", workloads.BASELINE_DIVERGES), 0, diverged) == (
        "exit code 3", True)
    assert workloads.judge(_job("em-real"), 0, diverged) == ("exit code 3", False)

    losing = {"exit_code": 0, "checks": {"finite": True, "ssim": [0.5, 0.1], "bp_ssim": [0.2, 0.2]}}
    assert workloads.judge(_job("em-real"), 0, losing)[0] == "EM lost to backpropagation on SSIM"
    nan = {"exit_code": 0, "checks": {"finite": False}}
    assert workloads.judge(_job("em-complex"), 0, nan)[0] == "non-finite output"
    assert workloads.judge(_job("em-real"), -9, None)[0] == "process exit code -9"


def test_tracer_restores_every_function_and_nests_spans_under_the_solver(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    import holoem.cli

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}
    sim = tmp_path / "sim"
    assert holoem.cli.main(["simulate", "--out", str(sim), "--width", "32", "--height", "32",
                            *workloads.GEOMETRY, "--slice-distances", "0.1mm,0.2mm,0.3mm",
                            "--phantom", "multi-depth", "--noise-seed", "1"]) == 0
    tracer = Tracer("test")
    tracer.install()
    try:
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in originals.items())
        code = holoem.cli.main(["reconstruct-real", "--out", str(tmp_path / "rec"),
                                "--input", str(sim / "hologram.pfm"),
                                "--slice-distances", "0.1mm,0.2mm,0.3mm", "--iters", "2"])
    finally:
        tracer.restore()
    assert code == 0
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items())

    spans = tracer.records()
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    (main_span,) = by_name["cli.main"]
    (solve,) = by_name["em.solve"]
    assert solve["parent"] == main_span["id"]
    # one forward for the start and one per iteration; one adjoint for the
    # backpropagation start and one per iteration
    assert len(by_name["operators.forward"]) == 3
    assert len(by_name["operators.adjoint"]) == 3
    for name in ("operators.forward", "operators.adjoint", "em.tv", "em.nll"):
        for s in by_name[name]:
            assert s["parent"] == solve["id"]
            assert solve["start"] <= s["start"] <= s["end"] <= solve["end"]
    assert all(s["run"] == "test" for s in spans)
    summary = tracer.summary()
    children = sum(summary[n]["ms"] for n in ("operators.forward", "operators.adjoint",
                                               "em.tv", "em.nll"))
    assert summary["em.solve"]["self_ms"] == pytest.approx(summary["em.solve"]["ms"] - children)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "multidepth-512", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
