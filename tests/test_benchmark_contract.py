"""The names the benchmark wraps and reads, and the command lines it runs,
still work in holoem.

``perfbench/tracing.py`` replaces functions by the name their callers look
up (``TARGETS``), ``perfbench/child.py`` reads the transfer cache's
counters and checks each job's outputs through holoem's own readers and
operators, and ``perfbench/workloads.py`` builds each job's argv. A rename,
deletion or change of return type in holoem, or a retired flag value, would
otherwise surface only when the benchmark runs. This module reads
``perfbench/`` and changes nothing there.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from holoem import metrics, operators, propagation
from holoem.baseline import baseline_reconstruct
from holoem.cli import RunConfig, _build_parser
from holoem.em import ReconParams, reconstruct_real
from holoem.forward import OpticalConfig, simulate
from holoem.grid import RealGrid2D
from holoem.io import load_image, load_metadata, save_image
from holoem.metrics import ncc, ssim
from holoem.operators import stack_adjoint
from holoem.phantoms import single_slice_stack

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"


def _perfbench(name: str):
    """perfbench's module ``name``, loaded from its file (and registered, as
    its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = [f"{module}.{attr}" for module, attr, _ in _perfbench("tracing").TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"names the benchmark traces are gone: {missing}"


def test_every_scored_autofocus_plane_is_a_traced_propagation():
    # both stages of the sweep propagate through the name the tracer wraps,
    # so its propagate span counts every plane the focus span scores
    cfg = OpticalConfig(675e-9, 1e-6, 128, 128, (1.0e-3,))
    hologram = simulate(single_slice_stack(cfg, contrast=0.04), cfg)
    tracer = _perfbench("tracing").Tracer("contract")
    tracer.install()
    try:
        metrics.autofocus(hologram, 0.5e-3, 1.5e-3, 15.625e-6)
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["metrics.focus"]["calls"] > 0
    assert summary["propagation.propagate"]["calls"] == summary["metrics.focus"]["calls"]


@pytest.mark.parametrize("solve,params", [(reconstruct_real, ReconParams(max_iters=3)),
                                          (baseline_reconstruct, ReconParams(max_iters=3))],
                         ids=["em", "baseline"])
def test_every_tv_pass_is_a_traced_em_tv_span(solve, params):
    # the loop takes every solver's TV pass by the name the tracer wraps, so
    # em.tv counts one pass per iterate and one at the start
    cfg = OpticalConfig(675e-9, 1e-6, 32, 32, (1.0e-3,))
    hologram = simulate(single_slice_stack(cfg, contrast=0.04), cfg)
    tracer = _perfbench("tracing").Tracer("contract")
    tracer.install()
    try:
        _, trace = solve(hologram, params)
    finally:
        tracer.restore()
    assert len(trace) == 3
    assert tracer.summary()["em.tv"]["calls"] == len(trace) + 1


def test_transfer_cache_reports_its_counters():
    # the counters child.py reads through ``propagation`` are the operator core's one cache
    assert propagation._transfer_array is operators._transfer_array
    info = propagation._transfer_array.cache_info()
    assert info.maxsize is not None and info.misses >= 0 and info.hits >= 0


def _holoem_imports(path: Path) -> list[tuple[str, str]]:
    """Every (module, name) that ``from holoem... import name`` reads in a file."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("holoem")
            for alias in node.names]


def test_every_name_the_output_check_imports_resolves():
    imports = _holoem_imports(CHILD)
    assert {"load_image", "load_key_values", "load_metadata", "HoloIOError", "ncc", "ssim",
            "stack_adjoint"} <= {name for _, name in imports}
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)
               and importlib.util.find_spec(f"{module}.{name}") is None]
    assert not missing, f"names the benchmark's output check imports are gone: {missing}"


def test_output_check_reads_a_saved_image_and_back_propagates_it(tmp_path):
    # as child.check_outputs reads a simulated hologram: load_image's .data,
    # .pitch_x and .pitch_y after a save_image round trip, then stack_adjoint
    # with those, the sidecar wavelength and the distances, by position
    path = tmp_path / "hologram.pfm"
    save_image(path, RealGrid2D(np.linspace(0.5, 1.5, 48).reshape(8, 6), 1.1e-6, 1.3e-6),
               wavelength=675e-9)
    holo = load_image(path)
    assert holo.data.shape == (8, 6) and (holo.pitch_x, holo.pitch_y) == (1.1e-6, 1.3e-6)
    wavelength = float(load_metadata(path)["wavelength"])
    distances = (1e-3, 2e-3)
    bp = stack_adjoint(holo.data, holo.pitch_x, holo.pitch_y, wavelength, distances)
    expected = stack_adjoint(residual=holo.data, pitch_x=holo.pitch_x, pitch_y=holo.pitch_y,
                             wavelength=wavelength, distances=distances)
    assert bp.shape == (2, 8, 6) and np.iscomplexobj(bp)
    np.testing.assert_array_equal(bp, expected)
    image = np.outer(np.arange(16.0), np.ones(16))
    assert ncc(image, image) == 1.0 and ssim(image, image, peak=1.0) == 1.0


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_every_benchmark_command_line_resolves(tmp_path, smoke):
    # every simulate and job argv the workloads build parses and resolves as
    # cli.run resolves flags, so retiring a value the benchmark passes fails here
    workloads = _perfbench("workloads")
    parser = _build_parser()
    argvs = [step.argv for name in workloads.NAMES
             for wl in [workloads.build(name, 1, tmp_path / "in", tmp_path / "out", smoke)]
             for step in wl.sims + wl.jobs]
    assert {argv[0] for argv in argvs} == {"simulate", "reconstruct-real",
                                           "reconstruct-complex", "baseline", "autofocus"}
    for argv in argvs:
        args = parser.parse_args(list(argv))
        cfg = RunConfig(mode=args.mode)
        cfg.update({key[len("key_"):]: value for key, value in vars(args).items()
                    if key.startswith("key_") and value is not None}, where=" ".join(argv))
