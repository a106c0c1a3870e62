"""Every name a holoem module exports through ``__all__`` exists and has a
caller outside its module, the export lists keep a pinned number of names
and the exported callables a pinned number of defaulted parameters, and the
source keeps no dead inputs: no parameter a function never reads, no import
a module never uses. The source also calls BLAS only for SSIM's window
(``metrics._windowed``, matrix products alone) and keeps one cache,
reads ``pad`` in the operator core only to size the transform, takes the
transfer's phase (cos, sin or an exp of an imaginary argument) only in
``propagation._sweep_transfers``, names the image sidecar's keys only in
``holoem.io``, and ``holoem.io`` imports no holoem module but ``holoem.grid``.

A deletion that forgets the export list would otherwise surface only when
a caller runs ``from holoem.<module> import *``. No linter is required: the
source checks walk the source with ``ast``.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holoem
from holoem.cli import RunConfig
from holoem.em import ReconParams
from holoem.forward import Hologram, OpticalConfig
from holoem.grid import RealGrid2D

MODULES = sorted(m.name for m in pkgutil.iter_modules(holoem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"holoem.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"holoem.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"holoem.{name}.__all__ names what the module lacks: {missing}"


def test_defaulted_parameter_count():
    # every settable library value with a default, over the callables in each
    # __all__ but the exception classes (a dataclass counts its fields); a new
    # knob means a reviewed edit here
    defaulted = []
    for name in MODULES:
        module = importlib.import_module(f"holoem.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
                defaulted += [f"{name}.{attr}.{p.name}"
                              for p in inspect.signature(obj).parameters.values()
                              if p.default is not inspect.Parameter.empty]
    assert len(defaulted) == 30, defaulted


def test_exported_name_count():
    # every name over every __all__; a new export means a reviewed edit here
    exported = [f"{name}.{attr}" for name in MODULES
                for attr in getattr(importlib.import_module(f"holoem.{name}"), "__all__", ())]
    assert len(exported) == 40, exported


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# what README's "Library use" documents and nothing else calls
LIBRARY = {"forward.synthesize_linear", "forward.synthesize_full", "operators.propagate"}


def _read_by_other_modules() -> set[str]:
    """Every ``module.name`` a holoem module takes from another one: by
    ``from .module import name`` or by reading ``module.name``."""
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                read |= {f"{module}.{alias.name}" for alias in node.names if module != path.stem}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES and node.value.id != path.stem):
                read.add(f"{node.value.id}.{node.attr}")
    return read


def _read_by_the_benchmark() -> set[str]:
    """The ``module.name`` pairs perfbench/tracing.py's TARGETS wraps and
    perfbench/child.py imports, read with ``ast``."""
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in ast.walk(tracing) if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    read = {f"{module.removeprefix('holoem.')}.{attr}"
            for module, attr, _ in ast.literal_eval(targets)}
    child = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    return read | {f"{node.module.removeprefix('holoem.')}.{alias.name}"
                   for node in ast.walk(child) if isinstance(node, ast.ImportFrom)
                   and (node.module or "").startswith("holoem.") for alias in node.names}


def test_every_export_has_a_caller():
    # __all__ lists what callers use; a helper only its own module calls
    # stays importable by name but leaves the list
    called = _read_by_other_modules() | _read_by_the_benchmark()
    assert not LIBRARY & called, "a called name needs no LIBRARY entry"
    readme = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    assert all(f"`{name.split('.')[1]}" in library_use for name in LIBRARY)
    called |= LIBRARY
    uncalled = [f"{name}.{attr}" for name in MODULES
                for attr in getattr(importlib.import_module(f"holoem.{name}"), "__all__", ())
                if f"{name}.{attr}" not in called]
    assert not uncalled, f"exported names no other module calls: {uncalled}"


def test_records_holding_arrays_compare_by_identity():
    # field-wise == on array fields would raise on the truth value of an array
    cfg = OpticalConfig(675e-9, 1.12e-6, 4, 4, (1e-3,))
    for make in (lambda: Hologram(np.ones((4, 4)), cfg),
                 lambda: RealGrid2D(np.ones((4, 4)), 1e-6, 1e-6),
                 lambda: ReconParams(upper_bound=np.ones((4, 4)))):
        a, b = make(), make()
        assert (a == b) is False and (a == a) is True and a != b


def test_shared_solver_defaults_agree():
    # the CLI's iters and tau keys feed every solver, and take ReconParams' defaults
    em, cfg = ReconParams(), RunConfig()
    assert (cfg.iters, cfg.tau) == (em.max_iters, em.tau)


SOURCES = sorted(Path(holoem.__file__).parent.glob("*.py"))


def _loaded_names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_parameter_is_read():
    unread = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = set().union(*map(_loaded_names, fn.body if isinstance(fn.body, list)
                                     else [fn.body]))
            unread += [f"{path.name}:{fn.lineno} {p.arg}" for p in params if p.arg not in read]
    assert not unread, f"parameters their function never reads: {unread}"


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        lines = text.splitlines()
        used = _loaded_names(tree)
        used |= {n.value.id for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"imported names the module never uses: {unused}"


def _optimized_einsum(call: ast.Call) -> bool:
    """An einsum call that passes ``optimize`` (or keywords it cannot see)."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    return name == "einsum" and any(k.arg in ("optimize", None) for k in call.keywords)


def test_no_blas_reductions():
    # np.linalg, dot, vdot, inner, tensordot, matmul and @ go through BLAS,
    # whose threaded reductions stall for milliseconds a call on a small
    # shared host, and an optimized einsum may hand its contraction to
    # tensordot; the source reduces with single-threaded numpy instead. The
    # one exception is SSIM's window: metrics._windowed may take matrix
    # products (matmul or @), which split no dot product across threads
    blas = ("linalg", "dot", "vdot", "inner", "tensordot", "matmul")
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        window = set()
        if path.stem == "metrics":
            window = {id(n) for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef) and fn.name == "_windowed"
                      for n in ast.walk(fn)}
        for node in ast.walk(tree):
            product = (isinstance(node, ast.Attribute) and node.attr == "matmul"
                       or isinstance(getattr(node, "op", None), ast.MatMult))
            if product and id(node) in window:
                continue
            if (product or isinstance(node, ast.Attribute) and node.attr in blas
                    or isinstance(node, ast.ImportFrom) and (
                        "linalg" in (node.module or "")
                        or any(alias.name in blas for alias in node.names))
                    or isinstance(node, ast.Call) and _optimized_einsum(node)):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"BLAS calls in the source: {calls}"


def test_one_cache():
    # propagation._transfer_array is holoem's only memoized function
    cached = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(n, (ast.Name, ast.Attribute))
                    and getattr(n, "id", getattr(n, "attr", None)) in ("lru_cache", "cache")
                    for d in fn.decorator_list for n in ast.walk(d)):
                cached.append(f"{path.stem}.{fn.name}")
    assert cached == ["propagation._transfer_array"]


def test_pad_only_picks_the_frame():
    # the mean split runs on either frame, so the operator core reads pad
    # only to size the transform: inside _frame or as an argument of a call
    # to it, or passed on to stack_forward, which sizes its frame by _frame
    reads = []
    for path in SOURCES:
        if path.stem not in ("operators", "propagation"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        frame = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_frame":
                frame.update(map(id, ast.walk(node)))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                    "_frame", "stack_forward"):
                frame.update(map(id, node.args + [k.value for k in node.keywords]))
        reads += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and n.id == "pad" and id(n) not in frame]
    assert not reads, f"pad read outside _frame: {reads}"


def test_phase_taken_only_in_the_transfer_build():
    # propagation is relative to the unscattered plane wave, so no plane-wave
    # phase exp(j k0 z) is formed anywhere: cos, sin and np.exp of an
    # expression holding an imaginary literal appear in the transfer build alone
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(n) for fn in ast.walk(tree) if path.stem == "propagation"
                   and isinstance(fn, ast.FunctionDef) and fn.name == "_sweep_transfers"
                   for n in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and getattr(getattr(node.func, "value", None), "id", None) == "np"
                  and (node.func.attr in ("cos", "sin")
                       or node.func.attr == "exp"
                       and any(isinstance(n, ast.Constant) and isinstance(n.value, complex)
                               for arg in node.args for n in ast.walk(arg)))]
    assert not found, f"a phase taken outside propagation._sweep_transfers: {found}"


def test_sidecar_keys_only_in_io():
    # io alone reads and writes an image sidecar's keys
    keys = ("pitch_x", "pgm_min", "pgm_max")
    found = [f"{path.name}:{n.lineno} {n.value}" for path in SOURCES if path.stem != "io"
             for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in keys]
    assert not found, f"sidecar keys outside io: {found}"


def test_io_imports_only_grid():
    # file formats load without the solvers, metrics or propagation
    script = ("import sys, holoem.io; "
              "print(sorted(m for m in sys.modules if m.startswith('holoem')))")
    env = {**os.environ, "PYTHONPATH": str(Path(holoem.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True, timeout=60)
    assert proc.stdout.strip() == str(["holoem", "holoem.grid", "holoem.io"])
