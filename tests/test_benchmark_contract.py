"""The names the benchmark wraps and reads still exist in holoem.

``perfbench/tracing.py`` replaces functions by the name their callers look
up (``TARGETS``), and ``perfbench/child.py`` reads the transfer cache's
counters. A rename or deletion in holoem would otherwise surface only when
the benchmark runs. This module reads ``perfbench/`` and changes nothing
there.
"""

import importlib
import importlib.util
from pathlib import Path

from holoem import propagation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    missing = [f"{module}.{attr}" for module, attr, _ in _traced_targets()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"names the benchmark traces are gone: {missing}"


def test_transfer_cache_reports_its_counters():
    info = propagation._transfer_array.cache_info()
    assert info.maxsize is not None and info.misses >= 0 and info.hits >= 0
