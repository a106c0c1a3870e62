"""Layer spans recorded from outside the program.

The tracer replaces a function in the namespace of the module that calls
it (``holoem.em.stack_forward`` is the name ``_iterate`` looks up, not
``holoem.operators.stack_forward``) with a wrapper that records one span
per call: name, start, end, parent span and run id. Spans are held in
memory; the caller writes them out when its process ends. ``restore``
puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

# (module, attribute looked up by that module's callers, span name)
TARGETS = (
    ("holoem.cli", "main", "cli.main"),
    ("holoem.cli", "load_image", "io.load"),
    ("holoem.cli", "load_metadata", "io.load"),
    ("holoem.cli", "save_image", "io.save"),
    ("holoem.cli", "write_trace", "io.save"),
    ("holoem.cli", "write_key_values", "io.save"),
    ("holoem.cli", "write_error_record", "io.save"),
    ("holoem.cli", "simulate", "forward.simulate"),
    ("holoem.cli", "multi_depth_stack", "phantoms.build"),
    ("holoem.cli", "single_slice_stack", "phantoms.build"),
    ("holoem.cli", "complex_stack", "phantoms.build"),
    ("holoem.cli", "reconstruct_real", "em.solve"),
    ("holoem.cli", "reconstruct_complex", "em.solve"),
    ("holoem.cli", "baseline_reconstruct", "baseline.solve"),
    ("holoem.cli", "autofocus", "metrics.autofocus"),
    ("holoem.cli", "ssim", "metrics.ssim"),
    ("holoem.em", "stack_forward", "operators.forward"),
    ("holoem.em", "stack_adjoint", "operators.adjoint"),
    ("holoem.em", "_tv_gradient_array", "em.tv"),
    ("holoem.em", "tv_value", "em.tv"),
    # the log term of the Poisson NLL; the sum around it stays in em self time
    ("holoem.em", "xlogy", "em.nll"),
    # trace SSIM for both solvers: baseline calls em's _trace_ssim
    ("holoem.em", "_ssim", "metrics.ssim"),
    ("holoem.baseline", "stack_forward", "operators.forward"),
    ("holoem.baseline", "stack_adjoint", "operators.adjoint"),
    ("holoem.baseline", "estimate_step_size", "baseline.step_size"),
    ("holoem.baseline", "_tv_gradient_array", "em.tv"),
    ("holoem.baseline", "tv_value", "em.tv"),
    ("holoem.metrics", "focus_metric", "metrics.focus"),
    ("holoem.metrics", "_propagate_array", "propagation.propagate"),
)


def _written_bytes(result) -> int:
    """Size of the file(s) an io writer returned: a path, a list of paths or None."""
    if result is None:
        return 0
    paths = result if isinstance(result, (list, tuple)) else [result]
    return sum(os.stat(p).st_size for p in paths)


class Tracer:
    """Wraps functions by name, records a span per call, and restores them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.bytes_written = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        count_bytes = name == "io.save"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter()
            if count_bytes:
                self.bytes_written += _written_bytes(result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name in targets:
            self.wrap(importlib.import_module(module_name), attr, name)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def records(self) -> list[dict]:
        """Spans as dicts; times in seconds from the process's perf_counter."""
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (total minus direct children)."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[i]) * 1e3
        return out


def write_spans(path: Path, records: list[dict]) -> None:
    """Append span records to a JSON-lines file."""
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
