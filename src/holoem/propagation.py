"""The transfer cache under the name the benchmark reads: ``perfbench/child.py``
imports this module for ``propagation._transfer_array.cache_info()``, and
nothing in holoem imports it. ROADMAP item 5 deletes it."""

from .operators import _transfer_array  # noqa: F401
