"""Every name a holoem module exports through ``__all__`` exists.

A deletion that forgets the export list would otherwise surface only when
a caller runs ``from holoem.<module> import *``.
"""

import importlib
import pkgutil

import pytest

import holoem

MODULES = sorted(m.name for m in pkgutil.iter_modules(holoem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"holoem.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"holoem.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"holoem.{name}.__all__ names what the module lacks: {missing}"
