"""Every name a package exports in ``__all__`` resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["meshsplat.train", "meshsplat.splat", "meshsplat.assets"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
