"""The package's public surface: every exported name resolves, once."""

import importlib
import pkgutil

import pytest

import deepesn

SUBMODULES = [
    importlib.import_module(f"deepesn.{name}")
    for _, name, _ in pkgutil.iter_modules(deepesn.__path__)
    if name != "__main__"
]


def test_package_exports_resolve_without_duplicates():
    assert len(deepesn.__all__) == len(set(deepesn.__all__))
    assert [name for name in deepesn.__all__ if not hasattr(deepesn, name)] == []


@pytest.mark.parametrize(
    "module",
    [module for module in SUBMODULES if hasattr(module, "__all__")],
    ids=lambda module: module.__name__,
)
def test_submodule_exports_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
