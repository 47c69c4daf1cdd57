import importlib
import pkgutil

import pytest

import repeaterchain

SUBMODULES = sorted(
    f"repeaterchain.{info.name}" for info in pkgutil.iter_modules(repeaterchain.__path__)
)


@pytest.mark.parametrize("module_name", ["repeaterchain", *SUBMODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
