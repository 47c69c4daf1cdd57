import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repeaterchain

SUBMODULES = sorted(
    f"repeaterchain.{info.name}" for info in pkgutil.iter_modules(repeaterchain.__path__)
)

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("module_name", ["repeaterchain", *SUBMODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    # Parsed, not run: a demo that imports a removed name fails here in
    # milliseconds instead of when someone next runs it.
    missing = []
    for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repeaterchain":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] != "repeaterchain":
                continue
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)
            ]
    assert not missing, f"{demo.name} imports missing names: {missing}"
