import ast
import importlib
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repeaterchain
from repeaterchain import cli, sim, solver
from repeaterchain.chain import StateCodes

ROOT = Path(__file__).resolve().parents[1]

SUBMODULES = sorted(
    f"repeaterchain.{info.name}" for info in pkgutil.iter_modules(repeaterchain.__path__)
)

DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # Run from a copy, so a demo that writes next to itself writes under tmp_path.
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_readme_library_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    t_opt, t_swap = map(float, capsys.readouterr().out.split())
    assert f"{t_opt:.4f} {t_swap:.4f}" == "8.3166 9.3469"


def test_readme_names_only_code_that_exists():
    # A backticked dotted name whose head is a package module or a class the
    # package exports must resolve; instances (`policy.unfolded(space)`),
    # files and other libraries' names are not checked.
    modules = {name.rpartition(".")[2]: importlib.import_module(name) for name in SUBMODULES}
    classes = {
        name: obj
        for module in (repeaterchain, *modules.values())
        for name in getattr(module, "__all__", ())
        if isinstance(obj := getattr(module, name), type)
    }
    heads = {"repeaterchain": repeaterchain, **modules, **classes}
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", (ROOT / "README.md").read_text())
    checked, missing = 0, []
    for dotted in spans:
        head, *parts = dotted.split(".")
        if head not in heads:
            continue
        obj = heads[head]
        for part in parts:
            obj = getattr(obj, part, None)
        checked += 1
        if obj is None:
            missing.append(dotted)
    assert checked >= 10 and not missing, f"README.md names missing code: {missing}"


def test_readme_states_value_iterations_check_interval():
    # The README's line breaks fall anywhere in the sentence.
    text = " ".join((ROOT / "README.md").read_text().split())
    stated = re.findall(r"every (\d+) sweeps it evaluates its greedy policy exactly", text)
    assert stated == [str(solver.CHECK_EVERY)]


def test_readme_states_the_limits_of_the_code():
    text = " ".join((ROOT / "README.md").read_text().split())
    assert re.findall(r"chains of more than (\d+) nodes are refused", text) == [str(sim.MAX_NODES)]
    assert re.findall(r"chunks of (\d+) trials", text) == [str(sim.CHUNK)]
    assert [float(gap) for gap in re.findall(r"differ by at most (\S+) relative tie", text)] == [solver.TIE_GAP]
    ((t_cut, n),) = re.findall(r"At t_cut = (\d+), int64 codes hold every chain up to n = (\d+)", text)
    StateCodes(int(n), int(t_cut))
    with pytest.raises(ValueError):
        StateCodes(int(n) + 1, int(t_cut))


def test_console_script_is_cli_main():
    # Read as text: tomllib is not in Python 3.10.
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(re.findall(r'^([\w.-]+)\s*=\s*"([^"]*)"\s*$', section, re.M))
    assert scripts.get("repeaterchain") == "repeaterchain.cli:main"
    module, attr = scripts["repeaterchain"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main and callable(entry)
