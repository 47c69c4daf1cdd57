"""Commands that build no sparse matrix do not import scipy.

Each case runs in a fresh interpreter: this test process has imported
scipy already, through the solver tests and through writing the policy
file below.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repeaterchain
from repeaterchain import cli

SRC = Path(repeaterchain.__file__).resolve().parents[1]

# Runs ``cli.main`` on the JSON argument list (none: import only), then
# prints the scipy modules the interpreter holds.
PROBE = """
import contextlib, io, json, sys
from repeaterchain import cli
args = json.loads(sys.argv[1])
if args is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

CHAIN = ["--n", "4", "--p", "0.9", "--ps", "0.5", "--tcut", "2"]


def scipy_modules(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def simulate(policy):
    return ["simulate", *CHAIN, "--policy", str(policy), "--trials", "200", "--seed", "1", "--out", "."]


@pytest.mark.parametrize(
    "args",
    [
        None,
        ["cutoff", "--fnew", "0.95", "--fmin", "0.8", "--tau", "50", "--n", "4"],
        ["states", "--n", "4", "--tcut", "2"],
        simulate("swap-asap"),
        simulate("modified:2"),
    ],
    ids=["import", "cutoff", "states", "simulate-swap-asap", "simulate-modified"],
)
def test_command_imports_no_scipy(args, tmp_path):
    assert scipy_modules(args, tmp_path) == []


def test_simulating_a_policy_file_imports_no_scipy(tmp_path):
    assert cli.main(["solve", *CHAIN, "--bunch", "--out", str(tmp_path)]) == 0
    assert scipy_modules(simulate(tmp_path / "policy.json"), tmp_path) == []


def test_a_solving_command_imports_scipy(tmp_path):
    # The probe sees scipy where a command builds matrices.
    assert "scipy.sparse.linalg" in scipy_modules(["compare", *CHAIN], tmp_path)
