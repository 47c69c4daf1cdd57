"""The wall times that ``solve`` and ``sweep`` print hold no import of scipy.

scipy is imported at the first matrix build, so a clock started before it
would time the import: about 0.2 s, against a few milliseconds for a
small solve.  Each command runs in a fresh interpreter, as this test
process has imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repeaterchain

SRC = Path(repeaterchain.__file__).resolve().parents[1]

# Runs ``cli.main`` on the JSON argument list with ``cli.time`` swapped for a
# clock that notes, at each read, whether scipy's solver modules are loaded;
# then prints the notes.
PROBE = """
import contextlib, io, json, sys, time, types
from repeaterchain import cli
loaded = []

def perf_counter():
    loaded.append("scipy.sparse.linalg" in sys.modules)
    return time.perf_counter()

cli.time = types.SimpleNamespace(perf_counter=perf_counter)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps(loaded))
"""

CHAIN = ["--n", "4", "--ps", "0.5", "--tcut", "2"]


@pytest.mark.parametrize(
    "args, reads",
    [
        (["solve", *CHAIN, "--p", "0.5", "--out", "."], 2),
        (["sweep", *CHAIN, "--p", "0.5,0.9", "--out", "sweep.csv"], 4),
    ],
    ids=["solve", "sweep"],
)
def test_scipy_is_loaded_at_every_clock_read(args, reads, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [True] * reads
