"""Time one benchmark set-up in a fresh interpreter.

Set-up is importing ``repeaterchain`` (through its CLI module, which the
benchmark drives) and generating a workload's inputs from its seed.  Prints
the seconds it took and the reference task's seconds just before and after:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

from reference_task import task_seconds

task_before = task_seconds()
start = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repeaterchain.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), HERE.parent / ".perfbench_runs" / "work")
workload.warmup()
workload.commands()
elapsed = time.perf_counter() - start
print(repr(elapsed), repr(task_before), repr(task_seconds()))
