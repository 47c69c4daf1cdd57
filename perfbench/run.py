"""Benchmark of the repeaterchain package, end to end and per layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 36 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Workloads (see ``workloads.py``): ``ladder``, ``sweep_vi``, ``simulate``.
One process, one worker; every command goes through ``repeaterchain.cli``.

``--trace 0`` repeats passes of the workload's commands for ``--seconds``
and reports the end-to-end metrics.  Times are in reference seconds (see
``reference_task.py``): each command's time is scaled by the speed of a
fixed pure-Python task timed just before and after it, so a machine that
runs slower for a while does not read as a slower program.  ``--trace 1`` runs each command of one pass
untraced and again with spans and counters around each layer's entry points,
then the workload's memory probe with tracemalloc, and reports the per-layer
metrics (see ``tracing.py``); it takes about three passes whatever
``--seconds`` says.  Every output is checked; the last line of standard
output is the result as JSON.  A report with every metric, its unit and its
sample statistics goes to standard error, and a record with the spans to
``.perfbench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 5
# Every command is timed at least this many times a run.
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60

# name -> unit.  Measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit.  The per-layer metrics a traced run prints as its result:
# counts and sizes, peak memory, and the times that every workload exercises.
# The full per-layer table, with every entry point, goes to the report.
PER_LAYER = {
    "statespace.enumerate_s": "s",
    "statespace.enumerate_calls": "count",
    "statespace.partition_calls": "count",
    "statespace.boundary_states": "count",
    "statespace.intermediate_states": "count",
    "statespace.peak_mb": "MB",
    "mdp.build_s": "s",
    "mdp.phase_a_matrix_s": "s",
    "mdp.choice_table_s": "s",
    "mdp.self_s": "s",
    "mdp.build_calls": "count",
    "mdp.bunch_calls": "count",
    "mdp.choice_rows": "count",
    "mdp.nnz": "count",
    "mdp.peak_mb": "MB",
    "solver.evaluate_s": "s",
    "solver.self_s": "s",
    "solver.evaluate_calls": "count",
    "solver.pi_rounds": "count",
    "solver.vi_sweeps": "count",
    "solver.peak_mb": "MB",
    "sim.trials": "count",
    "sim.slots": "count",
    "sim.rng_constructions": "count",
    "sim.peak_mb": "MB",
    "chain.swap_outcomes_calls": "count",
    "chain.state_constructions": "count",
    "cli.self_s": "s",
    "cli.peak_mb": "MB",
    "trace.overhead_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="ladder, sweep_vi, simulate, or all in turn")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    return parser.parse_args(argv)


# -- statistics ---------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return None


def describe(samples: list[float]) -> dict:
    tail = tail_percentile(samples)
    return {
        "count": len(samples),
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "tail_percentile": None if tail is None else {"q": tail[0], "value": tail[1]},
        "samples": samples,
    }


# -- running ------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(seconds, reference seconds) to import the package and generate inputs,
    each in a fresh interpreter."""
    from reference_task import scale

    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        seconds, task_before, task_after = map(float, done.stdout.split()[-3:])
        raw.append(seconds)
        scaled.append(scale(seconds, task_before, task_after))
    return raw, scaled


def run_pass(commands, outcome, tracer=None) -> list[float]:
    """Seconds spent in the CLI by each command; outputs are checked.

    With a tracer, it is installed around each command only.
    """
    from workloads import run_cli

    gc.collect()
    times = []
    for command in commands:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(command.argv)
        finally:
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
        command.check(code, out, err, outcome)
    return times


def measure_untraced(workload, outcome, seconds: float) -> tuple[dict, dict]:
    """At least MIN_PASSES passes, then more while one more, as slow as the
    slowest so far, would end by the deadline.

    The reference task runs between commands; each command's time is scaled
    by the mean of the task times just before and after it.  ``wall_s`` is
    the sum over the commands of each one's median scaled time.
    """
    from reference_task import scale, task_seconds

    commands = workload.commands()
    raw: list[list[float]] = [[] for _ in commands]
    scaled: list[list[float]] = [[] for _ in commands]
    tasks = [task_seconds()]
    passes: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        for index, command in enumerate(commands):
            elapsed = run_pass([command], outcome)[0]
            tasks.append(task_seconds())
            raw[index].append(elapsed)
            scaled[index].append(scale(elapsed, tasks[-2], tasks[-1]))
        passes.append(sum(times[-1] for times in raw))
        if len(passes) >= MIN_PASSES and time.perf_counter() + max(passes) > deadline:
            break
    wall_s = sum(statistics.median(times) for times in scaled)
    items = sum(command.items for command in commands)
    metrics = {
        "wall_s": wall_s,
        "items_per_s": items / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "pass_seconds": describe(passes),
        "reference_task_seconds": describe(tasks),
        **{f"command[{c.label}]_s": describe(times) for c, times in zip(commands, scaled)},
        **{f"command[{c.label}]_seconds": describe(times) for c, times in zip(commands, raw)},
    }
    return metrics, {"samples": record, "items_per_pass": items}


def layer_table(timing, memory, untraced_s: float, traced_s: float, memory_s: float) -> dict:
    """Every per-layer metric of a traced run: name -> value (units from unit_of)."""
    from tracing import COUNT_NAMES, SPAN_POINTS

    spans = timing.span_totals()
    peaks = memory.span_totals()
    table: dict[str, float] = {}
    for stem in dict.fromkeys(stem for stem, _, _ in SPAN_POINTS):
        entry = spans.get(stem, {})
        table[f"{stem}_s"] = entry.get("self_s", 0.0)
        table[f"{stem}_calls"] = entry.get("calls", 0)
    for layer in dict.fromkeys(stem.split(".")[0] for stem, _, _ in SPAN_POINTS):
        stems = [stem for stem in spans if stem.split(".")[0] == layer]
        table[f"{layer}.self_s"] = sum(spans[stem]["self_s"] for stem in stems)
        table[f"{layer}.peak_mb"] = max(
            (peaks[stem]["peak_mb"] for stem in peaks if stem.split(".")[0] == layer), default=0.0
        )
    table.update((name, timing.counts[name]) for name in COUNT_NAMES)

    def per(time_name: str, count_name: str) -> float:
        return 1e6 * table[time_name] / table[count_name] if table[count_name] else 0.0

    table["solver.us_per_vi_sweep"] = per("solver.vi_s", "solver.vi_sweeps")
    table["sim.us_per_trial"] = per("sim.estimate_s", "sim.trials")
    table["sim.us_per_slot"] = per("sim.estimate_s", "sim.slots")
    table["trace.untraced_wall_s"] = untraced_s
    table["trace.traced_wall_s"] = traced_s
    table["trace.memory_probe_s"] = memory_s
    table["trace.overhead_s"] = traced_s - untraced_s
    table["trace.spans"] = len(timing.spans)
    return table


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER:
        return PER_LAYER[name]
    if ".us_per_" in name:
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "count"


def measure_traced(workload, outcome) -> tuple[dict, dict]:
    """Each command of a pass untraced and span-traced, in alternating order,
    then the workload's memory probe under tracemalloc."""
    from tracing import Tracer

    timing, memory = Tracer(), Tracer(memory=True)
    untraced_s = traced_s = 0.0
    for index, command in enumerate(workload.commands()):
        if index % 2:
            traced_s += run_pass([command], outcome, timing)[0]
        untraced_s += run_pass([command], outcome)[0]
        if not index % 2:
            traced_s += run_pass([command], outcome, timing)[0]
    memory_s = sum(run_pass(workload.memory_probe(), outcome, memory))
    table = layer_table(timing, memory, untraced_s, traced_s, memory_s)
    record = {
        "layers": table,
        "absent": sorted(set(timing.absent)),
        "spans": [span.as_dict() for span in timing.spans],
    }
    return {name: table[name] for name in PER_LAYER}, record


def report(metrics: dict, record: dict, outcome, workload_name: str) -> None:
    """Human-readable table on standard error."""
    err = sys.stderr
    print(f"# workload {workload_name}: {outcome.attempted} checks, {outcome.failed} failed", file=err)
    for problem in outcome.problems:
        print(f"#   FAILED {problem}", file=err)
    rows = record.get("layers", metrics)
    for name, value in rows.items():
        print(f"{name:34s} {value:>16.6g} {unit_of(name)}", file=err)
    for name, stats in record.get("samples", {}).items():
        tail = stats["tail_percentile"]
        tail_text = "none (fewer than 11 samples)" if tail is None else f"p{tail['q']} {tail['value']:.6g}"
        print(
            f"# {name}: median {stats['median']:.6g} of {stats['count']} samples, "
            f"min {stats['min']:.6g}, max {stats['max']:.6g}, tail {tail_text}",
            file=err,
        )
    if record.get("absent"):
        print(f"# absent entry points: {', '.join(record['absent'])}", file=err)
    print(f"# failed_frac {outcome.failed / max(outcome.attempted, 1):.6g}", file=err)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repeaterchain" / "__init__.py").is_file():
        print(f"error: no repeaterchain sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Outcome

    if args.workload == "all":
        # One fresh process per workload, so peak memory stays per workload.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_raw, setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import repeaterchain

    if Path(repeaterchain.__file__).resolve().parent != (SRC / "repeaterchain").resolve():
        print(f"error: imported repeaterchain from {repeaterchain.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, RUNS_DIR / "work")
    outcome = Outcome()
    run_pass(workload.warmup(), outcome)
    if args.trace:
        metrics, record = measure_traced(workload, outcome)
        units = PER_LAYER
    else:
        metrics, record = measure_untraced(workload, outcome, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END
        record["samples"] = {"setup_s": describe(setup), "setup_seconds": describe(setup_raw), **record["samples"]}
        record["item_unit"] = workload.item_unit

    env = environment(args.seed)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report(metrics, record, outcome, args.workload)
    RUNS_DIR.mkdir(exist_ok=True)
    record_path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w") as fh:
        json.dump(
            {"environment": env, "args": vars(args), "problems": outcome.problems, "result": result, **record},
            fh,
            indent=1,
        )
        fh.write("\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
