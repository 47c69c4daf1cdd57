"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Command, Outcome, Workload, run_cli  # noqa: E402


def _exit_zero(code, out, err, outcome):
    outcome.check(code == 0, f"exit {code}: {err}")


class Tiny(Workload):
    """Every layer on small inputs, with a fixed simulator seed."""

    name = "tiny"

    def _commands(self, trials):
        argvs = [
            "compare --n 4 --p 0.9 --ps 0.5 --tcut 2 --baseline swap-asap --method pi --no-bunch",
            "sweep --n 4 --p 0.6,0.9 --ps 0.5 --tcut 2 --baseline swap-asap --method vi --bunch",
            f"simulate --n 4 --p 0.9 --ps 0.5 --tcut 2 --policy optimal --trials {trials} --seed 11 "
            f"--out {self.workdir / 'sim'}",
        ]
        return [Command(argv.split(), _exit_zero, 1) for argv in argvs]

    def commands(self):
        return self._commands(300)

    def memory_probe(self):
        return self._commands(30)


def _counts(tmp_path) -> dict:
    outcome = Outcome()
    metrics, record = run.measure_traced(Tiny(5, tmp_path), outcome)
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted == 9
    return {name: value for name, value in record["layers"].items() if run.unit_of(name) == "count"}


def test_count_metrics_repeat_exactly(tmp_path):
    first, second = _counts(tmp_path), _counts(tmp_path)
    assert first == second
    for name in (
        "statespace.enumerate_calls", "mdp.build_calls", "mdp.choice_rows", "mdp.nnz",
        "solver.pi_rounds", "solver.vi_sweeps", "sim.trials", "sim.slots",
        "chain.swap_outcomes_calls", "chain.state_constructions", "statespace.boundary_states",
    ):
        assert first[name] > 0, name
    assert first["sim.trials"] == 300


def test_traced_run_reports_every_layer_and_restores_entry_points(tmp_path):
    from repeaterchain import cli, mdp, statespace

    originals = (cli.main, statespace.enumerate_states, cli.enumerate_states, mdp.TransitionModel.__dict__["build"])
    metrics, record = run.measure_traced(Tiny(5, tmp_path), Outcome())
    assert set(metrics) == set(run.PER_LAYER)
    assert record["absent"] == []
    layers = {span["name"].split(".")[0] for span in record["spans"]}
    assert {"cli", "statespace", "mdp", "solver", "sim"} <= layers
    assert (cli.main, statespace.enumerate_states, cli.enumerate_states, mdp.TransitionModel.__dict__["build"]) == originals


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    outcome = Outcome()
    metrics, record = run.measure_untraced(Tiny(5, tmp_path), outcome, seconds=0.0)
    assert outcome.failed == 0, outcome.problems
    assert set(metrics) | {"setup_s"} == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert record["items_per_pass"] == 3
    assert record["samples"]["pass_seconds"]["count"] == run.MIN_PASSES


def test_reference_task_scales_by_the_task_time():
    from reference_task import REFERENCE_TASK_S, scale, task_seconds

    assert task_seconds() > 0
    assert scale(3.0, 2 * REFERENCE_TASK_S, 2 * REFERENCE_TASK_S) == pytest.approx(1.5)
    assert scale(3.0, REFERENCE_TASK_S, 3 * REFERENCE_TASK_S) == pytest.approx(1.5)


def test_missing_entry_points_are_reported_absent():
    tracer = Tracer(
        span_points=(
            ("solver.gone", "repeaterchain.solver", "no_such_function"),
            ("mdp.gone", "repeaterchain.mdp", "TransitionModel.no_such_method"),
            ("mdp.gone_class", "repeaterchain.mdp", "NoSuchClass.build"),
            ("nowhere.gone", "repeaterchain.no_such_module", "f"),
        )
        + tracing.SPAN_POINTS,
        count_points=(("chain.gone_calls", "repeaterchain.chain", "no_such_primitive"),),
    )
    tracer.install()
    try:
        code, _, err = run_cli("compare --n 3 --p 0.9 --ps 0.5 --tcut 1".split())
    finally:
        tracer.uninstall()
    assert code == 0, err
    assert len(tracer.absent) == 5
    assert "cli.main" in tracer.span_totals()


def test_checks_count_a_wrong_value(tmp_path):
    ladder = workloads.Ladder(1, tmp_path)
    key = workloads.point_key(5, 2, workloads.LADDER_P, workloads.LADDER_PS)
    ladder.reference = {**ladder.reference, key: {"T_opt": 8.3166138, "T_swap_asap": 9.346904637593882}}
    outcome = Outcome()
    run.run_pass([ladder._compare(5, 2)], outcome)
    assert outcome.failed == 1
    assert "T_opt" in outcome.problems[0]


def test_reference_values_hold_the_paper_pair():
    ref = workloads.load_reference()[workloads.point_key(5, 2, 0.9, 0.5)]
    assert abs(ref["T_opt"] - 8.3166) < 5e-5
    assert abs(ref["T_swap_asap"] - 9.3469) < 5e-5
    assert set(workloads.load_reference()) == {workloads.point_key(*p) for p in workloads.reference_points()}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([float(i) for i in range(20)])[0] == 50
    assert run.tail_percentile([float(i) for i in range(1000)])[0] == 99


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, name):
    make = workloads.WORKLOADS[name]
    first, again = ([c.argv for c in make(7, tmp_path).commands()] for _ in range(2))
    assert first == again
