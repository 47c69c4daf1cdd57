import csv
import io
import json
import re

import pytest

from chain_oracle import boundary_states, encode_state, intermediate_states, mirror
from repeaterchain import cli, solver
from repeaterchain.chain import ChainParams, CodeLayout
from repeaterchain.cli import load_policy_json, main
from repeaterchain.mdp import TransitionModel
from repeaterchain.sim import MAX_NODES, SimConfig, estimate
from repeaterchain.solver import (
    evaluate_policy,
    modified_full_state_policy,
    policy_iteration,
    policy_stats,
    swap_asap_policy,
    value_iteration,
)
from repeaterchain.statespace import enumerate_states
from test_sim import refuse_slot_growth, refuse_trial_times
from test_walk_reference import expand_policy, expand_values


def run(args):
    return main([str(a) for a in args])


class Walks(list):
    """(n, t_cut) of every walk, in call order; ``folds[i]`` is walk i's ``fold``."""

    def __init__(self):
        super().__init__()
        self.folds = []


@pytest.fixture
def enumerations(monkeypatch):
    """Every (n, t_cut) the CLI enumerates, in call order, and whether each walk folds."""
    calls = Walks()
    original = cli.enumerate_states

    def counted(params, *args, **kwargs):
        calls.append((params.n, params.t_cut))
        calls.folds.append(kwargs.get("fold", False))
        return original(params, *args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_states", counted)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """The values of every block-triangular solve, in call order."""
    calls = []
    original = solver._block_triangular_solve

    def counted(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(solver, "_block_triangular_solve", counted)
    return calls


def fresh_solve(params, method, use_bunch):
    """The per-point path: enumerate (folded too when bunching), build, solve."""
    space = enumerate_states(params)
    model = TransitionModel.build(space)
    solved = TransitionModel.build(enumerate_states(params, fold=True)) if use_bunch else model
    solve = policy_iteration if method == "pi" else value_iteration
    table, policy = solve(solved)
    return space, model, solved, table, policy


@pytest.fixture
def pools(monkeypatch):
    """``max_workers`` of every process pool the CLI builds; the pools map in this process."""
    import concurrent.futures

    built = []

    class InProcessPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return built


def sweep_rows(path):
    return [
        {k: v for k, v in row.items() if k != "wall_time_s"}
        for row in csv.DictReader(open(path))
    ]


class TestCutoff:
    def test_feasible_budget(self, capsys):
        code = run(["cutoff", "--fnew", 0.95, "--fmin", 0.8, "--tau", 100, "--n", 3])
        out = capsys.readouterr().out
        assert code == 0
        bound = float(out.splitlines()[0].split(":")[1].split()[0])
        assert bound == pytest.approx(8.608459266496817, abs=1e-6)
        assert "cutoff slots: 8" in out
        assert "round-trip" in out

    def test_zero_slack_is_flagged_infeasible(self, capsys):
        code = run(["cutoff", "--fnew", 0.9, "--fmin", 0.9, "--tau", 1, "--n", 2])
        out = capsys.readouterr()
        assert code == 1
        assert "cutoff bound: 0" in out.out
        assert "cutoff slots: 0" in out.out
        assert "infeasible" in out.err

    def test_unreachable_threshold_errors(self, capsys):
        code = run(["cutoff", "--fnew", 0.8, "--fmin", 0.9, "--tau", 1, "--n", 3])
        assert code == 1
        assert "infeasible" in capsys.readouterr().err

    def test_infinite_tau_is_one_error_line(self, capsys):
        code = run(["cutoff", "--fnew", 0.95, "--fmin", 0.8, "--tau", "inf", "--n", 4])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: tau must be positive and finite")
        assert err.count("\n") == 1

    def test_long_chain_reports_and_is_infeasible(self, capsys):
        code = run(["cutoff", "--fnew", 1.0, "--fmin", 0.26, "--tau", 50, "--n", 1000])
        out = capsys.readouterr()
        assert code == 1
        assert "cutoff slots: 0" in out.out
        assert "worst-case end-to-end fidelity at the bound: 0.2599999" in out.out
        assert out.err.startswith("infeasible: no integer cutoff")


class TestSolve:
    def test_writes_values_and_policy(self, tmp_path, capsys):
        out = tmp_path / "solve"
        code = run(
            ["solve", "--n", 3, "--p", 0.5, "--ps", 0.5, "--tcut", 1, "--out", out]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "T_opt(empty state) = 6" in stdout

        with open(out / "values.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        by_state = {row["state"]: float(row["expected_delivery_time"]) for row in rows}
        assert by_state["[-1, -1, -1]"] == pytest.approx(6.0, abs=1e-6)

        space = enumerate_states(ChainParams(n=3, p=0.5, p_s=0.5, t_cut=1))
        policy = load_policy_json(out / "policy.json", space)
        assert len(policy.rows) == space.num_intermediate

    def test_vi_and_pi_agree(self, tmp_path, capsys):
        values, gaps = {}, {}
        for method in ("vi", "pi"):
            code = run(
                ["solve", "--n", 4, "--p", 0.6, "--ps", 0.5, "--tcut", 2,
                 "--method", method, "--out", tmp_path / method]
            )
            assert code == 0
            lines = capsys.readouterr().out.splitlines()
            values[method] = float([l for l in lines if "T_opt" in l][0].split("=")[1])
            gaps[method] = float([l for l in lines if l.startswith("method:")][0].split("gap: ")[1])
        # Value iteration stops on a certified gap, so it prints the exact optimum.
        assert gaps["vi"] <= cli._OPTIONS["epsilon"].default
        # Policy iteration prints the Bellman gap of its values: roundoff, but certified.
        assert 0 < gaps["pi"] <= 1e-10
        assert values["vi"] == pytest.approx(values["pi"], rel=1e-12)

    def test_bunched_value_iteration_certifies_its_t(self, tmp_path, capsys):
        outs = {}
        for method in ("vi", "pi"):
            assert run(["solve", "--n", 5, "--p", 0.3, "--ps", 0.5, "--tcut", 2, "--bunch",
                        "--method", method, "--epsilon", 1e-7, "--out", tmp_path / method]) == 0
            outs[method] = capsys.readouterr().out
        gap = float(re.search(r"gap: (\S+)", outs["vi"]).group(1))
        t_vi, t_pi = (float(re.search(r"T_opt\(empty state\) = (\S+)", outs[m]).group(1)) for m in ("vi", "pi"))
        assert gap <= 1e-7
        assert t_vi == pytest.approx(t_pi, rel=1e-12, abs=0)

    def test_value_iteration_prints_the_t_of_policy_iteration_at_low_p(self, tmp_path, capsys):
        # Delivery takes about 4e5 slots here.
        lines = []
        for method in ("pi", "vi"):
            assert run(["solve", "--n", 6, "--p", 0.05, "--ps", 0.5, "--tcut", 2, "--no-bunch",
                        "--method", method, "--out", tmp_path]) == 0
            lines.append([l for l in capsys.readouterr().out.splitlines() if l.startswith("T_opt(empty state)")])
        assert len(lines[0]) == 1 and lines[1] == lines[0]

    def test_bunch_flag_matches_full_solve(self, tmp_path, capsys):
        results = {}
        for flag in ("--bunch", "--no-bunch"):
            code = run(
                ["solve", "--n", 4, "--p", 0.5, "--ps", 0.5, "--tcut", 2, flag,
                 "--out", tmp_path / flag.strip("-")]
            )
            assert code == 0
            line = [
                l for l in capsys.readouterr().out.splitlines() if "T_opt" in l
            ][0]
            results[flag] = float(line.split("=")[1])
        assert results["--bunch"] == pytest.approx(results["--no-bunch"], abs=1e-9)

    @pytest.mark.parametrize("method", ["pi", "vi"])
    def test_bunched_files_hold_the_expanded_solution(self, tmp_path, enumerations, method):
        args = ["solve", "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--method", method]
        assert run(args + ["--bunch", "--out", tmp_path / "bunch"]) == 0
        assert enumerations == [(5, 2)]
        assert run(args + ["--no-bunch", "--out", tmp_path / "full"]) == 0

        params = ChainParams(n=5, p=0.9, p_s=0.5, t_cut=2)
        space, _, solved, table, policy = fresh_solve(params, method, use_bunch=True)
        values = expand_values(space, solved.space, table).values
        actions = expand_policy(space, solved.space, policy).actions(space)

        rows = list(csv.reader(open(tmp_path / "bunch" / "values.csv")))[1:]
        want = [[json.dumps(encode_state(s)), f"{v:.17g}"] for s, v in zip(boundary_states(space), values)]
        assert len(rows) == space.num_boundary
        assert sorted(rows) == sorted(want)
        entries = json.load(open(tmp_path / "bunch" / "policy.json"))["policy"]
        got = [(tuple(e["state"]), tuple(e["action"])) for e in entries]
        want = [(encode_state(r), tuple(sorted(a))) for r, a in zip(intermediate_states(space), actions)]
        assert len(got) == space.num_intermediate
        assert sorted(got) == sorted(want)

        full = dict(list(csv.reader(open(tmp_path / "full" / "values.csv")))[1:])
        assert full.keys() == dict(rows).keys()
        for state, value in rows:
            assert float(value) == pytest.approx(float(full[state]), rel=1e-12, abs=1e-12)

    def test_state_cap_failure_is_reported(self, tmp_path, capsys):
        code = run(
            ["solve", "--n", 5, "--p", 0.5, "--ps", 0.5, "--tcut", 2,
             "--state-cap", 10, "--out", tmp_path]
        )
        assert code == 1
        assert "state cap" in capsys.readouterr().err

    def test_state_cap_below_one_is_an_error(self, tmp_path, capsys):
        assert run(["states", "--n", 4, "--tcut", 2, "--state-cap", -1]) == 1
        assert capsys.readouterr().err == "error: state cap must be at least 1, got -1\n"
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--n", 4, "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--state-cap", 0, "--out", out]) == 1
        [row] = csv.DictReader(open(out))
        assert row["error"] == "ValueError: state cap must be at least 1, got 0"

    def test_sweep_cap_below_one_is_an_error(self, tmp_path, capsys):
        code = run(
            ["solve", "--n", 3, "--p", 0.5, "--ps", 0.5, "--tcut", 1,
             "--method", "vi", "--max-iter", 0, "--out", tmp_path]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: max_iterations must be at least 1\n"


class TestCompare:
    def test_three_node_has_no_advantage(self, capsys):
        code = run(["compare", "--n", 3, "--p", 0.7, "--ps", 0.5, "--tcut", 2])
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "swap-asap" in l][0]
        adv = float(line.split("advantage = ")[1].split()[0])
        assert abs(adv) <= 1e-6

    def test_modified_baseline(self, capsys):
        code = run(
            ["compare", "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2,
             "--baseline", "swap-asap", "--baseline", "modified:3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        swap_line = [l for l in out.splitlines() if "[swap-asap]" in l][0]
        mod_line = [l for l in out.splitlines() if "[modified:3]" in l][0]
        assert float(swap_line.split("=")[1].split()[0]) == pytest.approx(9.35, abs=0.01)
        assert float(mod_line.split("=")[1].split()[0]) == pytest.approx(8.34, abs=0.01)

    @pytest.mark.parametrize("flag", ["--bunch", "--no-bunch"])
    def test_swap_asap_is_solved_once(self, solves, capsys, flag):
        # Policy iteration starts from swap-asap, and its model keeps those
        # values, so T[swap-asap] costs no solve of its own.
        assert run(["compare", "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2, flag]) == 0
        out, count = capsys.readouterr().out, len(solves)
        params = ChainParams(n=5, p=0.9, p_s=0.5, t_cut=2)
        space = enumerate_states(params, fold=flag == "--bunch")
        table, _ = policy_iteration(TransitionModel.build(space))
        assert count == table.iterations
        fresh = TransitionModel.build(space)
        t_asap = evaluate_policy(fresh, swap_asap_policy(fresh.space)).t0
        assert f"T[swap-asap] = {t_asap:.17g} " in out

    @pytest.mark.parametrize("flag", ["--bunch", "--no-bunch"])
    def test_value_iteration_shares_swap_asaps_solve_with_the_baseline(self, solves, capsys, flag):
        # Value iteration starts from swap-asap's exact values, and its model
        # keeps them, so the baseline adds no solve and swap-asap is solved once.
        assert run(["compare", "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--method", "vi", flag]) == 0
        out, solved = capsys.readouterr().out, solves[:]
        solves.clear()
        space = enumerate_states(ChainParams(n=5, p=0.9, p_s=0.5, t_cut=2), fold=flag == "--bunch")
        model = TransitionModel.build(space)
        value_iteration(model)
        assert len(solved) == len(solves)
        asap = evaluate_policy(model, swap_asap_policy(space)).values
        assert sum(values.tobytes() == asap.tobytes() for values in solved) == 1
        assert f"T[swap-asap] = {asap[0]:.17g} " in out

    BUNCH_ARGS = ["compare", "--n", 4, "--p", 0.7, "--ps", 0.5, "--tcut", 2]

    @staticmethod
    def baseline_t(out, spec):
        line = [l for l in out.splitlines() if l.startswith(f"T[{spec}]")][0]
        return float(line.split("=")[1].split()[0])

    def test_symmetric_baseline_needs_only_the_folded_walk(self, enumerations, capsys):
        args = self.BUNCH_ARGS + ["--baseline", "modified:2,3"]
        assert run(args + ["--bunch"]) == 0
        assert enumerations == [(4, 2)]
        assert enumerations.folds == [True]
        folded = self.baseline_t(capsys.readouterr().out, "modified:2,3")
        assert run(args + ["--no-bunch"]) == 0
        full = self.baseline_t(capsys.readouterr().out, "modified:2,3")
        assert folded == pytest.approx(full, rel=1e-12, abs=0)

    def test_asymmetric_baseline_enumerates_the_full_space_once(self, enumerations, capsys):
        # modified:2 is not its own mirror image, so --bunch walks unfolded.
        args = self.BUNCH_ARGS + ["--baseline", "modified:2", "--baseline", "modified:3"]
        assert run(args + ["--bunch"]) == 0
        assert enumerations == [(4, 2)]
        assert enumerations.folds == [False]
        bunched = capsys.readouterr().out
        assert run(args + ["--no-bunch"]) == 0
        assert capsys.readouterr().out == bunched

    @pytest.mark.parametrize("command, p", [("compare", 0.3), ("sweep", "0.3,0.9")])
    def test_asymmetric_baseline_prints_what_no_bunch_prints(self, enumerations, capsys, command, p):
        args = [command, "--n", 5, "--p", p, "--ps", 0.5, "--tcut", 3,
                "--baseline", "modified:2", "--baseline", "swap-asap"]
        outs = []
        for flag in ("--bunch", "--no-bunch"):
            assert run(args + [flag]) == 0
            outs.append(capsys.readouterr().out)
        assert enumerations.folds == [False, False]
        if command == "sweep":
            # Every byte but the wall times, which differ from run to run.
            tables = [list(csv.reader(out.splitlines())) for out in outs]
            column = tables[0][0].index("wall_time_s")
            outs = [[row[:column] + row[column + 1:] for row in table] for table in tables]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("n, t_cut, baseline", [(6, 3, "swap-asap"), (7, 2, "modified:4")])
    def test_folded_and_unfolded_times_agree(self, capsys, n, t_cut, baseline):
        # The withheld-middle baseline finds full states by their action count, folded or not.
        times = []
        for flag in ("--bunch", "--no-bunch"):
            assert run(["compare", "--n", n, "--p", 0.9, "--ps", 0.5, "--tcut", t_cut, "--baseline", baseline, flag]) == 0
            times.append(dict(re.findall(r"^(T\S*) = (\S+)", capsys.readouterr().out, re.M)))
        folded, unfolded = times
        assert folded.keys() == unfolded.keys() == {"T_opt", f"T[{baseline}]"}
        for key, value in unfolded.items():
            assert float(folded[key]) == pytest.approx(float(value), rel=1e-12, abs=0), key

    def test_failed_unfolded_walk_fails_before_any_solve(self, enumerations, capsys):
        # The folded (5,3) space would fit the cap; the unfolded one, which
        # modified:2 needs, does not.
        code = run(["compare", "--n", 5, "--p", 0.3, "--ps", 0.5, "--tcut", 3, "--bunch",
                    "--baseline", "modified:2", "--state-cap", 1000])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state cap 1000 exceeded at n=5, t_cut=3\n"
        assert enumerations == [(5, 3)]
        assert enumerations.folds == [False]

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    @pytest.mark.parametrize("spec", ["modified:", "modified:,"])
    def test_modified_baseline_without_nodes_is_an_error(self, tmp_path, capsys, enumerations, command, spec):
        # An empty node list is not swap-asap under another label.
        out = tmp_path / "grid.csv"
        code = run(
            [command, "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2,
             "--baseline", "swap-asap", "--baseline", spec]
            + (["--out", out] if command == "sweep" else [])
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: baseline policy {spec!r} names no nodes (swap-asap withholds none)\n"
        assert captured.out == ""
        assert enumerations == []
        assert not out.exists()


    def test_node_outside_the_chain_is_refused_before_solving(self, capsys, enumerations):
        code = run(["compare", "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--bunch",
                    "--baseline", "modified:5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: withheld nodes must be interior nodes of a 5-node chain\n"
        assert captured.out == ""
        assert enumerations == []

    @pytest.mark.parametrize("command", ["compare", "sweep"])
    def test_node_that_is_no_integer_names_the_spec(self, capsys, enumerations, command):
        code = run([command, "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2,
                    "--baseline", "modified:3,x"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: baseline policy 'modified:3,x' names a node that is no integer\n"
        assert captured.out == ""
        assert enumerations == []


class TestSweep:
    def test_node_outside_the_chain_fails_only_its_rows(self, tmp_path, enumerations):
        args = ["sweep", "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--baseline", "modified:4"]
        assert run(args + ["--n", "4,5", "--out", tmp_path / "both.csv"]) == 1
        assert enumerations == [(5, 2)]
        assert run(args + ["--n", 5, "--out", tmp_path / "five.csv"]) == 0
        rows = sweep_rows(tmp_path / "both.csv")
        assert rows[0]["error"] == "ValueError: withheld nodes must be interior nodes of a 4-node chain"
        assert rows[0]["T_opt"] == ""
        assert rows[1] == sweep_rows(tmp_path / "five.csv")[0]

    def test_single_point_matches_compare(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run(
            ["sweep", "--n", 3, "--p", 0.5, "--ps", 0.5, "--tcut", 1, "--out", out]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 1
        assert float(rows[0]["T_opt"]) == pytest.approx(6.0, abs=1e-6)
        assert float(rows[0]["T_swap_asap"]) == pytest.approx(6.0, abs=1e-6)
        assert rows[0]["error"] == ""

    def test_grid_order_and_failure_rows(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run(
            ["sweep", "--n", 3, "--p", "0.4,0.8", "--ps", 0.5, "--tcut", "1,2",
             "--state-cap", 100000, "--out", out]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert [(r["p"], r["t_cut"]) for r in rows] == [
            ("0.4", "1"), ("0.4", "2"), ("0.8", "1"), ("0.8", "2")
        ]

    def test_failures_recorded_in_row(self, tmp_path, capsys, enumerations):
        # Only the t_cut=2 structure exceeds the cap: every row of its group
        # carries the error, and the failed build is not retried.
        out = tmp_path / "grid.csv"
        code = run(
            ["sweep", "--n", 5, "--p", "0.4,0.8", "--ps", 0.5, "--tcut", "1,2",
             "--state-cap", 300, "--out", out]
        )
        assert code == 1
        rows = list(csv.DictReader(open(out)))
        assert [r["t_cut"] for r in rows] == ["1", "2", "1", "2"]
        for row in rows:
            if row["t_cut"] == "1":
                assert row["error"] == ""
            else:
                assert row["error"].startswith("StateCapExceeded: state cap 300")
        assert sorted(enumerations) == [(5, 1), (5, 2)]

    def test_failed_unfolded_walk_fails_every_row_once(self, tmp_path, capsys, enumerations):
        # The folded walk would fit the cap; the unfolded one, which
        # modified:2 needs, does not: the structure's build fails, once, and
        # no row reports a solve.
        out = tmp_path / "grid.csv"
        code = run(
            ["sweep", "--n", 5, "--p", "0.3,0.6,0.9", "--ps", "0.5,1.0", "--tcut", 3, "--bunch",
             "--baseline", "modified:2", "--state-cap", 1000, "--out", out]
        )
        assert code == 1
        assert capsys.readouterr().err == "6 of 6 grid points failed\n"
        assert enumerations == [(5, 3)]
        assert enumerations.folds == [False]
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6
        for row in rows:
            assert row["error"] == "StateCapExceeded: state cap 1000 exceeded at n=5, t_cut=3"
            assert "T_opt" not in row

    def test_invalid_point_does_not_spoil_its_group(self, tmp_path, capsys):
        both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
        args = ["sweep", "--n", 4, "--ps", 0.5, "--tcut", 2, "--method", "vi", "--bunch"]
        assert run(args + ["--p", "1.5,0.5", "--out", both]) == 1
        assert run(args + ["--p", 0.5, "--out", alone]) == 0
        rows = sweep_rows(both)
        assert [r["p"] for r in rows] == ["1.5", "0.5"]
        assert rows[0]["error"].startswith("ValueError: p must lie in (0, 1]")
        assert rows[1] == sweep_rows(alone)[0]

    @pytest.mark.parametrize("command", ["sweep", "stats"])
    def test_empty_grid_list_is_an_error(self, tmp_path, capsys, command):
        out = tmp_path / "grid.csv"
        code = run([command, "--n", 4, "--p", ",", "--ps", 0.5, "--tcut", 2, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: empty list of values: ','\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_is_an_error(self, tmp_path, capsys, workers):
        out = tmp_path / "grid.csv"
        code = run(
            ["sweep", "--n", 3, "--p", 0.5, "--ps", 0.5, "--tcut", 1,
             "--workers", workers, "--out", out]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: workers must be at least 1\n"
        assert not out.exists()

    def test_workers_produce_identical_csv(self, tmp_path):
        outs = []
        for workers, name in [(1, "serial.csv"), (2, "parallel.csv")]:
            out = tmp_path / name
            code = run(
                ["sweep", "--n", "3,4", "--p", "0.4,0.6", "--ps", 0.5, "--tcut", "1,2",
                 "--workers", workers, "--out", out]
            )
            assert code == 0
            outs.append(sweep_rows(out))
        assert outs[0] == outs[1]
        assert [(r["n"], r["p"], r["t_cut"]) for r in outs[1]] == [
            (n, p, t) for n in "34" for p in ("0.4", "0.6") for t in "12"
        ]

    @pytest.mark.parametrize("n_list, built", [("5", []), ("4,5", [2])])
    def test_at_most_one_process_per_structure(self, tmp_path, pools, n_list, built):
        args = ["sweep", "--n", n_list, "--p", "0.3,0.9", "--ps", "0.5,1.0", "--tcut", 2]
        assert run([*args, "--workers", 8, "--out", tmp_path / "many.csv"]) == 0
        assert pools == built
        assert run([*args, "--workers", 1, "--out", tmp_path / "one.csv"]) == 0
        assert pools == built
        assert sweep_rows(tmp_path / "many.csv") == sweep_rows(tmp_path / "one.csv")

    @pytest.mark.parametrize("method", ["pi", "vi"])
    @pytest.mark.parametrize("flag", ["--bunch", "--no-bunch"])
    def test_rows_match_per_point_solves(self, tmp_path, enumerations, method, flag):
        args = ["sweep", "--n", "3,4", "--p", "0.4,0.9,1.0", "--ps", "0.5,1.0",
                "--tcut", "1,2", "--method", method, flag, "--out", tmp_path / "grid.csv"]
        assert run(args) == 0
        rows = sweep_rows(tmp_path / "grid.csv")
        assert len(rows) == 24
        assert sorted(enumerations) == [(3, 1), (3, 2), (4, 1), (4, 2)]
        for row in rows:
            params = ChainParams(
                n=int(row["n"]), p=float(row["p"]), p_s=float(row["p_s"]), t_cut=int(row["t_cut"])
            )
            space, model, solved, table, _ = fresh_solve(params, method, flag == "--bunch")
            # swap-asap is mirror-symmetric: the CLI evaluates it on the solved model.
            base = evaluate_policy(solved, swap_asap_policy(solved.space))
            full = evaluate_policy(model, swap_asap_policy(space))
            assert base.t0 == pytest.approx(full.t0, rel=1e-12, abs=0)
            assert row["T_opt"] == f"{table.t0:.17g}"
            assert row["T_swap_asap"] == f"{base.t0:.17g}"
            assert row["iterations"] == str(table.iterations)
            assert row["error"] == ""
        # Structures live for one command: a second sweep enumerates again.
        assert run(args) == 0
        assert len(enumerations) == 8


@pytest.fixture
def matrix_builds(monkeypatch):
    """"A" for every P_A build and "C" for every choice-table build, in call order."""
    from repeaterchain import mdp

    builds = []
    original = mdp._csr

    def counted(data, indices, offsets, width):
        matrix = original(data, indices, offsets, width)
        builds.append("C" if matrix.shape[0] > matrix.shape[1] else "A")
        return matrix

    monkeypatch.setattr(mdp, "_csr", counted)
    return builds


def one_point_runs(tmp_path, command, args, grid):
    """The CSV rows of ``command`` run once per (n, p, p_s, t_cut) point of ``grid``."""
    rows = []
    for n, p, p_s, t_cut in grid:
        out = tmp_path / f"{command}_{n}_{p}_{p_s}_{t_cut}.csv"
        assert run([command, "--n", n, "--p", p, "--ps", p_s, "--tcut", t_cut, *args, "--out", out]) == 0
        rows += sweep_rows(out)
    return rows


class TestMatrixReuse:
    """Grid points respecialize the previous point's model and keep the matrices they share."""

    ARGS = ["--n", 5, "--p", "0.3,0.6,0.9", "--tcut", 3, "--method", "vi", "--bunch"]

    def test_sweep_over_p_builds_the_choice_table_once(self, tmp_path, matrix_builds):
        assert run(["sweep", *self.ARGS, "--ps", 0.5, "--out", tmp_path / "grid.csv"]) == 0
        assert matrix_builds == ["A", "C", "A", "A"]

    def test_sweep_solves_p_s_major_and_builds_the_choice_table_once_per_p_s(self, tmp_path, matrix_builds):
        assert run(["sweep", *self.ARGS, "--ps", "0.5,1.0", "--out", tmp_path / "grid.csv"]) == 0
        assert matrix_builds == ["A", "C", "A", "A", "A", "C", "A", "A"]

    def test_stats_solves_p_s_major_and_builds_the_choice_table_once_per_p_s(self, tmp_path, matrix_builds):
        args = ["--n", 5, "--p", "0.3,0.6,0.9", "--ps", "0.5,1.0", "--tcut", 3, "--bunch"]
        assert run(["stats", *args, "--out", tmp_path / "stats.csv"]) == 0
        # Policy iteration asks for the choice table first.
        assert matrix_builds == ["C", "A", "A", "A", "C", "A", "A", "A"]

    @pytest.mark.parametrize(
        "command,args",
        [
            ("sweep", ["--method", "vi", "--bunch", "--baseline", "swap-asap", "--baseline", "modified:3"]),
            ("sweep", ["--method", "pi", "--no-bunch"]),
            ("stats", ["--method", "pi", "--bunch"]),
            ("stats", ["--method", "vi", "--no-bunch"]),
        ],
    )
    @pytest.mark.parametrize("ps_list", [(0.5,), (0.5, 1.0)])  # keeps C; keeps P_A while p repeats
    def test_rows_equal_one_fresh_model_per_point(self, tmp_path, command, args, ps_list):
        grid = [(5, p, p_s, t_cut) for p in (0.3, 0.6, 1.0) for p_s in ps_list for t_cut in (2, 3)]
        out = tmp_path / "grid.csv"
        ps = ",".join(map(str, ps_list))
        assert run([command, "--n", 5, "--p", "0.3,0.6,1.0", "--ps", ps, "--tcut", "2,3", *args, "--out", out]) == 0
        assert sweep_rows(out) == one_point_runs(tmp_path, command, args, grid)


class TestSimulate:
    @pytest.mark.parametrize("n", [64, 66])
    def test_chain_too_wide_for_the_tables_is_one_error_line(self, tmp_path, capsys, n):
        code = run(
            ["simulate", "--n", n, "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--trials", 1, "--out", tmp_path]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: n={n} is too wide") and f"at most n={MAX_NODES} nodes" in err

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate"), ValueError("array is too big")])
    def test_tables_that_outgrow_memory_are_one_error_line(self, tmp_path, capsys, monkeypatch, error):
        refuse_slot_growth(monkeypatch, error)
        code = run(
            ["simulate", "--n", 10, "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--policy", "swap-asap",
             "--trials", 10, "--out", tmp_path]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        # The empty state's first generation row, 2**9 slots, outgrows the initial 256.
        assert err == (
            "error: n=10 is too wide to simulate: its dense transition tables ask for 512 slots "
            "of 8 bytes, more than can be allocated\n"
        )

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate"), ValueError("array is too big")])
    def test_trial_times_that_outgrow_memory_are_one_error_line(self, tmp_path, capsys, monkeypatch, error):
        refuse_trial_times(monkeypatch, 4321, error)
        code = run(
            ["simulate", "--n", 4, "--p", 0.5, "--ps", 0.5, "--tcut", 2, "--policy", "swap-asap",
             "--trials", 4321, "--out", tmp_path]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: trials=4321 is too many to simulate: their delivery times ask for 4,321 slots "
            "of 8 bytes, more than can be allocated\n"
        )

    def test_deterministic_histogram(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run(
            ["simulate", "--n", 3, "--p", 1.0, "--ps", 1.0, "--tcut", 1,
             "--policy", "swap-asap", "--trials", 64, "--seed", 5, "--out", out]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "histogram.csv")))
        assert rows == [{"delivery_time": "1", "count": "64"}]
        summary = json.load(open(out / "summary.json"))
        assert summary["master_seed"] == 5
        assert summary["schema_version"] == 1
        assert summary["mean"] == 1.0

    def test_policy_file_round_trip(self, tmp_path):
        solve_dir = tmp_path / "solved"
        assert run(
            ["solve", "--n", 3, "--p", 0.8, "--ps", 0.5, "--tcut", 1, "--out", solve_dir]
        ) == 0
        sim_dir = tmp_path / "sim"
        code = run(
            ["simulate", "--n", 3, "--p", 0.8, "--ps", 0.5, "--tcut", 1,
             "--policy", solve_dir / "policy.json", "--trials", 500, "--seed", 1,
             "--out", sim_dir]
        )
        assert code == 0
        summary = json.load(open(sim_dir / "summary.json"))
        assert summary["trials"] == 500

    @pytest.mark.parametrize(
        "spec, baseline",
        [
            ("swap-asap", swap_asap_policy),
            ("modified:3", lambda space: modified_full_state_policy(space, {3})),
        ],
        ids=["swap-asap", "modified:3"],
    )
    def test_baselines_enumerate_nothing(self, tmp_path, enumerations, spec, baseline):
        # No enumeration, so no state cap either.
        out = tmp_path / "sim"
        code = run(
            ["simulate", "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--policy", spec,
             "--trials", 3000, "--seed", 4, "--state-cap", 10, "--out", out]
        )
        assert code == 0
        assert enumerations == []
        params = ChainParams(n=5, p=0.9, p_s=0.5, t_cut=2)
        space = enumerate_states(params)
        want = estimate(params, baseline(space).state_map(space), SimConfig(trials=3000, master_seed=4))
        rows = csv.DictReader(open(out / "histogram.csv"))
        assert {int(r["delivery_time"]): int(r["count"]) for r in rows} == want.histogram

    def test_bunched_optimal_walks_once_and_matches_its_policy_file(self, tmp_path, enumerations):
        point = ["--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2]
        sim = ["simulate", *point, "--trials", 3000, "--seed", 8]
        assert run(["solve", *point, "--bunch", "--out", tmp_path / "solved"]) == 0
        assert run(sim + ["--policy", "optimal", "--bunch", "--out", tmp_path / "optimal"]) == 0
        assert enumerations == [(5, 2), (5, 2)]
        policy_file = tmp_path / "solved" / "policy.json"
        assert run(sim + ["--policy", policy_file, "--out", tmp_path / "file"]) == 0
        histogram = (tmp_path / "optimal" / "histogram.csv").read_text()
        assert (tmp_path / "file" / "histogram.csv").read_text() == histogram

    # A seed's printed mean and standard error, for each way the command
    # builds a policy.  "file" simulates the policy file of a folded solve,
    # whose mirror images act as in the folded solve itself.
    @pytest.mark.parametrize(
        "n, t_cut, p, policy, flag, trials, seed, mean",
        [
            (4, 2, 0.9, "file", "--no-bunch", 2000, 1, "4.8860000000000001 +- 0.093791793085669886"),
            (4, 2, 0.9, "optimal", "--bunch", 2000, 1, "4.8860000000000001 +- 0.093791793085669886"),
            (5, 4, 0.3, "swap-asap", "--no-bunch", 2500, 11, "55.318800000000003 +- 1.0461116414850664"),
            (5, 2, 0.9, "optimal", "--no-bunch", 10000, 7, "8.2826000000000004 +- 0.070670171581192098"),
            (5, 2, 0.9, "modified:3", "--no-bunch", 10000, 7, "8.3328000000000007 +- 0.070643495569986017"),
            (6, 3, 0.9, "optimal", "--bunch", 3000, 3, "12.558999999999999 +- 0.19055197225207135"),
            (6, 3, 0.9, "file", "--bunch", 3000, 3, "12.558999999999999 +- 0.19055197225207135"),
        ],
        ids=["file-4-2", "optimal-folded-4-2", "swap-asap-5-4", "optimal-5-2", "modified-3-5-2",
             "optimal-folded-6-3", "file-6-3"],
    )
    def test_printed_mean_is_pinned(self, tmp_path, capsys, n, t_cut, p, policy, flag, trials, seed, mean):
        point = ["--n", n, "--p", p, "--ps", 0.5, "--tcut", t_cut]
        if policy == "file":
            assert run(["solve", *point, "--bunch", "--out", tmp_path / "solved"]) == 0
            policy = tmp_path / "solved" / "policy.json"
        capsys.readouterr()
        assert run(["simulate", *point, flag, "--policy", policy, "--trials", trials, "--seed", seed,
                    "--out", tmp_path / "sim"]) == 0
        assert f"mean delivery time: {mean} (stderr)" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_is_an_error(self, tmp_path, capsys, enumerations, seed):
        code = run(
            ["simulate", "--n", 3, "--p", 0.8, "--ps", 0.5, "--tcut", 1, "--policy", "optimal",
             "--trials", 10, "--seed", seed, "--out", tmp_path / "sim"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: master_seed must be in [0, 2**64)\n"
        assert enumerations == []
        assert not (tmp_path / "sim").exists()

    def test_run_without_delivery_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run(
            ["simulate", "--n", 3, "--p", 0.1, "--ps", 0.5, "--tcut", 1,
             "--max-slots", 1, "--trials", 10, "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: no delivery within 1 slots (10 of 10 trials still running)")
        assert not (out / "histogram.csv").exists()

    def test_policy_file_that_never_swaps_is_an_error(self, tmp_path, capsys):
        point = ["--n", 4, "--p", 0.9, "--ps", 0.5, "--tcut", 2]
        assert run(["solve", *point, "--out", tmp_path / "solved"]) == 0
        doc = json.load(open(tmp_path / "solved" / "policy.json"))
        for entry in doc["policy"]:
            entry["action"] = []
        never = tmp_path / "never.json"
        never.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "sim"
        code = run(
            ["simulate", *point, "--policy", never, "--max-slots", 50, "--trials", 100,
             "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: no delivery within 50 slots")
        assert not (out / "histogram.csv").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            (None, "No such file or directory"),
            ({"n": 5, "t_cut": 2, "policy": []}, "policy file is for n=5, t_cut=2; expected n=4, t_cut=2"),
        ],
        ids=["missing-file", "wrong-n"],
    )
    def test_policy_file_is_read_before_the_walk(self, tmp_path, capsys, enumerations, doc, message):
        path = tmp_path / "policy.json"
        if doc is not None:
            path.write_text(json.dumps(doc))
        code = run(["simulate", "--n", 4, "--p", 0.9, "--ps", 0.5, "--tcut", 2,
                    "--policy", path, "--trials", 10, "--out", tmp_path / "sim"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert enumerations == []
        assert not (tmp_path / "sim").exists()

    def test_policy_space_mismatch_errors(self, tmp_path, capsys):
        solve_dir = tmp_path / "solved"
        assert run(
            ["solve", "--n", 3, "--p", 0.8, "--ps", 0.5, "--tcut", 1, "--out", solve_dir]
        ) == 0
        code = run(
            ["simulate", "--n", 4, "--p", 0.8, "--ps", 0.5, "--tcut", 1,
             "--policy", solve_dir / "policy.json", "--trials", 10, "--out", tmp_path / "x"]
        )
        assert code == 1
        assert "policy file" in capsys.readouterr().err


def swap_asap_doc(space):
    """The policy document of swap-asap on an unfolded ``space``, states in the space's order."""
    actions = swap_asap_policy(space).actions(space)
    return {
        "n": space.params.n,
        "t_cut": space.params.t_cut,
        "policy": [
            {"state": list(encode_state(r)), "action": sorted(a)} for r, a in zip(intermediate_states(space), actions)
        ],
    }


def replace_first_age(doc, old, new):
    """Put ``new`` in place of the first state entry ``old`` of a policy document."""
    entry = next(e for e in doc["policy"] if old in e["state"])
    entry["state"][entry["state"].index(old)] = new


class TestPolicyFile:
    """``load_policy_json`` names what is wrong with a malformed policy file."""

    @pytest.fixture
    def space(self):
        return enumerate_states(ChainParams(n=3, p=0.5, p_s=0.5, t_cut=1))

    @pytest.fixture
    def doc(self, space):
        return swap_asap_doc(space)

    def load(self, tmp_path, space, doc):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        return load_policy_json(path, space)

    def test_non_object_document(self, tmp_path, space, doc):
        with pytest.raises(ValueError, match="JSON object"):
            self.load(tmp_path, space, doc["policy"])

    def test_missing_policy(self, tmp_path, space, doc):
        del doc["policy"]
        with pytest.raises(ValueError, match="'policy' list"):
            self.load(tmp_path, space, doc)

    def test_non_list_policy(self, tmp_path, space, doc):
        doc["policy"] = {"state": doc["policy"][0]["state"], "action": []}
        with pytest.raises(ValueError, match="'policy' list"):
            self.load(tmp_path, space, doc)

    @pytest.mark.parametrize("key", ["state", "action"])
    def test_entry_without_key(self, tmp_path, space, doc, key):
        del doc["policy"][0][key]
        with pytest.raises(ValueError, match="needs a 'state' and an 'action'"):
            self.load(tmp_path, space, doc)

    @pytest.mark.parametrize(
        "key, value", [("state", ["a", "b", "c"]), ("action", [[2]]), ("action", 2)]
    )
    def test_entry_that_is_not_a_list_of_integers(self, tmp_path, space, doc, key, value):
        doc["policy"][0][key] = value
        with pytest.raises(ValueError, match="list of integers"):
            self.load(tmp_path, space, doc)

    def test_state_listed_twice(self, tmp_path, space, doc):
        doc["policy"].append(dict(doc["policy"][0]))
        with pytest.raises(ValueError, match="twice"):
            self.load(tmp_path, space, doc)

    def test_action_unavailable_in_its_state(self, tmp_path, space, doc):
        empty = [entry for entry in doc["policy"] if max(entry["state"]) < 0][0]
        empty["action"] = [2]
        with pytest.raises(ValueError, match="not available"):
            self.load(tmp_path, space, doc)

    def test_missing_state(self, tmp_path, space, doc):
        del doc["policy"][-1]
        with pytest.raises(ValueError, match="misses 1 enumerated intermediate states"):
            self.load(tmp_path, space, doc)

    def test_state_outside_the_space(self, tmp_path, space, doc):
        doc["policy"][0]["state"] = [5, -1, -1]
        with pytest.raises(ValueError, match="not in the enumerated space: \\[5, -1, -1\\]"):
            self.load(tmp_path, space, doc)

    @pytest.mark.parametrize(
        "state, alias",
        [([-1, -1, -1, 0, 0, -1], [-1, -1, -1, -1, 1, -1]), ([-1, -1, -1, -1, 2, -1], [-1, -1, -1, -1, -1, 0])],
        ids=["two-links-out-of-one-node", "age-past-t_cut"],
    )
    def test_state_whose_digits_add_up_to_a_listed_state(self, tmp_path, state, alias):
        # At n = 4, t_cut = 1: links (2,3) and (2,4) at age 0 sum to the
        # digit of (2,4) at age 1; (2,4) at age 2 carries into the digit of
        # (3,4) at age 0.  Both aliases are listed states.
        space = enumerate_states(ChainParams(n=4, p=0.5, p_s=0.5, t_cut=1))
        doc = swap_asap_doc(space)
        assert alias in [entry["state"] for entry in doc["policy"]]
        doc["policy"][0]["state"] = state
        message = f"policy file lists a state not in the enumerated space: {state}"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.load(tmp_path, space, doc)

    def test_simulate_names_an_age_no_code_holds(self, tmp_path, capsys, doc):
        # An age far past every code's digits is a state outside the space, not a traceback.
        doc["policy"][0]["state"] = [2**70, -1, -1]
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        code = run(["simulate", "--n", 3, "--p", 0.5, "--ps", 0.5, "--tcut", 1,
                    "--policy", path, "--trials", 10, "--out", tmp_path / "sim"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: policy file lists a state not in the enumerated space: {[2**70, -1, -1]}\n"

    def test_state_of_the_wrong_length(self, tmp_path, space, doc):
        doc["policy"][0]["state"] = doc["policy"][0]["state"][:2]
        with pytest.raises(ValueError, match="expected 3 entries for n=3, got 2"):
            self.load(tmp_path, space, doc)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda doc: replace_first_age(doc, 0, False), "error: policy entry "),
            (lambda doc: doc.update(n=3.0), "error: policy file is for n=3.0,"),
            (lambda doc: doc.update(t_cut=True), "error: policy file is for n=3, t_cut=true;"),
            (lambda doc: replace_first_age(doc, -1, -7), "error: policy entry "),
        ],
        ids=["boolean-age", "float-n", "boolean-t_cut", "age-below-minus-one"],
    )
    def test_simulate_refuses_what_is_no_json_integer_or_age(self, tmp_path, capsys, doc, spoil, message):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        assert run(["simulate", "--n", 3, "--p", 0.5, "--ps", 0.5, "--tcut", 1,
                    "--policy", path, "--trials", 10, "--out", tmp_path / "sim"]) == 0
        capsys.readouterr()
        spoil(doc)
        path.write_text(json.dumps(doc))
        code = run(["simulate", "--n", 3, "--p", 0.5, "--ps", 0.5, "--tcut", 1,
                    "--policy", path, "--trials", 10, "--out", tmp_path / "sim"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [{"n": 3, "t_cut": 1}, [{"n": 3, "t_cut": 1}]],
        ids=["missing-policy", "top-level-list"],
    )
    def test_simulate_reports_an_error(self, tmp_path, capsys, doc):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        code = run(["simulate", "--n", 3, "--p", 0.5, "--ps", 0.5, "--tcut", 1,
                    "--policy", path, "--trials", 10, "--out", tmp_path / "sim"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: policy file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n,t_cut", [(5, 2), (6, 3)])
    def test_folded_solve_reads_back_as_its_expanded_policy(self, tmp_path, n, t_cut):
        assert run(["solve", "--n", n, "--p", 0.9, "--ps", 0.5, "--tcut", t_cut, "--bunch", "--out", tmp_path]) == 0
        params = ChainParams(n=n, p=0.9, p_s=0.5, t_cut=t_cut)
        space, folded = enumerate_states(params), enumerate_states(params, fold=True)
        _, policy = policy_iteration(TransitionModel.build(folded))
        assert load_policy_json(tmp_path / "policy.json", space) == expand_policy(space, folded, policy)


class TestExports:
    @pytest.mark.parametrize("fold", [False, True], ids=["unfolded", "folded"])
    def test_values_csv_lists_each_state_then_its_mirror_image(self, tmp_path, fold):
        flag = "--bunch" if fold else "--no-bunch"
        assert run(["solve", "--n", 4, "--p", 0.9, "--ps", 0.5, "--tcut", 2, flag, "--out", tmp_path]) == 0
        space = enumerate_states(ChainParams(n=4, p=0.9, p_s=0.5, t_cut=2), fold=fold)
        table, _ = policy_iteration(TransitionModel.build(space))
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["state", "expected_delivery_time"])
        for state, value in zip(boundary_states(space), table.values):
            images = [state] + ([mirror(state)] if fold and mirror(state) != state else [])
            writer.writerows([json.dumps(encode_state(image)), f"{value:.17g}"] for image in images)
        assert (tmp_path / "values.csv").read_bytes() == want.getvalue().encode()

    def test_json_documents_open_with_the_parameter_point(self, tmp_path):
        point = ["--n", 3, "--p", 0.5, "--ps", 0.25, "--tcut", 1]
        assert run(["solve", *point, "--out", tmp_path]) == 0
        assert run(["simulate", *point, "--policy", tmp_path / "policy.json", "--trials", 10, "--out", tmp_path]) == 0
        header = ["schema_version", "n", "p", "p_s", "t_cut"]
        for name in ("policy.json", "summary.json"):
            text = (tmp_path / name).read_text()
            assert text.count("\n") == 1 and text.endswith("\n")
            doc = json.loads(text)
            assert list(doc)[:5] == header
            assert [doc[key] for key in header] == [1, 3, 0.5, 0.25, 1]


class TestNoDecoding:
    """No command path decodes a state space: exports, policy files and the simulator work on codes.

    The simulator builds the links of each layout it meets at age 0, to
    plan its slot phases; no other state is decoded.
    """

    @pytest.fixture
    def no_decoding(self, monkeypatch):
        real_state = CodeLayout.state

        def refuse(self, code, intermediate=False):
            state = real_state(self, code, intermediate)
            if any(link.age for link in state.links):
                raise AssertionError("a command path decoded a state space")
            return state

        monkeypatch.setattr(CodeLayout, "state", refuse)
        with pytest.raises(AssertionError):
            # Link (1, 2) at age 1.
            CodeLayout(3, 1).state(2)

    @pytest.mark.parametrize("flag", ["--bunch", "--no-bunch"])
    def test_solve_and_simulate(self, tmp_path, no_decoding, flag):
        point = ["--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2, flag]
        assert run(["solve", *point, "--out", tmp_path]) == 0
        assert run(["simulate", *point, "--policy", "optimal", "--trials", 500, "--out", tmp_path]) == 0
        assert run(["simulate", *point, "--policy", tmp_path / "policy.json", "--trials", 500, "--out", tmp_path]) == 0


class TestStates:
    def test_three_node_report(self, tmp_path, capsys):
        out = tmp_path / "states.json"
        code = run(["states", "--n", 3, "--tcut", 1, "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "boundary states:      5" in stdout
        assert "intermediate states:  9" in stdout
        assert "analytic lower bound: 3" in stdout
        doc = json.load(open(out))
        assert doc["lower_bound"] == 3
        assert doc["boundary_states"] == 5
        assert doc["intermediate_states"] == 9
        assert doc["bound_satisfied"] is True
        assert len(doc["action_counts"]) == 9

    def test_four_node_bound(self, capsys):
        code = run(["states", "--n", 4, "--tcut", 2])
        assert code == 0
        assert "analytic lower bound: 25" in capsys.readouterr().out

    def test_choice_rows_and_swap_outcomes(self, tmp_path, capsys):
        # One choice row per action of an intermediate state, one outcome per
        # boundary state a choice row can lead to.
        out = tmp_path / "states.json"
        assert run(["states", "--n", 4, "--tcut", 2, "--out", out]) == 0
        stdout = capsys.readouterr().out
        doc = json.load(open(out))
        space = enumerate_states(ChainParams(n=4, p=0.5, p_s=0.5, t_cut=2))
        assert doc["choice_rows"] == sum(doc["action_counts"]) == 191
        assert doc["swap_outcomes"] == len(space.outcome_targets) == 302
        assert "choice rows:          191\n" in stdout
        assert "swap outcomes:        302\n" in stdout

    def test_seven_node_counts_are_pinned(self, capsys):
        assert run(["states", "--n", 7, "--tcut", 2]) == 0
        lines = capsys.readouterr().out.splitlines()
        for count in ("boundary states: +2475", "intermediate states: +9665", "decidable states: +9049",
                      "choice rows: +79484", "swap outcomes: +197637", "distinct labelings: +10630"):
            assert sum(bool(re.fullmatch(count, line)) for line in lines) == 1, count

    def test_decodes_no_state(self, tmp_path, monkeypatch):
        # Labelings are counted on codes and action counts read off row offsets.
        assert run(["states", "--n", 5, "--tcut", 2, "--out", tmp_path / "want.json"]) == 0
        want = json.load(open(tmp_path / "want.json"))
        space = enumerate_states(ChainParams(n=5, p=0.5, p_s=0.5, t_cut=2))
        assert want["action_counts"] == [len(a) for a in space.actions]

        def decode(*args):
            raise AssertionError("a state was decoded")

        monkeypatch.setattr(CodeLayout, "state", decode)
        assert run(["states", "--n", 5, "--tcut", 2, "--out", tmp_path / "got.json"]) == 0
        assert json.load(open(tmp_path / "got.json")) == want


class TestStats:
    def test_three_node_swaps_everywhere(self, tmp_path):
        out = tmp_path / "stats.csv"
        code = run(
            ["stats", "--n", 3, "--p", "0.5,0.9", "--ps", 0.5, "--tcut", 2, "--out", out]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2
        for row in rows:
            assert float(row["pct_swap_all"]) == 100.0
            assert float(row["pct_no_swap"]) == 0.0

    def test_one_enumeration_per_structure(self, tmp_path, enumerations):
        out = tmp_path / "stats.csv"
        code = run(
            ["stats", "--n", 5, "--p", "0.3,0.6,0.9", "--ps", 0.5, "--tcut", "2,4",
             "--bunch", "--out", out]
        )
        assert code == 0
        assert enumerations == [(5, 2), (5, 4)]
        rows = list(csv.DictReader(open(out)))
        assert [(r["p"], r["t_cut"]) for r in rows] == [
            (p, t) for p in ("0.3", "0.6", "0.9") for t in "24"
        ]
        for row in rows:
            params = ChainParams(n=5, p=float(row["p"]), p_s=0.5, t_cut=int(row["t_cut"]))
            space, _, solved, _, policy = fresh_solve(params, "pi", use_bunch=True)
            stats = policy_stats(space, expand_policy(space, solved.space, policy))
            assert row["decidable_states"] == str(stats.decidable_states)
            assert row["pct_swap_all"] == f"{100.0 * stats.swap_all_fraction:.17g}"
            assert row["pct_no_swap"] == f"{100.0 * stats.no_swap_fraction:.17g}"


    def test_policy_and_value_iteration_print_the_same_stats(self, capsys):
        args = ["stats", "--n", "5,6", "--p", 0.9, "--ps", 0.5, "--tcut", 2, "--method"]
        assert run([*args, "pi"]) == 0
        pi = capsys.readouterr().out
        assert run([*args, "vi"]) == 0
        assert capsys.readouterr().out == pi

    def test_n_list_rows_equal_the_single_n_runs(self, tmp_path):
        args = ["--p", "0.5,0.9", "--ps", 0.5, "--tcut", "1,2", "--bunch"]
        assert run(["stats", "--n", "4,5", *args, "--out", tmp_path / "both.csv"]) == 0
        rows = []
        for n in (4, 5):
            assert run(["stats", "--n", n, *args, "--out", tmp_path / f"{n}.csv"]) == 0
            rows += list(csv.DictReader(open(tmp_path / f"{n}.csv")))
        assert list(csv.DictReader(open(tmp_path / "both.csv"))) == rows

    @pytest.mark.parametrize("flag", ["--bunch", "--no-bunch"])
    @pytest.mark.parametrize("command", ["compare", "stats", "sweep"])
    def test_decodes_no_state(self, tmp_path, monkeypatch, command, flag):
        # Solving, both kinds of baseline and the action statistics all
        # work on choice-table rows.
        def decode(*args):
            raise AssertionError("a state was decoded")

        monkeypatch.setattr(CodeLayout, "state", decode)
        args = [command, "--n", 5, "--p", 0.9, "--ps", 0.5, "--tcut", 2, flag]
        args += [] if command == "compare" else ["--out", tmp_path / f"{command}.csv"]
        assert run(args) == 0
        if command != "stats":
            assert run(args + ["--baseline", "swap-asap", "--baseline", "modified:3"]) == 0


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, "p": 0.5, "ps": 0.5, "tcut": 1}))
        code = run(["solve", "--config", cfg, "--out", tmp_path / "a"])
        assert code == 0
        out_a = [
            l for l in capsys.readouterr().out.splitlines() if "T_opt" in l
        ][0]
        assert float(out_a.split("=")[1]) == pytest.approx(6.0, abs=1e-6)

        code = run(["solve", "--config", cfg, "--p", 1.0, "--ps", 1.0, "--out", tmp_path / "b"])
        assert code == 0
        out_b = [
            l for l in capsys.readouterr().out.splitlines() if "T_opt" in l
        ][0]
        assert float(out_b.split("=")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_null_takes_the_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, "p": 0.5, "ps": 0.5, "tcut": 1, "trials": None}))
        code = run(["simulate", "--config", cfg, "--out", tmp_path / "sim"])
        assert code == 0
        summary = json.load(open(tmp_path / "sim" / "summary.json"))
        assert summary["trials"] == cli._OPTIONS["trials"].default

    def test_null_for_a_required_option_is_missing(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": None, "p": 0.5, "ps": 0.5, "tcut": 1}))
        code = run(["simulate", "--config", cfg, "--trials", 10, "--out", tmp_path / "sim"])
        assert code == 1
        assert capsys.readouterr().err == "error: missing required option --n\n"

    @pytest.mark.parametrize(
        "command, config",
        [
            ("stats", {"n": 4, "p": 0.5, "ps": 0.5, "tcut": 2, "epsilon": [1e-7]}),
            ("solve", {"n": 4, "p": 0.5, "ps": 0.5, "tcut": [2]}),
            ("simulate", {"n": 4, "p": 0.5, "ps": 0.5, "tcut": 2, "trials": {"count": 10}}),
            ("sweep", {"n": [[4]], "p": 0.5, "ps": 0.5, "tcut": 2}),
        ],
        ids=["stats-epsilon-list", "solve-tcut-list", "simulate-trials-object", "sweep-nested-list"],
    )
    def test_list_for_a_single_value_is_an_error(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code = run([command, "--config", cfg, "--out", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, config, flags, message",
        [
            ("simulate", {"trials": True, "seed": 2.5}, [],
             "option --trials takes an integer, got true"),
            ("simulate", {"trials": 10, "seed": 2.5}, [],
             "option --seed takes an integer, got 2.5"),
            ("compare", {"n": 4.7, "tcut": 2.9}, [],
             "option --n takes an integer, got 4.7"),
            ("compare", {"bunch": "false", "state_cap": 400}, ["--n", 5, "--tcut", 2],
             'option --bunch takes true or false, got "false"'),
            ("compare", {"tcut": "2"}, ["--n", 4],
             'option --tcut takes an integer, got "2"'),
            ("sweep", {"p": [0.5, True]}, ["--n", 3, "--tcut", 1],
             "option --p takes a number, got true"),
            ("compare", {}, ["--n", 4.7, "--tcut", 2],
             "option --n takes an integer, got 4.7"),
            ("solve", {"method": "foo"}, [],
             'option --method takes vi or pi, got "foo"'),
            ("simulate", {"policy": 3}, [],
             "option --policy takes text, got 3"),
            ("solve", {"out": 5}, [],
             "option --out takes text, got 5"),
            ("simulate", {}, ["--trials", "1e3"],
             "option --trials takes an integer, got 1e3"),
            ("compare", {}, ["--method", "foo"],
             "option --method takes vi or pi, got foo"),
            ("simulate", {"method": "foo"}, ["--policy", "swap-asap"],
             'option --method takes vi or pi, got "foo"'),
        ],
        ids=["trials-true", "seed-fraction", "n-fraction", "bunch-text", "tcut-text",
             "sweep-p-true", "flag-n-fraction", "method-text", "policy-number", "out-number",
             "flag-trials-exponent", "flag-method-text", "unread-method-text"],
    )
    def test_value_of_the_wrong_type_is_an_error(self, tmp_path, capsys, command, config, flags, message):
        # Nothing is coerced: a config value must have the option's JSON
        # type, and a flag's text must spell one.  Every value given is
        # checked, whether the command reads it or a flag overrides it.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, "p": 0.5, "ps": 0.5, "tcut": 1, **config}))
        out = ["--out", tmp_path / "out"] if "out" in cli._COMMANDS[command].options else []
        code = run([command, "--config", cfg, *flags, *out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_keys_are_option_names(self, tmp_path, capsys):
        # Keys are spelled as options are named, not as flags; a key of
        # another subcommand is ignored, so one file serves several.
        cfg = tmp_path / "run.json"
        point = {"n": 3, "p": 0.5, "ps": 0.5, "tcut": 1}
        cfg.write_text(json.dumps({**point, "max-iter": 1, "methd": "vi"}))
        assert run(["solve", "--config", cfg, "--out", tmp_path / "a"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config file names unknown options: max-iter, methd\n"
        assert captured.out == ""
        assert not (tmp_path / "a").exists()

        cfg.write_text(json.dumps({**point, "max_iter": 1}))
        assert run(["solve", "--config", cfg, "--method", "vi", "--out", tmp_path / "b"]) == 1
        assert capsys.readouterr().err.startswith("error: value iteration did not converge in 1 sweeps")

        cfg.write_text(json.dumps({**point, "max_iter": 10_000, "trials": 10}))
        assert run(["solve", "--config", cfg, "--method", "vi", "--out", tmp_path / "c"]) == 0

        # Every solver option, by its key.
        cfg.write_text(json.dumps({"n": 4, "p": 0.9, "ps": 0.5, "tcut": 2, "method": "vi", "epsilon": 1e-9,
                                   "max_iter": 100_000, "bunch": True, "state_cap": 100_000}))
        assert run(["solve", "--config", cfg, "--out", tmp_path / "d"]) == 0

    def test_out_key_is_ignored_by_subcommands_that_write_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "p": 0.9, "ps": 0.5, "tcut": 2, "fnew": 0.95, "fmin": 0.8, "tau": 50,
                                   "out": str(tmp_path / "f")}))
        assert run(["compare", "--config", cfg]) == 0
        assert run(["cutoff", "--config", cfg]) == 0
        assert not (tmp_path / "f").exists()

    def test_config_text_is_one_value_even_for_list_options(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 4, "p": 0.7, "ps": 0.5, "tcut": 2, "baseline": "modified:2,3"}))
        assert run(["compare", "--config", cfg]) == 0
        assert "\nT[modified:2,3] = " in capsys.readouterr().out
        cfg.write_text(json.dumps({"n": "4,5", "p": 0.7, "ps": 0.5, "tcut": 2}))
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "grid.csv"]) == 1
        assert capsys.readouterr().err == 'error: option --n takes an integer, got "4,5"\n'


class TestParser:
    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_help_lists_the_subcommand_options(self, capsys, name):
        with pytest.raises(SystemExit) as info:
            run([name, "--help"])
        assert info.value.code == 0
        listed = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
        want = {"--help"}
        for option in cli._COMMANDS[name].options:
            flag = cli._flag(option)
            want |= {flag, "--no-" + flag[2:]} if cli._OPTIONS[option].kind is bool else {flag}
        assert {word.strip("[],") for word in listed} == want

    @pytest.mark.parametrize(
        "args",
        [
            ["compare", "--n", 4, "--p", 0.9, "--ps", 0.5, "--tcut", 2],
            ["cutoff", "--fnew", 0.95, "--fmin", 0.8, "--tau", 50, "--n", 4],
        ],
        ids=["compare", "cutoff"],
    )
    def test_out_is_refused_where_nothing_is_written(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as info:
            run(args + ["--out", tmp_path / "f"])
        assert info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()
