import csv
import json

import pytest

from repeaterchain import cli
from repeaterchain.chain import ChainParams, encode_state
from repeaterchain.cli import load_policy_json, main
from repeaterchain.mdp import TransitionModel
from repeaterchain.sim import SimConfig, estimate
from repeaterchain.solver import (
    SolverConfig,
    evaluate_policy,
    modified_full_state_policy,
    policy_iteration,
    policy_stats,
    swap_asap_policy,
    value_iteration,
)
from repeaterchain.statespace import enumerate_states
from test_walk_reference import expand_policy, expand_values


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def enumerations(monkeypatch):
    """Every (n, t_cut) the CLI enumerates, in call order."""
    calls = []
    original = cli.enumerate_states

    def counted(params, *args, **kwargs):
        calls.append((params.n, params.t_cut))
        return original(params, *args, **kwargs)

    monkeypatch.setattr(cli, "enumerate_states", counted)
    return calls


def fresh_solve(params, method, use_bunch):
    """The per-point path: enumerate (folded too when bunching), build, solve."""
    space = enumerate_states(params)
    model = TransitionModel.build(space)
    solved = TransitionModel.build(enumerate_states(params, fold=True)) if use_bunch else model
    solve = policy_iteration if method == "pi" else value_iteration
    table, policy = solve(solved.space, solved, SolverConfig())
    return space, model, solved, table, policy


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
        assert len(policy.actions) == space.num_intermediate

    def test_vi_and_pi_agree(self, tmp_path, capsys):
        values = {}
        for method in ("vi", "pi"):
            code = run(
                ["solve", "--n", 4, "--p", 0.6, "--ps", 0.5, "--tcut", 2,
                 "--method", method, "--out", tmp_path / method]
            )
            assert code == 0
            line = [
                l for l in capsys.readouterr().out.splitlines() if "T_opt" in l
            ][0]
            values[method] = float(line.split("=")[1])
        assert values["vi"] == pytest.approx(values["pi"], rel=1e-6)

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
        actions = expand_policy(space, solved.space, policy).actions

        rows = list(csv.reader(open(tmp_path / "bunch" / "values.csv")))[1:]
        want = [[json.dumps(encode_state(s)), f"{v:.17g}"] for s, v in zip(space.boundary_states, values)]
        assert len(rows) == space.num_boundary
        assert sorted(rows) == sorted(want)
        entries = json.load(open(tmp_path / "bunch" / "policy.json"))["policy"]
        got = [(tuple(e["state"]), tuple(e["action"])) for e in entries]
        want = [(encode_state(r), tuple(sorted(a))) for r, a in zip(space.intermediate_states, actions)]
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

    BUNCH_ARGS = ["compare", "--n", 4, "--p", 0.7, "--ps", 0.5, "--tcut", 2]

    @staticmethod
    def baseline_t(out, spec):
        line = [l for l in out.splitlines() if l.startswith(f"T[{spec}]")][0]
        return float(line.split("=")[1].split()[0])

    def test_symmetric_baseline_needs_only_the_folded_walk(self, enumerations, capsys):
        args = self.BUNCH_ARGS + ["--baseline", "modified:2,3"]
        assert run(args + ["--bunch"]) == 0
        assert enumerations == [(4, 2)]
        folded = self.baseline_t(capsys.readouterr().out, "modified:2,3")
        assert run(args + ["--no-bunch"]) == 0
        full = self.baseline_t(capsys.readouterr().out, "modified:2,3")
        assert folded == pytest.approx(full, rel=1e-12, abs=0)

    def test_asymmetric_baseline_enumerates_the_full_space_once(self, enumerations, capsys):
        args = self.BUNCH_ARGS + ["--baseline", "modified:2", "--baseline", "modified:3"]
        assert run(args + ["--bunch"]) == 0
        assert enumerations == [(4, 2), (4, 2)]
        folded = capsys.readouterr().out
        assert run(args + ["--no-bunch"]) == 0
        full = capsys.readouterr().out
        for spec in ("modified:2", "modified:3"):
            want = self.baseline_t(full, spec)
            assert self.baseline_t(folded, spec) == pytest.approx(want, rel=1e-12, abs=0)


class TestSweep:
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
            base = evaluate_policy(
                solved.space, solved, swap_asap_policy(solved.space), SolverConfig()
            )
            full = evaluate_policy(space, model, swap_asap_policy(space), SolverConfig())
            assert base.t0 == pytest.approx(full.t0, rel=1e-12, abs=0)
            assert row["T_opt"] == f"{table.t0:.17g}"
            assert row["T_swap_asap"] == f"{base.t0:.17g}"
            assert row["iterations"] == str(table.iterations)
            assert row["error"] == ""
        # Structures live for one command: a second sweep enumerates again.
        assert run(args) == 0
        assert len(enumerations) == 8


class TestSimulate:
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
