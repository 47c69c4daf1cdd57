"""Command-line front end: solves, comparisons, sweeps, simulation, reports.

Subcommands
-----------
cutoff     translate a fidelity budget into the maximum cutoff time
solve      compute an optimal policy and export values/policy files
compare    optimal policy versus baseline policies at one parameter point
sweep      grid of parameter points to CSV (reproducible experiment runs)
simulate   Monte Carlo delivery-time distribution of a policy
states     state-space size report and analytic lower-bound check
stats      swap-all / no-swap action fractions of the optimal policy

All output is data (text, CSV, JSON); plotting is left to external tools.
Every subcommand accepts ``--config FILE`` with a JSON object whose keys
mirror the flag names; explicit flags override the file.  CSV and JSON
floats carry 17 significant digits so downstream processing is bit-stable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import __version__
from .chain import ChainParams, decode_state, encode_state, mirror, mirror_action
from .mdp import TransitionModel
from .sim import SimConfig, estimate
from .solver import (
    ConvergenceError,
    Policy,
    SolverConfig,
    ValueTable,
    baseline_rule,
    evaluate_policy,
    modified_full_state_policy,
    policy_iteration,
    policy_stats,
    relative_advantage,
    value_iteration,
)
from .statespace import (
    DEFAULT_STATE_CAP,
    StateCapExceeded,
    count_lower_bound,
    distinct_labeled_states,
    enumerate_states,
)
from .werner import FidelityParams, InfeasibleCutoffError, max_cutoff, worst_case_fidelity

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _items(value) -> list:
    """A config-file list, or the non-blank fields of comma-separated text; never empty."""
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [v for v in str(value).split(",") if v.strip()]
    if not items:
        raise ValueError(f"empty list of values: {value!r}")
    return items


def _floats(value) -> list[float]:
    if isinstance(value, (int, float)):
        return [float(value)]
    return [float(v) for v in _items(value)]


def _ints(value) -> list[int]:
    if isinstance(value, int):
        return [value]
    return [int(v) for v in _items(value)]


class _Options:
    """Post-parse view merging CLI flags, the JSON config file, and defaults."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        self._args = args
        self._defaults = defaults
        self._cfg = {}
        if getattr(args, "config", None):
            with open(args.config) as fh:
                self._cfg = json.load(fh)
            if not isinstance(self._cfg, dict):
                raise ValueError("config file must hold a JSON object")

    def get(self, name: str):
        value = getattr(self._args, name, None)
        if value is None:
            value = self._cfg.get(name, self._defaults.get(name))
        return value

    def require(self, name: str):
        value = self.get(name)
        if value is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        return value


_SOLVER_DEFAULTS = {
    "epsilon": 1e-7,
    "max_iter": 1_000_000,
    "method": "pi",
    "bunch": False,
    "state_cap": DEFAULT_STATE_CAP,
    "workers": 1,
    "eval_method": "direct",
}

_SIM_DEFAULTS = {"trials": 100_000, "seed": 0, "max_slots": 1_000_000}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file whose keys mirror the flags; flags win")
    sp.add_argument("--out", help="output directory or file, depending on the subcommand")


def _add_chain(sp: argparse.ArgumentParser, lists: bool = False) -> None:
    hint = " (comma-separated list)" if lists else ""
    sp.add_argument("--n", help=f"number of nodes{hint}")
    sp.add_argument("--p", help=f"entanglement generation success probability{hint}")
    sp.add_argument("--ps", help=f"swap success probability{hint}")
    sp.add_argument("--tcut", help=f"cutoff time in slots{hint}")


def _add_solver(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--method", choices=["vi", "pi"], help="value or policy iteration")
    sp.add_argument("--epsilon", type=float, help="sweep convergence tolerance")
    sp.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap")
    sp.add_argument(
        "--eval-method",
        dest="eval_method",
        choices=["direct", "sweep"],
        help="fixed-policy evaluation: sparse solve or iterative sweeps",
    )
    sp.add_argument(
        "--bunch",
        action=argparse.BooleanOptionalAction,
        help="fold mirror-image states together before solving",
    )
    sp.add_argument("--state-cap", dest="state_cap", type=int, help="state count ceiling")


def _solver_config(opt: _Options) -> SolverConfig:
    return SolverConfig(
        epsilon=float(opt.get("epsilon")),
        max_iterations=int(opt.get("max_iter")),
        evaluation=opt.get("eval_method"),
    )


def _chain_params(opt: _Options) -> ChainParams:
    return ChainParams(
        n=int(opt.require("n")),
        p=float(opt.require("p")),
        p_s=float(opt.require("ps")),
        t_cut=int(opt.require("tcut")),
    )


class _Structure:
    """The enumerated states and arcs of one (n, t_cut), solvable at any (p, p_s).

    States and arcs depend only on (n, t_cut), so each solve respecializes
    them to its (p, p_s) instead of walking the dynamics again.  With
    bunching the walk folds mirror images; the unfolded structure is
    enumerated only for baselines that are not mirror-symmetric, and then
    once.  A structure lives only as long as the command that built it.
    """

    def __init__(self, params: ChainParams, state_cap: int, use_bunch: bool):
        self._params = params
        self._state_cap = state_cap
        space = enumerate_states(params, state_cap=state_cap, fold=use_bunch)
        self.model = TransitionModel.build(space)
        self._full = None if use_bunch else self.model

    def full_model(self) -> TransitionModel:
        """The unfolded model, enumerated on first use when bunching."""
        if self._full is None:
            space = enumerate_states(self._params, state_cap=self._state_cap)
            self._full = TransitionModel.build(space)
        return self._full

    def solve(self, p: float, p_s: float, method: str, config: SolverConfig) -> "_Solution":
        model = self.model.respecialized(p, p_s)
        solve = policy_iteration if method == "pi" else value_iteration
        table, policy = solve(model.space, model, config)
        return _Solution(self, model, table, policy)


@dataclass(frozen=True)
class _Solution:
    """An optimal solve at one (p, p_s).

    ``model`` is the solved model at (p, p_s), folded when bunching, and
    ``table`` and ``policy`` live on ``model.space``.  The empty state keeps
    index 0 in a folded space, so ``table.t0`` needs no unfolding.
    """

    structure: _Structure
    model: TransitionModel
    table: ValueTable
    policy: Policy

    @cached_property
    def full(self) -> TransitionModel:
        """The unfolded model at (p, p_s): ``model`` itself unless bunching."""
        if not self.model.space.folded:
            return self.model
        params = self.model.params
        return self.structure.full_model().respecialized(params.p, params.p_s)

    def baseline_t0(self, spec: str, config: SolverConfig) -> float:
        """Delivery time of a baseline policy from the empty state.

        A baseline that withholds a mirror-symmetric node set acts on mirror
        images by mirrored actions, so it is evaluated on the solved model
        even when that is folded.
        """
        withheld = _withheld_nodes(spec)
        symmetric = mirror_action(withheld, self.model.params.n) == withheld
        model = self.model if symmetric else self.full
        policy = modified_full_state_policy(model.space, withheld)
        return evaluate_policy(model.space, model, policy, config).t0


def _structure_groups(keys: list[tuple[int, int]]) -> list[list[int]]:
    """Grid-point indices grouped by (n, t_cut), groups in order of first appearance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _solve_point(opt: _Options, params: ChainParams, config: SolverConfig) -> _Solution:
    """Build the structure of a single-point command and solve it."""
    structure = _Structure(params, int(opt.get("state_cap")), bool(opt.get("bunch")))
    return structure.solve(params.p, params.p_s, opt.get("method"), config)


def _withheld_nodes(spec: str) -> frozenset[int]:
    """Nodes a baseline leaves unswapped in full states: none for swap-asap."""
    spec = spec.strip()
    if spec == "swap-asap":
        return frozenset()
    if spec.startswith("modified:"):
        return frozenset(int(v) for v in spec.split(":", 1)[1].split(",") if v.strip())
    raise ValueError(f"unknown baseline policy {spec!r} (use swap-asap or modified:<nodes>)")


class _BaselineMap(dict):
    """A baseline's state-to-action lookup that works each action out on first use."""

    def __init__(self, rule):
        self._rule = rule

    def __missing__(self, state):
        action = self[state] = self._rule(state)
        return action


# -- exports ------------------------------------------------------------------------


def write_values_csv(path, space, table) -> None:
    """One row per unfolded boundary state.

    On a folded space each mirror image follows its representative.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "expected_delivery_time"])
        weights = space.boundary_weights.tolist()
        for state, value, weight in zip(space.boundary_states, table.values, weights):
            row_value = _fmt(value)
            writer.writerow([json.dumps(encode_state(state)), row_value])
            if weight == 2:
                writer.writerow([json.dumps(encode_state(mirror(state))), row_value])


def write_policy_json(path, space, policy) -> None:
    params = space.params
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": params.n,
        "p": params.p,
        "p_s": params.p_s,
        "t_cut": params.t_cut,
        "policy": [
            {"state": list(encode_state(s)), "action": sorted(a)}
            for s, a in policy.state_map(space).items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_policy_json(path, space) -> Policy:
    """Read a policy export and bind it to an enumerated space.

    The file must describe exactly the space's intermediate states (same n,
    same t_cut, same state set); anything else is a mismatch error.
    """
    with open(path) as fh:
        doc = json.load(fh)
    params = space.params
    if doc.get("n") != params.n or doc.get("t_cut") != params.t_cut:
        raise ValueError(
            f"policy file is for n={doc.get('n')}, t_cut={doc.get('t_cut')}; "
            f"expected n={params.n}, t_cut={params.t_cut}"
        )
    entries = doc["policy"]
    actions: list[frozenset[int] | None] = [None] * space.num_intermediate
    for entry in entries:
        state = decode_state(entry["state"], params.n, intermediate=True)
        idx = space.intermediate_index.get(state)
        if idx is None:
            raise ValueError(f"policy file lists a state not in the enumerated space: {entry['state']}")
        actions[idx] = frozenset(entry["action"])
    missing = sum(1 for a in actions if a is None)
    if missing:
        raise ValueError(f"policy file misses {missing} enumerated intermediate states")
    return Policy(tuple(actions))


# -- subcommands --------------------------------------------------------------------


def cmd_cutoff(opt: _Options) -> int:
    fparams = FidelityParams(
        f_new=float(opt.require("fnew")),
        f_min=float(opt.require("fmin")),
        tau=float(opt.require("tau")),
    )
    n = int(opt.require("n"))
    try:
        bound = max_cutoff(fparams, n)
    except InfeasibleCutoffError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    slots = math.floor(bound)
    f_worst = worst_case_fidelity(fparams, n, bound)
    print(f"cutoff bound: {_fmt(bound)} time units")
    print(f"cutoff slots: {slots}")
    print(f"worst-case end-to-end fidelity at the bound: {_fmt(f_worst)}")
    print(f"round-trip |F_worst - f_min|: {abs(f_worst - fparams.f_min):.3e}")
    if slots < 1:
        print("infeasible: no integer cutoff >= 1 fits the fidelity budget", file=sys.stderr)
        return 1
    return 0


def cmd_solve(opt: _Options) -> int:
    params = _chain_params(opt)
    config = _solver_config(opt)
    t0 = time.perf_counter()
    solution = _solve_point(opt, params, config)
    space, table = solution.model.space, solution.table
    elapsed = time.perf_counter() - t0
    # Unfolded counts: the files list every state of each mirror pair.
    boundary = int(space.boundary_weights.sum())
    intermediate = int(space.intermediate_weights.sum())
    print(f"states: {boundary} boundary, {intermediate} intermediate")
    print(f"method: {opt.get('method')}  iterations: {table.iterations}  residual: {table.residual:.3e}")
    print(f"T_opt(empty state) = {_fmt(table.t0)}")
    print(f"wall time: {elapsed:.2f} s")
    out = Path(opt.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_values_csv(out / "values.csv", space, table)
    write_policy_json(out / "policy.json", space, solution.policy)
    print(f"wrote {out / 'values.csv'} and {out / 'policy.json'}")
    return 0


def cmd_compare(opt: _Options) -> int:
    params = _chain_params(opt)
    config = _solver_config(opt)
    baselines = opt.get("baseline") or ["swap-asap"]
    if isinstance(baselines, str):
        baselines = [baselines]
    solution = _solve_point(opt, params, config)
    t_opt = solution.table.t0
    print(f"T_opt = {_fmt(t_opt)}")
    for spec in baselines:
        t_base = solution.baseline_t0(spec, config)
        adv = relative_advantage(t_base, t_opt)
        print(f"T[{spec}] = {_fmt(t_base)}   advantage = {_fmt(adv)} ({100 * adv:.3f}%)")
    return 0


def _sweep_group(points: list[dict]) -> list[dict]:
    """CSV rows of grid points that share one (n, t_cut), errors recorded in-row.

    The structure is built at the first point with valid parameters, whose
    ``wall_time_s`` includes the build, and reused by the rest.  A failed
    build puts its error in its own row and in every later row of the group.
    """
    structure = build_error = None
    rows = []
    for point in points:
        row = {
            "n": point["n"],
            "p": point["p"],
            "p_s": point["ps"],
            "t_cut": point["tcut"],
        }
        try:
            params = ChainParams(n=point["n"], p=point["p"], p_s=point["ps"], t_cut=point["tcut"])
            config = SolverConfig(
                epsilon=point["epsilon"],
                max_iterations=point["max_iter"],
                evaluation=point["eval_method"],
            )
            t0 = time.perf_counter()
            if structure is None and build_error is None:
                try:
                    structure = _Structure(params, point["state_cap"], point["bunch"])
                except Exception as exc:
                    build_error = exc
            if build_error is not None:
                raise build_error
            solution = structure.solve(params.p, params.p_s, point["method"], config)
            space, t_opt = solution.model.space, solution.table.t0
            # Unfolded counts: a folded state stands for its whole mirror pair.
            row["boundary_states"] = int(space.boundary_weights.sum())
            row["intermediate_states"] = int(space.intermediate_weights.sum())
            row["iterations"] = solution.table.iterations
            row["T_opt"] = _fmt(t_opt)
            for spec in point["baselines"]:
                t_base = solution.baseline_t0(spec, config)
                key = spec.replace(":", "_").replace(",", "_").replace("-", "_")
                row[f"T_{key}"] = _fmt(t_base)
                row[f"advantage_{key}"] = _fmt(relative_advantage(t_base, t_opt))
            row["wall_time_s"] = f"{time.perf_counter() - t0:.3f}"
            row["error"] = ""
        except Exception as exc:  # failures stay in-row; the sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def cmd_sweep(opt: _Options) -> int:
    ns = _ints(opt.require("n"))
    ps = _floats(opt.require("p"))
    pss = _floats(opt.require("ps"))
    tcuts = _ints(opt.require("tcut"))
    baselines = opt.get("baseline") or ["swap-asap"]
    if isinstance(baselines, str):
        baselines = [baselines]
    points = [
        {
            "n": n,
            "p": p,
            "ps": p_s,
            "tcut": t_cut,
            "baselines": baselines,
            "epsilon": float(opt.get("epsilon")),
            "max_iter": int(opt.get("max_iter")),
            "eval_method": opt.get("eval_method"),
            "method": opt.get("method"),
            "bunch": bool(opt.get("bunch")),
            "state_cap": int(opt.get("state_cap")),
        }
        for n in ns
        for p in ps
        for p_s in pss
        for t_cut in tcuts
    ]
    groups = _structure_groups([(point["n"], point["tcut"]) for point in points])
    tasks = [[points[i] for i in group] for group in groups]
    workers = int(opt.get("workers"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_group, tasks))
    else:
        results = [_sweep_group(task) for task in tasks]
    rows: list[dict | None] = [None] * len(points)
    for group, group_rows in zip(groups, results):
        for i, row in zip(group, group_rows):
            rows[i] = row
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    out = opt.get("out")
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out:
            fh.close()
    failures = sum(1 for row in rows if row["error"])
    if failures:
        print(f"{failures} of {len(rows)} grid points failed", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(opt: _Options) -> int:
    params = _chain_params(opt)
    config = _solver_config(opt)
    spec = opt.get("policy") or "swap-asap"
    if spec == "optimal":
        solution = _solve_point(opt, params, config)
        policy_map = solution.policy.state_map(solution.model.space)
    elif spec == "swap-asap" or spec.startswith("modified:"):
        policy_map = _BaselineMap(baseline_rule(params.n, _withheld_nodes(spec)))
    else:
        space = enumerate_states(params, state_cap=int(opt.get("state_cap")))
        policy_map = load_policy_json(spec, space).state_map(space)
    sim_config = SimConfig(
        trials=int(opt.get("trials")),
        master_seed=int(opt.get("seed")),
        max_slots=int(opt.get("max_slots")),
    )
    result = estimate(params, policy_map, sim_config)
    print(f"trials: {result.trials}   master seed: {result.master_seed}")
    print(f"mean delivery time: {_fmt(result.mean)} +- {_fmt(result.stderr)} (stderr)")
    out = Path(opt.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "histogram.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delivery_time", "count"])
        for t, count in result.histogram.items():
            writer.writerow([t, count])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "n": params.n,
        "p": params.p,
        "p_s": params.p_s,
        "t_cut": params.t_cut,
        "policy": spec,
        "trials": result.trials,
        "master_seed": result.master_seed,
        "mean": result.mean,
        "stderr": result.stderr,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out / 'histogram.csv'} and {out / 'summary.json'}")
    return 0


def cmd_states(opt: _Options) -> int:
    n = int(opt.require("n"))
    t_cut = int(opt.require("tcut"))
    params = ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut)
    space = enumerate_states(params, state_cap=int(opt.get("state_cap")))
    bound = count_lower_bound(n, t_cut)
    labelings = distinct_labeled_states(space)
    print(f"boundary states:      {space.num_boundary}")
    print(f"intermediate states:  {space.num_intermediate}")
    print(f"decidable states:     {space.num_decidable}")
    print(f"distinct labelings:   {labelings}")
    print(f"analytic lower bound: {bound}")
    print(f"bound satisfied:      {labelings >= bound}")
    if opt.get("out"):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "t_cut": t_cut,
            "boundary_states": space.num_boundary,
            "intermediate_states": space.num_intermediate,
            "decidable_states": space.num_decidable,
            "distinct_labelings": labelings,
            "lower_bound": bound,
            "bound_satisfied": labelings >= bound,
            "action_counts": [len(a) for a in space.actions],
        }
        with open(opt.get("out"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {opt.get('out')}")
    return 0 if labelings >= bound else 1


def cmd_stats(opt: _Options) -> int:
    n = int(opt.require("n"))
    ps_list = _floats(opt.require("p"))
    pss = _floats(opt.require("ps"))
    tcuts = _ints(opt.require("tcut"))
    config = _solver_config(opt)
    grid = [
        ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut)
        for p in ps_list
        for p_s in pss
        for t_cut in tcuts
    ]
    rows: list[dict | None] = [None] * len(grid)
    for group in _structure_groups([(params.n, params.t_cut) for params in grid]):
        structure = _Structure(
            grid[group[0]], int(opt.get("state_cap")), bool(opt.get("bunch"))
        )
        for i in group:
            params = grid[i]
            solution = structure.solve(params.p, params.p_s, opt.get("method"), config)
            stats = policy_stats(solution.model.space, solution.policy)
            rows[i] = {
                "n": n,
                "p": params.p,
                "p_s": params.p_s,
                "t_cut": params.t_cut,
                "decidable_states": stats.decidable_states,
                "pct_swap_all": _fmt(100.0 * stats.swap_all_fraction),
                "pct_no_swap": _fmt(100.0 * stats.no_swap_fraction),
            }
    out = opt.get("out")
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out:
            fh.close()
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeaterchain",
        description="Optimal entanglement-swapping policies for repeater chains with cutoffs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("cutoff", help="maximum cutoff time for a fidelity budget")
    sp.add_argument("--fnew", help="fidelity of newly generated links")
    sp.add_argument("--fmin", help="minimum acceptable end-to-end fidelity")
    sp.add_argument("--tau", help="memory decay constant")
    sp.add_argument("--n", help="number of nodes")
    _add_common(sp)
    sp.set_defaults(func=cmd_cutoff, defaults={})

    sp = sub.add_parser("solve", help="solve for an optimal policy")
    _add_chain(sp)
    _add_solver(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_solve, defaults=_SOLVER_DEFAULTS)

    sp = sub.add_parser("compare", help="optimal policy versus baselines")
    _add_chain(sp)
    _add_solver(sp)
    sp.add_argument(
        "--baseline",
        action="append",
        help="baseline policy: swap-asap or modified:<nodes> (repeatable)",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_compare, defaults=_SOLVER_DEFAULTS)

    sp = sub.add_parser("sweep", help="parameter grid to CSV")
    _add_chain(sp, lists=True)
    _add_solver(sp)
    sp.add_argument("--baseline", action="append", help="baseline policy (repeatable)")
    sp.add_argument("--workers", type=int, help="parallel grid workers")
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep, defaults=_SOLVER_DEFAULTS)

    sp = sub.add_parser("simulate", help="Monte Carlo delivery-time distribution")
    _add_chain(sp)
    _add_solver(sp)
    sp.add_argument(
        "--policy",
        help="policy file path, or swap-asap | optimal | modified:<nodes>",
    )
    sp.add_argument("--trials", type=int, help="number of trajectories")
    sp.add_argument("--seed", type=int, help="master seed for the trial streams")
    sp.add_argument("--max-slots", dest="max_slots", type=int, help="per-trial slot cap")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate, defaults={**_SOLVER_DEFAULTS, **_SIM_DEFAULTS})

    sp = sub.add_parser("states", help="state-space size report")
    sp.add_argument("--n", help="number of nodes")
    sp.add_argument("--tcut", help="cutoff time in slots")
    sp.add_argument("--state-cap", dest="state_cap", type=int, help="state count ceiling")
    _add_common(sp)
    sp.set_defaults(func=cmd_states, defaults=_SOLVER_DEFAULTS)

    sp = sub.add_parser("stats", help="optimal-policy action statistics over a grid")
    _add_chain(sp, lists=True)
    _add_solver(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_stats, defaults=_SOLVER_DEFAULTS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opt = _Options(args, args.defaults)
        return args.func(opt)
    except (ValueError, ConvergenceError, StateCapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
