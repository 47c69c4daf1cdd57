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
Every option is described once, in ``_OPTIONS``.  Every subcommand accepts
``--config FILE`` with a JSON object keyed by option names (``max_iter``,
not ``max-iter``); explicit flags override the file, keys of other
subcommands' options are ignored, and any other key is an error.  A bad
value, from a flag or from the file, exits 1 with one ``error:`` line.
CSV and JSON floats carry 17 significant digits so downstream processing
is bit-stable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainParams, StateCodes, mirror_action
from .mdp import TransitionModel
from .sim import SimConfig, TrajectoryError, estimate
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


@dataclass(frozen=True)
class _Option:
    """What an option takes: ``kind`` is int, float, bool, str or a tuple of allowed texts.

    A ``repeat`` option takes one value per flag and is always a list.
    """

    kind: type | tuple[str, ...]
    help: str
    default: object = None
    repeat: bool = False


#: Every option of every subcommand; its flag is ``--`` and the name with
#: dashes for underscores, and its config-file key is the name itself.
_OPTIONS = {
    "n": _Option(int, "number of nodes"),
    "p": _Option(float, "entanglement generation success probability"),
    "ps": _Option(float, "swap success probability"),
    "tcut": _Option(int, "cutoff time in slots"),
    "method": _Option(("vi", "pi"), "value or policy iteration", "pi"),
    "epsilon": _Option(float, "value-iteration certified relative gap", SolverConfig.epsilon),
    "max_iter": _Option(int, "value-iteration sweep cap", SolverConfig.max_iterations),
    "bunch": _Option(
        bool,
        "fold mirror-image states together before solving; skipped when a baseline withholds "
        "a node set that is not its own mirror image",
        False,
    ),
    "state_cap": _Option(int, "state count ceiling", DEFAULT_STATE_CAP),
    "baseline": _Option(
        str, "baseline policy: swap-asap or modified:<nodes> (repeatable)", ("swap-asap",), repeat=True
    ),
    "workers": _Option(int, "parallel grid workers", 1),
    "policy": _Option(str, "policy file path, or swap-asap | optimal | modified:<nodes>", "swap-asap"),
    "trials": _Option(int, "number of trajectories", 100_000),
    "seed": _Option(int, "master seed for the trial streams", SimConfig.master_seed),
    "max_slots": _Option(int, "per-trial slot cap", SimConfig.max_slots),
    "fnew": _Option(float, "fidelity of newly generated links"),
    "fmin": _Option(float, "minimum acceptable end-to-end fidelity"),
    "tau": _Option(float, "memory decay constant"),
    "config": _Option(str, "JSON file of option values keyed by option name, like max_iter; flags win"),
    "out": _Option(str, "output directory or file, depending on the subcommand"),
}

_CHAIN = ("n", "p", "ps", "tcut")
_SOLVER = ("method", "epsilon", "max_iter", "bunch", "state_cap")

_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "text"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _typed(name: str, value, flag_text: bool):
    """``value`` as option ``name`` takes it, if it has the option's JSON type.

    Numbers also come as text from flags, which must then spell one;
    nothing else is converted, so ``true`` is no integer, ``2.5`` no
    integer, ``"2"`` in a config file no integer and ``"false"`` no boolean.
    """
    kind = _OPTIONS[name].kind
    if isinstance(kind, tuple):
        valid = isinstance(value, str) and value in kind
    elif kind in (str, bool):
        valid = isinstance(value, kind)
    elif flag_text and isinstance(value, str):
        try:
            return kind(value)
        except ValueError:
            valid = False
    else:
        valid = type(value) is int or (kind is float and type(value) is float)
    if not valid:
        takes = " or ".join(kind) if isinstance(kind, tuple) else _KINDS[kind]
        shown = value if flag_text and isinstance(value, str) else json.dumps(value)
        raise ValueError(f"option {_flag(name)} takes {takes}, got {shown}")
    return value if isinstance(kind, tuple) else kind(value)


def _items(value, flag_text: bool) -> list:
    """A list's items, the non-blank fields of comma-separated flag text, or one value; never empty."""
    if isinstance(value, list):
        items = value
    elif flag_text and isinstance(value, str):
        items = [v for v in value.split(",") if v.strip()]
    else:
        items = [value]
    if not items:
        raise ValueError(f"empty list of values: {value!r}")
    return items


class _Options:
    """A command's option values, typed when built: flags over the config file over defaults.

    ``null`` in the config file counts as absent.  Config keys that are
    options of other subcommands are ignored; any other unknown key is an
    error.
    """

    def __init__(self, args: argparse.Namespace, command: "_Command"):
        cfg = {}
        if args.config is not None:
            with open(args.config) as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise ValueError("config file must hold a JSON object")
            unknown = [key for key in cfg if key not in _OPTIONS]
            if unknown:
                raise ValueError(f"config file names unknown options: {', '.join(unknown)}")
        self._values = {}
        for name in command.options:
            listed = name in command.lists or _OPTIONS[name].repeat
            given = [
                [_typed(name, v, flag_text) for v in _items(value, flag_text)]
                if listed
                else _typed(name, value, flag_text)
                for value, flag_text in ((getattr(args, name), True), (cfg.get(name), False))
                if value is not None
            ]
            self._values[name] = given[0] if given else _OPTIONS[name].default

    def get(self, name: str, required: bool = False):
        value = self._values[name]
        if value is None and required:
            raise ValueError(f"missing required option {_flag(name)}")
        return value


def _solver_config(opt: _Options) -> SolverConfig:
    return SolverConfig(epsilon=opt.get("epsilon"), max_iterations=opt.get("max_iter"))


def _chain_params(opt: _Options) -> ChainParams:
    return ChainParams(*(opt.get(name, required=True) for name in _CHAIN))


def _model(params: ChainParams, opt: _Options, withheld=()) -> TransitionModel:
    """The enumerated states and arcs of ``params``' (n, t_cut), solvable at any (p, p_s).

    States and arcs depend only on (n, t_cut), so each solve respecializes
    the model to its (p, p_s) instead of walking the dynamics again.  The
    walk folds mirror images under bunching, unless some ``withheld`` node
    set is not its own mirror image: such a baseline needs the unfolded
    space, so the walk then skips folding.
    """
    fold = opt.get("bunch") and all(mirror_action(nodes, params.n) == nodes for nodes in withheld)
    return TransitionModel.build(enumerate_states(params, state_cap=opt.get("state_cap"), fold=fold))


def _solve(
    model: TransitionModel, p: float, p_s: float, method: str, config: SolverConfig
) -> tuple[TransitionModel, ValueTable, Policy]:
    """The model respecialized to (p, p_s), with its optimal values and policy.

    The values and policy live on the model's space, folded or not.  The
    empty state keeps index 0 in a folded space, so ``table.t0`` needs no
    unfolding.
    """
    model = model.respecialized(p, p_s)
    if method == "pi":
        table, policy = policy_iteration(model)
    else:
        table, policy = value_iteration(model, config)
    return model, table, policy


def _baseline_t0(model: TransitionModel, withheld: frozenset[int]) -> float:
    """Delivery time from the empty state of the baseline that withholds ``withheld``."""
    return evaluate_policy(model, modified_full_state_policy(model.space, withheld)).t0


def _grid(opt: _Options) -> list[tuple[int, float, float, int]]:
    """Every (n, p, p_s, t_cut) of the list options, in that nesting order (n slowest)."""
    return list(product(*(opt.get(name, required=True) for name in _CHAIN)))


def _write_rows(out: str | Path | None, rows: list[dict]) -> None:
    """``rows`` as CSV to the file ``out``, else to stdout, headed by the union of their keys."""
    keys = list(dict.fromkeys(key for row in rows for key in row))
    with open(out, "w", newline="") if out else nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, restval="")
        writer.writeheader()
        writer.writerows(rows)


def _load_scipy() -> None:
    """Import the scipy modules that a solve uses, so that no solve's timer holds their import.

    Commands that build no matrix never call this, and so import no scipy.
    """
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401


def _grid_rows(opt: _Options, group_rows, workers: int = 1) -> list[dict]:
    """The grid's rows in grid order, ``group_rows(opt, points)`` making those of each (n, t_cut).

    Structures come in order of first appearance, each listing its points
    p_s-major (p_s values in order of first appearance, ties in grid order)
    so that consecutive points share the choice table, and are spread over
    ``min(workers, structures)`` processes, none when that is 1.
    """
    # Loaded before the workers fork, scipy is shared: importing it in each worker took 0.37 s
    # more CPU and no less wall time (n = 5, two structures, two workers on a 2-CPU Intel Xeon).
    _load_scipy()
    points, ps = _grid(opt), opt.get("ps")
    groups: dict[tuple[int, int], list[int]] = {}
    # The grid holds every (n, t_cut) at every p_s, so sorting keeps the structures' order.
    for i in sorted(range(len(points)), key=lambda i: ps.index(points[i][2])):
        groups.setdefault((points[i][0], points[i][3]), []).append(i)
    tasks = [[points[i] for i in group] for group in groups.values()]
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # the other commands skip its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(group_rows, opt), tasks))
    else:
        results = [group_rows(opt, task) for task in tasks]
    placed = dict(zip((i for group in groups.values() for i in group), (row for rows in results for row in rows)))
    return [placed[i] for i in range(len(points))]


def _withheld_nodes(spec: str, n: int | None = None) -> frozenset[int]:
    """Nodes a baseline leaves unswapped in full states: none for swap-asap.

    With ``n``, they must be interior nodes of an ``n``-node chain.
    """
    spec = spec.strip()
    if spec == "swap-asap":
        nodes = frozenset()
    elif spec.startswith("modified:"):
        try:
            nodes = frozenset(int(v) for v in spec.split(":", 1)[1].split(",") if v.strip())
        except ValueError:
            raise ValueError(f"baseline policy {spec!r} names a node that is no integer") from None
        if not nodes:
            raise ValueError(f"baseline policy {spec!r} names no nodes (swap-asap withholds none)")
    else:
        raise ValueError(f"unknown baseline policy {spec!r} (use swap-asap or modified:<nodes>)")
    if n is not None:
        baseline_rule(n, nodes)  # raises unless every node is interior
    return nodes


# -- exports ------------------------------------------------------------------------


def write_values_csv(path, space, table) -> None:
    """One row per unfolded boundary state.

    On a folded space each mirror image follows its representative.  Each
    row's text is joined directly, as ``csv`` would write it: the state is
    the JSON list of its ages (a list of ints prints as its JSON text),
    which holds commas and so is quoted.
    """
    digits, owner, _ = space.unfolded()
    ages = StateCodes(space.params.n, space.params.t_cut).ages(digits).tolist()
    values = [_fmt(value) for value in table.values.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("state,expected_delivery_time\r\n")
        fh.writelines([f'"{a}",{values[o]}\r\n' for a, o in zip(ages, owner.tolist())])


def _header(params: ChainParams) -> dict:
    """The keys that open every JSON export of one parameter point."""
    return {
        "schema_version": SCHEMA_VERSION,
        "n": params.n,
        "p": params.p,
        "p_s": params.p_s,
        "t_cut": params.t_cut,
    }


def _write_json(path, doc: dict) -> None:
    """``doc`` on one line.

    json's C encoder serves only ``dumps`` without ``indent``, and ``print``
    adds the newline without copying the text.
    """
    with open(path, "w") as fh:
        print(json.dumps(doc), file=fh)


def write_policy_json(path, space, policy) -> None:
    """One entry per unfolded intermediate state, in :func:`write_values_csv`'s order.

    A mirror image takes its representative's action, mirrored (:meth:`Policy.unfolded`).
    """
    digits, actions = policy.unfolded(space)
    ages = StateCodes(space.params.n, space.params.t_cut).ages(digits).tolist()
    # Each distinct action's node list, made once and shared by the entries.
    nodes = {a: sorted(a) for a in set(actions)}
    entries = [{"state": s, "action": nodes[a]} for s, a in zip(ages, actions)]
    _write_json(path, {**_header(space.params), "policy": entries})


def _is_policy_entry(entry) -> bool:
    """Whether ``entry`` is a ``{"state": [age, ...], "action": [node, ...]}`` object.

    Every list item is a JSON integer (``true`` is none, nor is ``1.0``),
    and an age is -1 for an absent link or from 0 up.
    """
    return (
        isinstance(entry, dict)
        and all(
            isinstance(entry.get(key), list) and {int}.issuperset(map(type, entry[key])) for key in ("state", "action")
        )
        and min(entry["state"], default=-1) >= -1
    )


def load_policy_json(path, space) -> Policy:
    """Read a policy export as the policy on ``space`` that takes the file's actions.

    The file must describe exactly the space's intermediate states (same n,
    same t_cut, as JSON integers, same state set), each once with one of its
    available actions; anything else is a ``ValueError`` naming the problem.
    """
    return _file_policy(_policy_entries(path, space.params), space)


def _policy_entries(path, params: ChainParams) -> list:
    """A policy export's entries, if it is for ``params``' n and t_cut; needs no walked space."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("policy file must hold a JSON object")
    n, t_cut = doc.get("n"), doc.get("t_cut")
    if type(n) is not int or type(t_cut) is not int or (n, t_cut) != (params.n, params.t_cut):
        raise ValueError(
            f"policy file is for n={json.dumps(n)}, t_cut={json.dumps(t_cut)}; "
            f"expected n={params.n}, t_cut={params.t_cut}"
        )
    entries = doc.get("policy")
    if not isinstance(entries, list):
        raise ValueError("policy file needs a 'policy' list of state/action entries")
    return entries


def _file_policy(entries: list, space) -> Policy:
    """The policy on ``space`` of :func:`_policy_entries`' entries, each state found by its code."""
    coder, rows = StateCodes(space.params.n, space.params.t_cut), [None] * space.num_intermediate
    index = {code: r for r, code in enumerate(space.intermediate_codes.tolist())}
    offsets = space.row_offsets.tolist()
    for entry in entries:
        if not _is_policy_entry(entry):
            raise ValueError(
                "policy entry needs a 'state' and an 'action' list of integers, "
                f"link ages -1 (no link) or from 0 up: {entry!r}"
            )
        try:
            idx = index[coder.code_of_ages(entry["state"])]
        except KeyError:
            raise ValueError(f"policy file lists a state not in the enumerated space: {entry['state']}") from None
        if rows[idx] is not None:
            raise ValueError(f"policy file lists state {entry['state']} twice")
        try:
            rows[idx] = offsets[idx] + space.actions[idx].index(frozenset(entry["action"]))
        except ValueError:
            raise ValueError(f"action {entry['action']} is not available in state {entry['state']}") from None
    missing = rows.count(None)
    if missing:
        raise ValueError(f"policy file misses {missing} enumerated intermediate states")
    return Policy(rows)


# -- subcommands --------------------------------------------------------------------


def cmd_cutoff(opt: _Options) -> int:
    fparams = FidelityParams(
        f_new=opt.get("fnew", required=True),
        f_min=opt.get("fmin", required=True),
        tau=opt.get("tau", required=True),
    )
    n = opt.get("n", required=True)
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
    _load_scipy()
    t0 = time.perf_counter()
    model, table, policy = _solve(_model(params, opt), params.p, params.p_s, opt.get("method"), config)
    space = model.space
    elapsed = time.perf_counter() - t0
    # Unfolded counts: the files list every state of each mirror pair.
    boundary = int(space.boundary_weights.sum())
    intermediate = int(space.intermediate_weights.sum())
    print(f"states: {boundary} boundary, {intermediate} intermediate")
    print(f"method: {opt.get('method')}  iterations: {table.iterations}  gap: {table.residual:.3e}")
    print(f"T_opt(empty state) = {_fmt(table.t0)}")
    print(f"wall time: {elapsed:.2f} s")
    out = Path(opt.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_values_csv(out / "values.csv", space, table)
    write_policy_json(out / "policy.json", space, policy)
    print(f"wrote {out / 'values.csv'} and {out / 'policy.json'}")
    return 0


def cmd_compare(opt: _Options) -> int:
    params = _chain_params(opt)
    config = _solver_config(opt)
    specs = opt.get("baseline")
    withheld = [_withheld_nodes(spec, params.n) for spec in specs]
    model = _model(params, opt, withheld)
    model, table, _ = _solve(model, params.p, params.p_s, opt.get("method"), config)
    t_opt = table.t0
    print(f"T_opt = {_fmt(t_opt)}")
    for spec, nodes in zip(specs, withheld):
        t_base = _baseline_t0(model, nodes)
        adv = relative_advantage(t_base, t_opt)
        print(f"T[{spec}] = {_fmt(t_base)}   advantage = {_fmt(adv)} ({100 * adv:.3f}%)")
    return 0


def _sweep_group(opt: _Options, points: list[tuple[int, float, float, int]]) -> list[dict]:
    """CSV rows of the (n, p, p_s, t_cut) grid points of one (n, t_cut), errors recorded in-row.

    The model is built at the first solved point, the first with valid
    parameters, whose ``wall_time_s`` includes the build, and reused by the
    rest.  Each point respecializes the last solved point's model, so it
    keeps the matrix that its p or its p_s leaves unchanged.  A failed build
    puts its error in its own row and in every later row of the group.
    """
    specs = opt.get("baseline")
    model = build_error = None
    rows = []
    for n, p, p_s, t_cut in points:
        row = {"n": n, "p": p, "p_s": p_s, "t_cut": t_cut}
        try:
            params = ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut)
            config = _solver_config(opt)
            withheld = [_withheld_nodes(spec, n) for spec in specs]
            t0 = time.perf_counter()
            if model is None and build_error is None:
                try:
                    model = _model(params, opt, withheld)
                except Exception as exc:
                    build_error = exc
            if build_error is not None:
                raise build_error
            model, table, _ = _solve(model, p, p_s, opt.get("method"), config)
            space, t_opt = model.space, table.t0
            # Unfolded counts: a folded state stands for its whole mirror pair.
            row["boundary_states"] = int(space.boundary_weights.sum())
            row["intermediate_states"] = int(space.intermediate_weights.sum())
            row["iterations"] = table.iterations
            row["T_opt"] = _fmt(t_opt)
            for spec, nodes in zip(specs, withheld):
                t_base = _baseline_t0(model, nodes)
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
    workers = opt.get("workers")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _grid(opt)  # a missing or empty grid list is reported before a bad baseline
    for spec in opt.get("baseline"):
        _withheld_nodes(spec)
    rows = _grid_rows(opt, _sweep_group, workers)
    _write_rows(opt.get("out"), rows)
    failures = sum(1 for row in rows if row["error"])
    if failures:
        print(f"{failures} of {len(rows)} grid points failed", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(opt: _Options) -> int:
    params = _chain_params(opt)
    config = _solver_config(opt)
    sim_config = SimConfig(
        trials=opt.get("trials"),
        master_seed=opt.get("seed"),
        max_slots=opt.get("max_slots"),
    )
    spec = opt.get("policy")
    if spec == "optimal":
        model, _, policy = _solve(_model(params, opt), params.p, params.p_s, opt.get("method"), config)
        rule = policy.state_map(model.space)
    elif spec == "swap-asap" or spec.startswith("modified:"):
        rule = baseline_rule(params.n, _withheld_nodes(spec))
    else:
        entries = _policy_entries(spec, params)
        space = enumerate_states(params, state_cap=opt.get("state_cap"))
        rule = _file_policy(entries, space).state_map(space)
    result = estimate(params, rule, sim_config)
    print(f"trials: {result.trials}   master seed: {result.master_seed}")
    print(f"mean delivery time: {_fmt(result.mean)} +- {_fmt(result.stderr)} (stderr)")
    out = Path(opt.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "histogram.csv", [{"delivery_time": t, "count": c} for t, c in result.histogram.items()])
    summary = {
        **_header(params),
        "policy": spec,
        "trials": result.trials,
        "master_seed": result.master_seed,
        "mean": result.mean,
        "stderr": result.stderr,
    }
    _write_json(out / "summary.json", summary)
    print(f"wrote {out / 'histogram.csv'} and {out / 'summary.json'}")
    return 0


def cmd_states(opt: _Options) -> int:
    n = opt.get("n", required=True)
    t_cut = opt.get("tcut", required=True)
    params = ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut)
    space = enumerate_states(params, state_cap=opt.get("state_cap"))
    bound = count_lower_bound(n, t_cut)
    labelings = distinct_labeled_states(space)
    print(f"boundary states:      {space.num_boundary}")
    print(f"intermediate states:  {space.num_intermediate}")
    print(f"decidable states:     {space.num_decidable}")
    print(f"choice rows:          {space.row_offsets[-1]}")
    print(f"swap outcomes:        {len(space.outcome_targets)}")
    print(f"distinct labelings:   {labelings}")
    print(f"analytic lower bound: {bound}")
    print(f"bound satisfied:      {labelings >= bound}")
    out = opt.get("out")
    if out:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "t_cut": t_cut,
            "boundary_states": space.num_boundary,
            "intermediate_states": space.num_intermediate,
            "decidable_states": space.num_decidable,
            "choice_rows": int(space.row_offsets[-1]),
            "swap_outcomes": len(space.outcome_targets),
            "distinct_labelings": labelings,
            "lower_bound": bound,
            "bound_satisfied": labelings >= bound,
            "action_counts": np.diff(space.row_offsets).tolist(),
        }
        _write_json(out, doc)
        print(f"wrote {out}")
    return 0 if labelings >= bound else 1


def _stats_group(opt: _Options, points: list[tuple[int, float, float, int]]) -> list[dict]:
    """Action-statistics rows of one (n, t_cut)'s points, each on the last one's model; errors end the command."""
    config, rows = _solver_config(opt), []
    model = _model(ChainParams(*points[0]), opt)
    for n, p, p_s, t_cut in points:
        model, _, policy = _solve(model, p, p_s, opt.get("method"), config)
        stats = policy_stats(model.space, policy)
        row = {"n": n, "p": p, "p_s": p_s, "t_cut": t_cut, "decidable_states": stats.decidable_states}
        row["pct_swap_all"] = _fmt(100.0 * stats.swap_all_fraction)
        row["pct_no_swap"] = _fmt(100.0 * stats.no_swap_fraction)
        rows.append(row)
    return rows


def cmd_stats(opt: _Options) -> int:
    points, _ = _grid(opt), _solver_config(opt)
    for point in points:  # every point is checked before any is solved
        ChainParams(*point)
    _write_rows(opt.get("out"), _grid_rows(opt, _stats_group))
    return 0


# -- parser -------------------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """A subcommand: its function, help, options in order, and those taking comma-separated lists.

    Every subcommand also takes ``--config``, listed last.
    """

    func: object
    help: str
    own_options: tuple[str, ...]
    lists: tuple[str, ...] = ()

    @property
    def options(self) -> tuple[str, ...]:
        return (*self.own_options, "config")


_COMMANDS = {
    "cutoff": _Command(cmd_cutoff, "maximum cutoff time for a fidelity budget", ("fnew", "fmin", "tau", "n")),
    "solve": _Command(cmd_solve, "solve for an optimal policy", (*_CHAIN, *_SOLVER, "out")),
    "compare": _Command(cmd_compare, "optimal policy versus baselines", (*_CHAIN, *_SOLVER, "baseline")),
    "sweep": _Command(cmd_sweep, "parameter grid to CSV", (*_CHAIN, *_SOLVER, "baseline", "workers", "out"), _CHAIN),
    "simulate": _Command(
        cmd_simulate,
        "Monte Carlo delivery-time distribution",
        (*_CHAIN, *_SOLVER, "policy", "trials", "seed", "max_slots", "out"),
    ),
    "states": _Command(cmd_states, "state-space size report", ("n", "tcut", "state_cap", "out")),
    "stats": _Command(cmd_stats, "optimal-policy action statistics over a grid", (*_CHAIN, *_SOLVER, "out"), _CHAIN),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommands, whose flags are parsed as text and typed later by :class:`_Options`.

    Built once per process; parsing leaves the parser as it was.
    """
    parser = argparse.ArgumentParser(
        prog="repeaterchain",
        description="Optimal entanglement-swapping policies for repeater chains with cutoffs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command_name, command in _COMMANDS.items():
        command_parser = sub.add_parser(command_name, help=command.help)
        for name in command.options:
            option, kwargs = _OPTIONS[name], {}
            kwargs["help"] = option.help + (" (comma-separated list)" if name in command.lists else "")
            if option.kind is bool:
                kwargs["action"] = argparse.BooleanOptionalAction
            elif option.repeat:
                kwargs["action"] = "append"
            if isinstance(option.kind, tuple):
                kwargs["metavar"] = "{" + ",".join(option.kind) + "}"
            command_parser.add_argument(_flag(name), **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command = _COMMANDS[args.command]
        return command.func(_Options(args, command))
    except (ValueError, ConvergenceError, StateCapExceeded, TrajectoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
