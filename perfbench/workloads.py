"""The benchmark's workloads: CLI command lines made from a seed, and output checks.

Every command goes through ``repeaterchain.cli.main`` in this process, the
interface the README documents, so refactors behind the CLI keep the
benchmark valid.  Each output is checked against ``reference.json``, which
holds exact delivery times recorded with ``record_reference.py``:

* policy-iteration and direct-evaluation values must agree to 1e-12
  relative, the precision at which two implementations count as giving
  the same numbers;
* value iteration stops once successive sweeps differ by at most
  ``EPSILON``; the distance left to the fixed point is about ``EPSILON``
  times the expected number of remaining slots, and on this grid it stays
  below ``EPSILON * T`` (at most 0.97 of it), so VI values must lie within
  ``2 * EPSILON * T`` of the exact ``T``;
* Monte Carlo means must lie within four standard errors of the exact value.

The ladder also checks the source paper's printed pair at (5, 2, 0.9, 0.5).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

EXACT_RTOL = 1e-12
EPSILON = 1e-7
VI_TOL_FACTOR = 2.0
MC_STDERRS = 4.0

LADDER_P, LADDER_PS = 0.9, 0.5
LADDER_RUNGS = ((5, 2), (5, 3), (5, 4), (6, 2), (6, 3))
# The traced run's memory probe: the largest structure, too slow (7-9 s) to
# be timed often enough in a run on a machine whose speed drifts.
MEMORY_RUNG = (7, 2)
# The source paper's five-node values, to the four decimals it prints.
PAPER_VALUES = {(5, 2): {"T_opt": 8.3166, "T_swap_asap": 9.3469}}
PAPER_TOL = 5e-5

SWEEP_N = 5
SWEEP_P = (0.3, 0.6, 0.9)
SWEEP_PS = (0.5, 1.0)
SWEEP_TCUT = (2, 3)

# (n, t_cut, p, p_s, policy, trials per command): short optimal-policy trials
# (~8 slots) and long swap-asap trials (~55 slots) separate per-trial from
# per-slot cost.  A pass simulates each point SIM_CHUNKS times, with as many
# master seeds, in commands of about 1.2 s.
SIM_POINTS = (
    (5, 2, 0.9, 0.5, "optimal", 10_000),
    (5, 4, 0.3, 0.5, "swap-asap", 2_500),
)
SIM_CHUNKS = 2


def point_key(n: int, t_cut: int, p: float, p_s: float) -> str:
    return f"{int(n)},{int(t_cut)},{float(p)!r},{float(p_s)!r}"


def reference_points() -> list[tuple[int, int, float, float]]:
    """Every (n, t_cut, p, p_s) whose exact values the checks need."""
    points = [(n, t, LADDER_P, LADDER_PS) for n, t in LADDER_RUNGS + (MEMORY_RUNG,)]
    points += [(SWEEP_N, t, p, ps) for p in SWEEP_P for ps in SWEEP_PS for t in SWEEP_TCUT]
    points += [(n, t, p, ps) for n, t, p, ps, _, _ in SIM_POINTS]
    return sorted(set(points))


def load_reference() -> dict[str, dict[str, float]]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["points"]


@dataclass
class Outcome:
    """Checks attempted and failed, with a line per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def close_to(self, got: float, want: float, tol: float, what: str) -> bool:
        return self.check(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} +- {tol:.3g}")


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code or None if it raised, stdout, stderr) of one in-process CLI call."""
    from repeaterchain import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command; the run goes on
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


_NUMBER = r"([-+0-9.eEinfa]+)"


def _find(pattern: str, text: str) -> float | None:
    match = re.search(pattern, text, re.MULTILINE)
    return float(match.group(1)) if match else None


def compare_argv(n: int, t_cut: int, p: float, p_s: float) -> list[str]:
    """Exact solve of one point: policy iteration, unbunched, swap-asap baseline."""
    return [
        "compare", "--n", str(n), "--p", str(p), "--ps", str(p_s), "--tcut", str(t_cut),
        "--baseline", "swap-asap", "--method", "pi", "--no-bunch",
    ]


def parse_compare(out: str) -> dict[str, float | None]:
    """``T_opt`` and ``T_swap_asap`` from the output of :func:`compare_argv`."""
    return {
        "T_opt": _find(r"^T_opt = " + _NUMBER, out),
        "T_swap_asap": _find(r"^T\[swap-asap\] = " + _NUMBER, out),
    }


@dataclass
class Command:
    """One CLI call of a pass; ``check`` reads its output into an Outcome.

    Every pass of a run repeats the same commands; ``label`` names one of
    them across passes.
    """

    argv: list[str]
    check: object  # callable(code, stdout, stderr, outcome)
    items: int  # points solved or trials simulated
    label: str = ""


def _exit_ok(code, err: str, outcome: Outcome, label: str) -> bool:
    return outcome.check(code == 0, f"{label}: exit {code}: {err.strip()[-400:]}")


class Workload:
    name = ""
    why = ""
    item_unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.reference = load_reference()

    def warmup(self) -> list[Command]:
        """Commands run once before timing, so lazy set-up is done."""
        raise NotImplementedError

    def commands(self) -> list[Command]:
        """One pass: the same commands, in the same order, on every pass of a run."""
        raise NotImplementedError

    def memory_probe(self) -> list[Command]:
        """Commands for the tracemalloc pass: where the pass reaches its memory peaks.

        tracemalloc slows allocation-heavy code about six times, so a full
        pass would not fit a run.
        """
        raise NotImplementedError

    def _ref(self, n, t_cut, p, p_s) -> dict[str, float]:
        return self.reference[point_key(n, t_cut, p, p_s)]


class Ladder(Workload):
    name = "ladder"
    why = "one PI solve per growing (n, t_cut) structure; enumeration and arc building take ~90% of it"
    item_unit = "points"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rungs = list(LADDER_RUNGS)
        self.rng.shuffle(self.rungs)

    def _compare(self, n: int, t_cut: int) -> Command:
        argv = compare_argv(n, t_cut, LADDER_P, LADDER_PS)
        ref = self._ref(n, t_cut, LADDER_P, LADDER_PS)
        label = f"compare n={n} t_cut={t_cut}"
        paper = PAPER_VALUES.get((n, t_cut))

        def check(code, out, err, outcome: Outcome) -> None:
            if not _exit_ok(code, err, outcome, label):
                return
            for key, got in parse_compare(out).items():
                want = ref[key]
                if outcome.check(got is not None, f"{label}: no {key} in output"):
                    outcome.close_to(got, want, EXACT_RTOL * abs(want), f"{label} {key}")
                    if paper:
                        outcome.close_to(got, paper[key], PAPER_TOL, f"{label} {key} vs paper")

        return Command(argv, check, 1, label)

    def warmup(self):
        return [self._compare(*LADDER_RUNGS[0])]

    def commands(self):
        return [self._compare(n, t) for n, t in self.rungs]

    def memory_probe(self):
        # The largest structure: layer memory peaks grow with it.
        return [self._compare(*MEMORY_RUNG)]


class SweepVI(Workload):
    name = "sweep_vi"
    why = "12 small VI solves with bunching over 2 structures, 3 to a sweep call; VI ~55%, rebuilding structure ~40%"
    item_unit = "points"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.p = self._shuffled(SWEEP_P)
        # One sweep call per (t_cut, p_s): each call solves the three p values
        # on one structure, so reusing structure within a call would show.
        self.groups = self._shuffled([(t, ps) for t in SWEEP_TCUT for ps in SWEEP_PS])

    def _shuffled(self, values):
        values = list(values)
        self.rng.shuffle(values)
        return values

    def _sweep(self, p, ps, tcut) -> Command:
        argv = [
            "sweep", "--n", str(SWEEP_N),
            "--p", ",".join(map(str, p)), "--ps", ",".join(map(str, ps)),
            "--tcut", ",".join(map(str, tcut)),
            "--baseline", "swap-asap", "--method", "vi", "--bunch", "--epsilon", repr(EPSILON),
        ]
        expected = {point_key(SWEEP_N, t, a, b) for a in p for b in ps for t in tcut}
        label = f"sweep t_cut={','.join(map(str, tcut))} p_s={','.join(map(str, ps))}"

        def check(code, out, err, outcome: Outcome) -> None:
            _exit_ok(code, err, outcome, label)
            seen = set()
            for row in csv.DictReader(io.StringIO(out)):
                key = point_key(int(row["n"]), int(row["t_cut"]), float(row["p"]), float(row["p_s"]))
                seen.add(key)
                if not outcome.check(not row.get("error"), f"sweep {key}: {row.get('error')}"):
                    continue
                ref = self.reference.get(key)
                if not outcome.check(ref is not None, f"sweep {key}: unexpected grid point"):
                    continue
                t_opt, t_base = float(row["T_opt"]), float(row["T_swap_asap"])
                outcome.close_to(t_opt, ref["T_opt"], VI_TOL_FACTOR * EPSILON * ref["T_opt"], f"sweep {key} T_opt")
                outcome.close_to(
                    t_base, ref["T_swap_asap"], EXACT_RTOL * ref["T_swap_asap"], f"sweep {key} T_swap_asap"
                )
            outcome.check(seen == expected, f"{label}: rows for {sorted(seen)}, want {sorted(expected)}")

        return Command(argv, check, len(expected), label)

    def warmup(self):
        return self.memory_probe()

    def commands(self):
        return [self._sweep(self.p, [ps], [t]) for t, ps in self.groups]

    def memory_probe(self):
        # One point on the largest structure: model sizes and VI arrays do not
        # depend on (p, p_s), and this point converges in the fewest sweeps.
        return [self._sweep([SWEEP_P[-1]], [SWEEP_PS[-1]], [max(SWEEP_TCUT)])]


class Simulate(Workload):
    name = "simulate"
    why = "Monte Carlo trials of two policies, short (~8 slots) and long (~55 slots); the simulator takes ~90%"
    item_unit = "trials"

    def _simulate(self, point, trials: int, seed: int, chunk: int = 0) -> Command:
        n, t_cut, p, p_s, policy, _ = point
        out_dir = self.workdir / f"simulate-{policy}"
        argv = [
            "simulate", "--n", str(n), "--p", str(p), "--ps", str(p_s), "--tcut", str(t_cut),
            "--policy", policy, "--trials", str(trials), "--seed", str(seed), "--out", str(out_dir),
        ]
        key = "T_opt" if policy == "optimal" else "T_swap_asap"
        exact = self._ref(n, t_cut, p, p_s)[key]
        label = f"simulate {policy} n={n} t_cut={t_cut} p={p} p_s={p_s} seed={seed}"

        def check(code, out, err, outcome: Outcome) -> None:
            if not _exit_ok(code, err, outcome, label):
                return
            mean = _find(r"^mean delivery time: " + _NUMBER, out)
            stderr = _find(r" \+- " + _NUMBER + r" \(stderr\)", out)
            if outcome.check(mean is not None and stderr is not None, f"{label}: no mean in output"):
                outcome.close_to(mean, exact, MC_STDERRS * stderr, f"{label} mean vs exact T")

        return Command(argv, check, trials, f"simulate {policy} #{chunk}")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Master seeds fixed by the workload seed: every pass repeats the same trials.
        self.chunks = [(chunk, point, self.rng.randrange(2**32)) for chunk in range(SIM_CHUNKS) for point in SIM_POINTS]

    def warmup(self):
        return [self._simulate(SIM_POINTS[0], 2_000, self.rng.randrange(2**32))]

    def commands(self):
        return [self._simulate(point, point[5], seed, chunk) for chunk, point, seed in self.chunks]

    def memory_probe(self):
        # Both points with a fifth of the trials: model and simulator caches
        # fill within them, only the per-trial sample array is smaller.
        rng = random.Random(f"{self.seed}:memory")
        return [self._simulate(point, point[5] // 5, rng.randrange(2**32)) for point in SIM_POINTS]


WORKLOADS = {cls.name: cls for cls in (Ladder, SweepVI, Simulate)}
