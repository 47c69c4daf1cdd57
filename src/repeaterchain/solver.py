"""Expected-delivery-time solvers: policy evaluation, value and policy iteration.

Delivery times are defined on slot-boundary states and satisfy

    T(s) = 1 + sum_r P_A(r | s) * sum_s' P_B(s' | r, pi(r)) * T(s')

with T = 0 in the terminal state.  Decisions are made on intermediate
states: the action may depend on the generation results of the same slot.
Optimal policies replace the inner sum by a minimum over the actions
available in ``r``.

Ties between equally good actions are broken towards fewer swaps, then the
lexicographically smallest node set (the order of ``StateSpace.actions``),
so solver output is reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .chain import ChainState, mirror, mirror_action, valid_swap_nodes
from .mdp import TransitionModel
from .statespace import StateSpace

__all__ = [
    "ConvergenceError",
    "Policy",
    "PolicyStats",
    "SolverConfig",
    "ValueTable",
    "baseline_rule",
    "evaluate_policy",
    "modified_full_state_policy",
    "policy_iteration",
    "policy_stats",
    "relative_advantage",
    "swap_asap_policy",
    "value_iteration",
]


#: Policy iteration gives up after this many improvement rounds.
MAX_POLICY_ITERATIONS = 1_000


class ConvergenceError(RuntimeError):
    """A solve failed to converge (or the evaluated policy never delivers)."""


@dataclass(frozen=True)
class SolverConfig:
    """Convergence tolerance and iteration limits.

    ``epsilon`` bounds the max-norm difference between successive sweeps.
    ``evaluation`` selects how fixed policies are evaluated: ``"direct"``
    solves the sparse linear system, ``"sweep"`` iterates the update until
    ``epsilon``.
    """

    epsilon: float = 1e-7
    max_iterations: int = 1_000_000
    evaluation: str = "direct"

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.evaluation not in ("direct", "sweep"):
            raise ValueError(f"unknown evaluation method {self.evaluation!r}")


@dataclass(frozen=True)
class Policy:
    """Deterministic policy: one swap action per intermediate state index."""

    actions: tuple[frozenset[int], ...]

    def state_map(self, space: StateSpace) -> dict[ChainState, frozenset[int]]:
        """Action of every unfolded intermediate state, e.g. for trajectory simulation.

        On a folded space each representative of a mirror pair is followed
        by its mirror image, which takes the mirrored action.
        """
        n = space.params.n
        mapping = {}
        weights = space.intermediate_weights.tolist()
        for r, action, weight in zip(space.intermediate_states, self.actions, weights):
            mapping[r] = action
            if weight == 2:
                mapping[mirror(r)] = mirror_action(action, n)
        return mapping


@dataclass(frozen=True)
class ValueTable:
    """Expected delivery times on slot-boundary states.

    ``iterations`` counts sweeps (evaluation, value iteration) or
    improvement rounds (policy iteration); ``residual`` is the final
    max-norm sweep difference (0 for direct solves).
    """

    values: np.ndarray
    iterations: int = 0
    residual: float = 0.0

    @property
    def t0(self) -> float:
        """Expected delivery time from the empty state."""
        return float(self.values[0])


@dataclass(frozen=True)
class PolicyStats:
    """Fractions of decidable states where a policy swaps everything / nothing."""

    swap_all_fraction: float
    no_swap_fraction: float
    decidable_states: int


def _is_full(state: ChainState) -> bool:
    pairs = {(l.left, l.right) for l in state.links}
    return pairs == {(i, i + 1) for i in range(1, state.n)}


def baseline_rule(n: int, withheld: Iterable[int] = ()) -> Callable[[ChainState], frozenset[int]]:
    """A baseline's action in any intermediate state of an ``n``-node chain.

    Swap-asap swaps at every node that holds two links.  With ``withheld``
    interior nodes, those nodes do not swap in full states, where every pair
    of neighbours holds a link: with probabilistic swaps, withholding
    interior swaps there splits one long all-or-nothing run into independent
    shorter ones.
    """
    withheld = frozenset(withheld)
    if not withheld <= set(range(2, n)):
        raise ValueError(f"withheld nodes must be interior nodes of a {n}-node chain")
    if not withheld:
        return lambda state: frozenset(valid_swap_nodes(state))

    def action(state: ChainState) -> frozenset[int]:
        nodes = frozenset(valid_swap_nodes(state))
        return nodes - withheld if _is_full(state) else nodes

    return action


def swap_asap_policy(space: StateSpace) -> Policy:
    """Swap at every node that holds two links, in every state."""
    return modified_full_state_policy(space, ())


def modified_full_state_policy(space: StateSpace, withheld) -> Policy:
    """Swap-asap, except that in full states the given nodes do not swap."""
    rule = baseline_rule(space.params.n, withheld)
    return Policy(tuple(map(rule, space.intermediate_states)))


def relative_advantage(t_base: float, t_opt: float) -> float:
    """Relative delivery-time advantage (t_base - t_opt) / t_opt."""
    if not t_opt > 0:
        raise ValueError("reference delivery time must be positive")
    return (t_base - t_opt) / t_opt


def policy_stats(space: StateSpace, policy: Policy) -> PolicyStats:
    """How often a policy swaps everything or nothing where a swap is possible.

    Counts unfolded states: on a folded space each representative counts
    for its mirror pair, whose mirrored actions fall in the same classes.
    """
    total = swap_all = no_swap = 0
    weights = space.intermediate_weights.tolist()
    for r, action, weight in zip(space.intermediate_states, policy.actions, weights):
        nodes = valid_swap_nodes(r)
        if not nodes:
            continue
        total += weight
        if action == nodes:
            swap_all += weight
        elif not action:
            no_swap += weight
    if total == 0:
        return PolicyStats(0.0, 0.0, 0)
    return PolicyStats(swap_all / total, no_swap / total, total)


def _choice_indices(space: StateSpace, policy: Policy, offsets: np.ndarray) -> np.ndarray:
    if len(policy.actions) != space.num_intermediate:
        raise ValueError("policy does not cover every intermediate state")
    idx = np.empty(space.num_intermediate, dtype=np.int64)
    for r_idx, action in enumerate(policy.actions):
        try:
            local = space.actions[r_idx].index(action)
        except ValueError:
            raise ValueError(
                f"policy action {sorted(action)} invalid in intermediate state {r_idx}"
            )
        idx[r_idx] = offsets[r_idx] + local
    return idx


def _composed_matrix(space: StateSpace, model: TransitionModel, policy: Policy) -> sp.csr_matrix:
    choices = model.choice_table()
    rows = _choice_indices(space, policy, choices.offsets)
    return model.phase_a_matrix() @ choices.matrix[rows]


def _nonterminal_solve(space: StateSpace, composed: sp.csr_matrix) -> np.ndarray:
    term = space.terminal_index
    keep = np.arange(space.num_boundary) != term
    sub = composed[keep][:, keep]
    system = sp.identity(sub.shape[0], format="csr") - sub
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            t_sub = spsolve(system.tocsc(), np.ones(sub.shape[0]))
        except MatrixRankWarning:
            raise ConvergenceError(
                "linear system is singular: the policy never reaches delivery "
                "from some state"
            )
    if not np.all(np.isfinite(t_sub)):
        raise ConvergenceError("non-finite delivery times: policy appears improper")
    values = np.zeros(space.num_boundary)
    values[keep] = t_sub
    return values


def _sweep_evaluate(
    space: StateSpace, composed: sp.csr_matrix, config: SolverConfig
) -> tuple[np.ndarray, int, float]:
    term = space.terminal_index
    values = np.zeros(space.num_boundary)
    for it in range(1, config.max_iterations + 1):
        new = 1.0 + composed @ values
        new[term] = 0.0
        residual = float(np.max(np.abs(new - values)))
        values = new
        if residual <= config.epsilon:
            return values, it, residual
    raise ConvergenceError(
        f"policy evaluation did not converge in {config.max_iterations} sweeps "
        f"(residual {residual:.3e})"
    )


def evaluate_policy(
    space: StateSpace,
    model: TransitionModel,
    policy: Policy,
    config: SolverConfig | None = None,
) -> ValueTable:
    """Expected delivery time of a fixed policy from every slot-boundary state.

    Solves the linear fixed-point equations either directly (sparse LU) or
    by iterative sweeps, per ``config.evaluation``.  Raises
    :class:`ConvergenceError` for policies that never deliver.
    """
    config = config or SolverConfig()
    composed = _composed_matrix(space, model, policy)
    if config.evaluation == "direct":
        values = _nonterminal_solve(space, composed)
        return ValueTable(values=values, iterations=1, residual=0.0)
    values, iterations, residual = _sweep_evaluate(space, composed, config)
    return ValueTable(values=values, iterations=iterations, residual=residual)


def _greedy_choices(q: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """First minimal row of each intermediate state's segment of ``q``.

    Every segment is non-empty: waiting is always an action.
    """
    mins = np.minimum.reduceat(q, offsets[:-1])
    rows = np.arange(len(q))
    minimal = q == np.repeat(mins, np.diff(offsets))
    return np.minimum.reduceat(np.where(minimal, rows, len(q)), offsets[:-1])


def _rows_to_policy(space: StateSpace, rows: np.ndarray, offsets: np.ndarray) -> Policy:
    """The policy that takes choice-table row ``rows[r]`` in intermediate state ``r``."""
    return Policy(
        tuple(
            actions[int(row - lo)]
            for actions, row, lo in zip(space.actions, rows, offsets[:-1])
        )
    )


def value_iteration(
    space: StateSpace,
    model: TransitionModel,
    config: SolverConfig | None = None,
) -> tuple[ValueTable, Policy]:
    """Optimal delivery times by successive sweeps of the minimizing update.

    Starts from all-zero values and stops when successive sweeps differ by
    at most ``config.epsilon`` in max norm.  Returns the converged values
    and the greedy policy they induce.
    """
    config = config or SolverConfig()
    mat_a = model.phase_a_matrix()
    choices = model.choice_table()
    term = space.terminal_index
    values = np.zeros(space.num_boundary)
    starts = choices.offsets[:-1]
    for it in range(1, config.max_iterations + 1):
        mins = np.minimum.reduceat(choices.matrix @ values, starts)
        new = 1.0 + mat_a @ mins
        new[term] = 0.0
        residual = float(np.max(np.abs(new - values)))
        values = new
        if residual <= config.epsilon:
            break
    else:
        raise ConvergenceError(
            f"value iteration did not converge in {config.max_iterations} sweeps "
            f"(residual {residual:.3e})"
        )
    first = _greedy_choices(choices.matrix @ values, choices.offsets)
    policy = _rows_to_policy(space, first, choices.offsets)
    return ValueTable(values=values, iterations=it, residual=residual), policy


def policy_iteration(
    space: StateSpace,
    model: TransitionModel,
    config: SolverConfig | None = None,
    initial_policy: Policy | None = None,
) -> tuple[ValueTable, Policy]:
    """Optimal delivery times by alternating evaluation and greedy improvement.

    Starts from swap-asap unless ``initial_policy`` is given.  The
    improvement step keeps the incumbent action unless a strictly better one
    exists, which guarantees termination; switched actions follow the
    deterministic tie-break order.
    """
    config = config or SolverConfig()
    choices = model.choice_table()
    policy = initial_policy or swap_asap_policy(space)
    current = _choice_indices(space, policy, choices.offsets)
    table = evaluate_policy(space, model, policy, config)
    for rounds in range(1, MAX_POLICY_ITERATIONS + 1):
        q = choices.matrix @ table.values
        first = _greedy_choices(q, choices.offsets)
        improved = q[first] < q[current]
        if not np.any(improved):
            return (
                ValueTable(values=table.values, iterations=rounds, residual=table.residual),
                policy,
            )
        current = np.where(improved, first, current)
        policy = _rows_to_policy(space, current, choices.offsets)
        new_table = evaluate_policy(space, model, policy, config)
        # Evaluation roundoff can make value-equivalent actions look strictly
        # better and flip forever; once a round stops lowering any value
        # beyond noise level, the incumbent policy set is value-optimal.
        gain = float(np.max(table.values - new_table.values))
        scale = max(1.0, float(np.max(np.abs(table.values))))
        table = new_table
        if gain <= 1e-10 * scale:
            return (
                ValueTable(values=table.values, iterations=rounds + 1, residual=table.residual),
                policy,
            )
    raise ConvergenceError(
        f"policy iteration did not stabilize in {MAX_POLICY_ITERATIONS} rounds"
    )
