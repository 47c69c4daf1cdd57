"""Expected-delivery-time solvers: policy evaluation, value and policy iteration.

Delivery times are defined on slot-boundary states and satisfy

    T(s) = 1 + sum_r P_A(r | s) * sum_s' P_B(s' | r, pi(r)) * T(s')

with T = 0 in the terminal state.  Decisions are made on intermediate
states: the action may depend on the generation results of the same slot.
Optimal policies replace the inner sum by a minimum over the actions
available in ``r``.

Every solver takes a :class:`~repeaterchain.mdp.TransitionModel` alone:
its space lists the states and choice rows, and its space's parameters
give the ``(p, p_s)`` the model is built at.

Both solvers break ties the same way, so solver output is reproducible.
Two actions tie when their values differ by at most :data:`TIE_GAP`
relative; among tied actions the one with fewer swaps wins, then the
lexicographically smallest node set (the order of ``StateSpace.actions``).

scipy's graph and LU routines are imported where an evaluation uses them,
not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .chain import StateCodes, _is_integer, _subsets, mirror_action
from .mdp import TransitionModel
from .statespace import StateSpace

if TYPE_CHECKING:
    import scipy.sparse as sp

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


#: Policy iteration gives up after this many evaluations.
MAX_POLICY_ITERATIONS = 1_000

#: Relative gap within which two actions' values count as tied.
TIE_GAP = 1e-12

#: Value iteration checks its greedy policy every this many sweeps.
CHECK_EVERY = 16


class ConvergenceError(RuntimeError):
    """A solve failed to converge (or the evaluated policy never delivers)."""


@dataclass(frozen=True)
class SolverConfig:
    """Value-iteration tolerance and sweep limit.

    ``epsilon`` bounds the certified relative gap ``g`` of the values value
    iteration returns, ``T / (1 + g) <= T* <= T`` in every state;
    ``max_iterations`` caps the sweeps.  Fixed policies, and so policy
    iteration, are evaluated exactly, by a block-triangular sparse solve
    with nothing to set.
    """

    epsilon: float = 1e-7
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not _is_integer(self.max_iterations):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True, eq=False)
class Policy:
    """Deterministic policy: the choice-table row each intermediate state takes.

    ``rows[r]`` lies in ``space.row_offsets[r] : space.row_offsets[r + 1]``,
    the rows of state ``r`` in the order of ``space.actions[r]``.  ``rows``
    is a read-only int64 copy of what the policy is built from.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=np.int64)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        return bool(np.array_equal(self.rows, other.rows))

    @classmethod
    def from_actions(cls, space: StateSpace, actions: Iterable[frozenset[int]]) -> "Policy":
        """The policy that takes ``actions[r]`` in intermediate state ``r``.

        Raises :class:`ValueError` unless there is one available action per state.
        """
        actions = tuple(actions)
        if len(actions) != space.num_intermediate:
            raise ValueError("policy does not cover every intermediate state")
        local = np.empty(len(actions), dtype=np.int64)
        for r, (action, available) in enumerate(zip(actions, space.actions)):
            try:
                local[r] = available.index(action)
            except ValueError:
                raise ValueError(
                    f"policy action {sorted(action)} invalid in intermediate state {r}"
                ) from None
        return cls(space.row_offsets[:-1] + local)

    def actions(self, space: StateSpace) -> tuple[frozenset[int], ...]:
        """The swap action of every intermediate state of ``space``."""
        local = (self.rows - space.row_offsets[:-1]).tolist()
        return tuple(available[j] for available, j in zip(space.actions, local))

    def unfolded(self, space: StateSpace) -> tuple[np.ndarray, list[frozenset[int]]]:
        """Digits and action of every unfolded intermediate state, in :meth:`StateSpace.unfolded`'s order.

        A mirror image takes its representative's action, mirrored.  Each
        distinct action is mirrored once, and the states pick theirs by index.
        """
        digits, owner, image = space.unfolded(intermediate=True)
        ids: dict[frozenset[int], int] = {}
        taken = np.array([ids.setdefault(action, len(ids)) for action in self.actions(space)], dtype=np.int64)
        actions = list(ids)
        actions += [mirror_action(action, space.params.n) for action in actions]
        return digits, list(map(actions.__getitem__, (taken[owner] + len(ids) * image).tolist()))

    def state_map(self, space: StateSpace) -> Callable[[int, frozenset[int]], frozenset[int]]:
        """The action of any unfolded intermediate state, as the simulator takes a policy.

        Returns ``action(code, swappable)``, which looks the state with this
        code up in one dict from the code of every unfolded intermediate
        state to its action (:meth:`unfolded`), so a visited state costs one
        lookup; the state's swappable nodes are not needed.  A code the space
        does not list raises :class:`KeyError`.
        """
        coder = StateCodes(space.params.n, space.params.t_cut)
        digits, actions = self.unfolded(space)
        table = dict(zip(coder.codes(digits).tolist(), actions))

        def action(code: int, swappable: frozenset[int]) -> frozenset[int]:
            return table[code]

        return action


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Expected delivery times on slot-boundary states.

    ``iterations`` counts value-iteration sweeps or policy-iteration
    evaluations (1 for a fixed-policy evaluation).  ``residual`` is the
    certified relative gap ``g`` of value or policy iteration: the optimal
    delivery times lie in ``[values / (1 + g), values]`` state by state (0
    for a fixed-policy evaluation).
    Tables compare and hash by identity.
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


def baseline_rule(n: int, withheld: Iterable[int] = ()) -> Callable[[int, frozenset[int]], frozenset[int]]:
    """A baseline's action in any intermediate state of an ``n``-node chain.

    Swap-asap swaps at every node that holds two links.  With ``withheld``
    interior nodes, those nodes do not swap in full states, where every pair
    of neighbours holds a link: with probabilistic swaps, withholding
    interior swaps there splits one long all-or-nothing run into independent
    shorter ones.  A state is full exactly when all ``n - 2`` interior nodes
    can swap: node ``k``'s incoming link must start at node ``k - 1``, since
    every node left of that already has its outgoing link in use.

    The rule is a policy as the simulator takes one, ``action(code,
    swappable)``: the action follows from the state's swappable nodes alone,
    which the simulator has from the state's layout plan, so the code is not
    read.
    """
    withheld = frozenset(withheld)
    if not withheld <= set(range(2, n)):
        raise ValueError(f"withheld nodes must be interior nodes of a {n}-node chain")

    def action(code: int, swappable: frozenset[int]) -> frozenset[int]:
        return swappable - withheld if len(swappable) == n - 2 else swappable

    return action


def swap_asap_policy(space: StateSpace) -> Policy:
    """Swap at every node that holds two links, in every state.

    That is each state's last choice row: a state's actions run from the
    empty set to the full eligible set, so no state is decoded.
    """
    return Policy(space.row_offsets[1:] - 1)


def modified_full_state_policy(space: StateSpace, withheld) -> Policy:
    """Swap-asap, except that in full states the given nodes do not swap.

    Full states are those with ``2 ** (n - 2)`` actions (see :func:`baseline_rule`),
    so no state is decoded.  On a folded space each representative stands
    for its mirror image, which then withholds the mirrored nodes.  So the
    node set must be its own mirror image there; otherwise this raises
    :class:`ValueError`.
    """
    n, withheld = space.params.n, frozenset(withheld)
    baseline_rule(n, withheld)  # raises unless every node is interior
    if space.folded and mirror_action(withheld, n) != withheld:
        raise ValueError(
            f"withheld nodes {sorted(withheld)} are not mirror-symmetric, "
            "so their policy needs an unfolded space"
        )
    actions, offsets = _subsets(tuple(range(2, n))), space.row_offsets
    full = np.diff(offsets) == len(actions)
    rows = offsets[1:] - 1
    rows[full] = offsets[:-1][full] + actions.index(actions[-1] - withheld)
    return Policy(rows)


def relative_advantage(t_base: float, t_opt: float) -> float:
    """Relative delivery-time advantage (t_base - t_opt) / t_opt."""
    if not t_opt > 0:
        raise ValueError("reference delivery time must be positive")
    return (t_base - t_opt) / t_opt


def policy_stats(space: StateSpace, policy: Policy) -> PolicyStats:
    """How often a policy swaps everything or nothing where a swap is possible.

    A state is decidable when it has more than one choice row; its first row
    swaps nothing and its last swaps every eligible node.  Counts unfolded
    states: on a folded space each representative counts for its mirror
    pair, whose mirrored actions fall in the same classes.
    """
    offsets, weights = space.row_offsets, space.intermediate_weights
    decidable = np.diff(offsets) > 1
    total = int(weights[decidable].sum())
    if total == 0:
        return PolicyStats(0.0, 0.0, 0)
    swap_all = int(weights[decidable & (policy.rows == offsets[1:] - 1)].sum())
    no_swap = int(weights[decidable & (policy.rows == offsets[:-1])].sum())
    return PolicyStats(swap_all / total, no_swap / total, total)


def _block_triangular_solve(matrix: sp.csr_matrix, terminal: int) -> np.ndarray:
    """The solution ``x`` of ``x = b + matrix @ x``, ``b`` one but zero at ``terminal``.

    ``matrix`` is a policy's boundary-to-boundary transition matrix, whose
    ``terminal`` row is zero; it is overwritten.  Its strongly connected
    components order the system block-triangularly (Tarjan; Duff & Reid):
    the multi-state components are factored once, together, in one
    block-diagonal LU, and every other state solves as
    ``x_i = (b_i + sum_{j != i} P_ij x_j) / (1 - P_ii)``.  Each sweep of these
    solves, over all states at once with the entries between components
    taken from the previous sweep, fixes one more level of the components'
    dependency order, so the sweeps repeat bit for bit after the order's
    depth plus one.  A component that no entry leaves never delivers.
    """
    from scipy.sparse.csgraph import connected_components

    size = matrix.shape[0]
    count, labels = connected_components(matrix, directed=True, connection="strong")
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    row = np.repeat(np.arange(size), np.diff(indptr))
    inner = labels[row] == labels[indices]
    exits = np.bincount(labels[row[~inner]], minlength=count)
    exits[labels[terminal]] = 1
    if not exits.all():
        raise ConvergenceError("the policy never reaches delivery from some state")
    in_block = np.bincount(labels, minlength=count)[labels] > 1
    # Block states are eliminated in reverse walk order, deepest first.  That
    # fills in about as little as SuperLU's minimum-degree ordering, which
    # costs more to compute than the factorization: for the optimal policy
    # at (9,2) folded, 105k L+U entries in 12 ms against 97k in 66 ms
    # (2-CPU Intel Xeon).
    single, block = np.flatnonzero(~in_block), np.flatnonzero(in_block)[::-1]
    loops = inner & ~in_block[row]
    scale = 1.0 - np.bincount(row[loops], weights=data[loops], minlength=size)[single]
    inside = inner & in_block[row]
    local = np.empty(size, dtype=np.int64)
    local[block] = np.arange(len(block))
    lu = _factor_identity_minus(
        local[row[inside]], local[indices[inside]], data[inside], len(block)
    )
    data[inner] = 0.0  # ``matrix`` keeps the entries between components
    b = np.ones(size)
    b[terminal] = 0.0
    x = np.zeros(size)
    for _ in range(count + 1):
        y = b + matrix @ x
        new = np.empty(size)
        new[single] = y[single] / scale
        new[block] = lu.solve(y[block])
        if not np.all(np.isfinite(new)):
            raise ConvergenceError("non-finite delivery times: policy appears improper")
        if np.array_equal(new, x):
            return new
        x = new
    raise ConvergenceError("block-triangular solve did not settle")


def _factor_identity_minus(rows: np.ndarray, cols: np.ndarray, probs: np.ndarray, size: int):
    """SuperLU factors of ``I - P``, eliminating states in index order.

    ``P`` is given by its entries; the system is assembled in CSC form.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    diagonal = np.arange(size)
    rows, cols = np.concatenate((rows, diagonal)), np.concatenate((cols, diagonal))
    order = np.argsort(cols, kind="stable")
    pointers = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=size))))
    values = np.concatenate((-probs, np.ones(size)))[order]
    system = sp.csc_matrix((values, rows[order], pointers), shape=(size, size))
    try:
        return splu(system, permc_spec="NATURAL")  # sums the diagonal's duplicates
    except RuntimeError:  # SuperLU: the factor is exactly singular
        raise ConvergenceError(
            "linear system is singular: the policy never reaches delivery from some state"
        ) from None


def evaluate_policy(model: TransitionModel, policy: Policy) -> ValueTable:
    """Expected delivery time of a fixed policy from every slot-boundary state.

    Composes the policy's transition matrix as ``picks @ C``: ``picks`` is
    P_A with each entry moved to the column of its intermediate state's
    chosen row of the choice table ``C``, and shares P_A's data and row
    pointers.  scipy sums the same entries in the same order as for
    ``P_A @ C[policy.rows]``, so the matrix is that product bit for bit,
    with no copy of the chosen rows.  Then solves the linear fixed-point
    equations exactly up to roundoff: one sparse LU for the states the
    policy keeps returning to, and back-substitution for every other state.
    Solved once per model and policy: the read-only values are kept in
    ``model.evaluated``, so policy iteration's first round, value
    iteration's repeated checks and a later swap-asap baseline share one
    solve.  Raises :class:`ConvergenceError` for policies that never
    deliver from some state.
    """
    if len(policy.rows) != model.space.num_intermediate:
        raise ValueError("policy does not cover every intermediate state")
    key = policy.rows.tobytes()
    values = model.evaluated.get(key)
    if values is None:
        import scipy.sparse as sp

        mat_a, choices = model.phase_a_matrix(), model.choice_table()
        picks = sp.csr_matrix(
            (mat_a.data, policy.rows[mat_a.indices], mat_a.indptr), shape=(mat_a.shape[0], choices.shape[0])
        )
        values = _block_triangular_solve(picks @ choices, model.space.terminal_index)
        values.flags.writeable = False
        model.evaluated[key] = values
    return ValueTable(values=values, iterations=1)


def _greedy_choices(q: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """First row of each intermediate state's segment of ``q`` that ties its minimum.

    A row ties when it exceeds the minimum by at most :data:`TIE_GAP`
    relative.  Every segment is non-empty: waiting is always an action.
    """
    mins = np.minimum.reduceat(q, offsets[:-1])
    tied = np.flatnonzero(q <= np.repeat(mins * (1 + TIE_GAP), np.diff(offsets)))
    return tied[np.searchsorted(tied, offsets[:-1])]


def _beats(q: np.ndarray, best: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where row ``best`` beats row ``rows`` by more than :data:`TIE_GAP` relative."""
    return q[best] * (1 + TIE_GAP) < q[rows]


def _bellman_gap(
    model: TransitionModel, values: np.ndarray, q: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Choice-row values ``q`` of ``values`` (worked out unless given) and the largest drop ``max(values - T values)``.

    Policy iteration passes the ``q`` its last round computed.
    """
    if q is None:
        q = model.choice_table() @ values
    new = 1.0 + model.phase_a_matrix() @ np.minimum.reduceat(q, model.space.row_offsets[:-1])
    new[model.space.terminal_index] = 0.0
    return q, float(np.max(values - new))


def value_iteration(
    model: TransitionModel, config: SolverConfig | None = None
) -> tuple[ValueTable, Policy]:
    """Optimal delivery times by sweeps of the minimizing update, stopped by a certificate.

    Sweeps start from all-zero values.  Every :data:`CHECK_EVERY` sweeps
    the greedy policy of the sweep values is evaluated exactly, to ``U`` (a
    policy checked before is not solved again), and ``g = max(U - T U)`` is
    its Bellman gap.  With one slot of cost per step, ``U - P_pi U <= 1 + g``
    for every proper policy ``pi``, so ``U / (1 + g) <= T* <= U`` in every
    state.  Stops once ``g <= config.epsilon`` and returns the greedy policy
    of ``U``, tie broken like :func:`policy_iteration`'s, with its own exact
    values ``V``, ``residual = g`` and ``iterations`` the sweep count: that
    policy is at least as good as the checked one, so ``V <= U`` and
    ``V / (1 + g) <= T* <= V``.  Otherwise
    the sweeps go on from ``U``: ``T U <= U``, so from then on they fall
    monotonically towards ``T*`` and each checked policy's ``U`` is at most
    the one before (modified policy iteration; Puterman, *Markov Decision
    Processes*, 1994, section 6.5).  Greedy policies that never deliver are
    skipped, and the sweeps go on from their own values.  Raises
    :class:`ConvergenceError` when the sweep cap comes first, or when a
    checked policy passes policy iteration's stopping test with a gap above
    ``epsilon``: that policy is optimal under the tie rule, so its gap is
    within :data:`TIE_GAP` of ``T`` and later sweeps would only repeat it.
    """
    config = config or SolverConfig()
    space = model.space
    mat_a, choices = model.phase_a_matrix(), model.choice_table()
    starts, terminal = space.row_offsets[:-1], space.terminal_index
    q = np.zeros(choices.shape[0])
    gaps = []
    for sweep in range(1, config.max_iterations + 1):
        values = 1.0 + mat_a @ np.minimum.reduceat(q, starts)
        values[terminal] = 0.0
        q = choices @ values
        if sweep % CHECK_EVERY:
            continue
        rows = _greedy_choices(q, space.row_offsets)
        try:
            exact = evaluate_policy(model, Policy(rows)).values
        except ConvergenceError:  # this greedy policy never delivers
            gaps.append(math.inf)
            continue
        q_exact, gap = _bellman_gap(model, exact)
        gaps.append(gap)
        best = _greedy_choices(q_exact, space.row_offsets)
        if gap <= config.epsilon:
            policy = Policy(best)  # a stored evaluation when ``best`` is ``rows``
            values = evaluate_policy(model, policy).values
            return ValueTable(values=values, iterations=sweep, residual=gap), policy
        if not np.any(_beats(q_exact, best, rows)):
            # Policy iteration would stop here, so ``rows`` is optimal under
            # the tie rule and no later check can be expected to do better.
            raise ConvergenceError(
                f"value iteration cannot certify a gap of {config.epsilon:.3e}: "
                f"the optimal policy's own gap is {gap:.3e}"
            )
        q = q_exact  # sweep on from the upper bound ``exact``
    reached = f"smallest gap {min(gaps):.3e}" if gaps else "no check ran"
    raise ConvergenceError(
        f"value iteration did not converge in {config.max_iterations} sweeps ({reached})"
    )


def policy_iteration(model: TransitionModel) -> tuple[ValueTable, Policy]:
    """Optimal delivery times by alternating evaluation and greedy improvement.

    Starts from swap-asap, the last choice row of every state.  A state
    switches only where its greedy action beats the incumbent by more than
    :data:`TIE_GAP` relative, which guarantees termination.  Once nothing
    switches, returns the last evaluation's values ``V`` and the greedy
    policy they induce, tie-broken like :func:`value_iteration`'s;
    ``iterations`` counts the evaluations.  ``residual`` is the Bellman
    gap ``g = max(V - T V)`` of ``V``, certified as in
    :func:`value_iteration`: ``V / (1 + g) <= T* <= V`` in every state.
    It reuses the last round's choice-row values, so it costs one minimum
    per state and one product with ``P_A``.  Since no state switches on a
    gain within :data:`TIE_GAP` relative, ``g`` can reach about
    ``TIE_GAP * max(q)``, ``q`` the choice-row values of ``V``.
    """
    space, choices = model.space, model.choice_table()
    rows = swap_asap_policy(space).rows
    for evaluations in range(1, MAX_POLICY_ITERATIONS + 1):
        values = evaluate_policy(model, Policy(rows)).values
        q = choices @ values
        best = _greedy_choices(q, space.row_offsets)
        switch = _beats(q, best, rows)
        if not np.any(switch):
            _, gap = _bellman_gap(model, values, q)
            return ValueTable(values=values, iterations=evaluations, residual=gap), Policy(best)
        rows = np.where(switch, best, rows)
    raise ConvergenceError(
        f"policy iteration did not stabilize in {MAX_POLICY_ITERATIONS} evaluations"
    )
