"""Reachable state enumeration and indexing, optionally folded under mirroring.

The state space is closed under the slot dynamics: every slot-boundary
state reaches only listed intermediate states through ageing plus
generation, and every (intermediate state, action, swap outcome) lands on a
listed slot-boundary state.  All states containing an end-to-end link are
collapsed into a single terminal state, since the process stops there and
the remaining delivery time is zero regardless of link ages.

Enumeration proceeds breadth-first from the empty state, so only states the
process can actually visit are indexed.  Index 0 is always the empty state.
The same walk records every transition structurally (which intermediate
state each generation outcome reaches, which boundary state each swap
outcome reaches), so the dynamics are walked exactly once per (n, t_cut).

Relabeling the nodes right to left maps the dynamics onto themselves, so a
state and its mirror image have the same delivery time.  In fold mode the
walk lists one representative per mirror pair (``chain.canonical``) and
sends every transition to the representative of its target, which nearly
halves the states without changing any delivery time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from .chain import (
    ChainParams,
    ChainState,
    Link,
    age_links,
    apply_generation,
    empty_state,
    encode_state,
    generation_pairs,
    is_absorbing,
    mirror,
    swap_outcomes,
    valid_swap_nodes,
)

__all__ = [
    "AArc",
    "BTable",
    "DEFAULT_STATE_CAP",
    "StateCapExceeded",
    "StateSpace",
    "action_space",
    "count_lower_bound",
    "distinct_labeled_states",
    "enumerate_states",
    "terminal_state",
]

#: Default ceiling on boundary + intermediate state counts.
DEFAULT_STATE_CAP = 50_000_000


class StateCapExceeded(RuntimeError):
    """Enumeration would exceed the configured state cap."""


# Phase-A arc: (intermediate index, successes, failures, multiplicity).
AArc = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class BTable:
    """Swap outcomes of one (intermediate state, action) pair.

    ``run_sizes[b]`` is the number of swaps in run ``b``; ``outcomes`` maps
    each survival mask to the resulting boundary-state index.
    """

    run_sizes: tuple[int, ...]
    outcomes: tuple[tuple[int, int], ...]


def terminal_state(n: int) -> ChainState:
    """Representative of all absorbing states (collapsed end-to-end class)."""
    return ChainState(n=n, links=(Link(1, n, 0),))


def action_space(state: ChainState) -> tuple[frozenset[int], ...]:
    """All swap actions available in a state: every subset of the eligible nodes.

    Ordered by (size, node tuple), so the empty action comes first and the
    ordering doubles as the deterministic tie-break order for solvers.
    """
    return _subsets(tuple(sorted(valid_swap_nodes(state))))


@lru_cache(maxsize=None)
def _subsets(nodes: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    # Shared by every state with the same eligible nodes, so an enumerated
    # space holds one copy of each action list.
    actions = []
    for r in range(len(nodes) + 1):
        for combo in combinations(nodes, r):
            actions.append(frozenset(combo))
    return tuple(actions)


@dataclass(frozen=True)
class StateSpace:
    """Indexed reachable states of a chain, plus per-state action lists.

    ``boundary_states[0]`` is the empty state and
    ``boundary_states[terminal_index]`` the collapsed absorbing state.
    ``raw_absorbing`` keeps the age-vector encodings of the absorbing states
    as they were actually produced, before collapsing.

    ``a_arcs[s]`` lists the phase-A arcs of boundary state ``s`` (empty for
    the terminal state) and ``b_arcs[r][a]`` the swap outcomes of
    intermediate state ``r`` under action ``actions[r][a]``; probabilities
    are left as exponents so any ``(p, p_s)`` can be materialized.

    A ``folded`` space lists one state per mirror pair.  The ``*_weights``
    count the unfolded states each listed state stands for (1 or 2).
    """

    params: ChainParams
    boundary_states: tuple[ChainState, ...]
    intermediate_states: tuple[ChainState, ...]
    boundary_index: dict[ChainState, int]
    intermediate_index: dict[ChainState, int]
    terminal_index: int
    actions: tuple[tuple[frozenset[int], ...], ...]
    raw_absorbing: frozenset[tuple[int, ...]]
    a_arcs: tuple[tuple[AArc, ...], ...] = field(repr=False)
    b_arcs: tuple[tuple[BTable, ...], ...] = field(repr=False)
    boundary_weights: np.ndarray = field(repr=False)
    intermediate_weights: np.ndarray = field(repr=False)
    folded: bool = False

    @property
    def num_boundary(self) -> int:
        return len(self.boundary_states)

    @property
    def num_intermediate(self) -> int:
        return len(self.intermediate_states)

    @property
    def num_decidable(self) -> int:
        """Intermediate states in which at least one swap can be performed."""
        return sum(1 for acts in self.actions if len(acts) > 1)

    def respecialized(self, p: float, p_s: float) -> "StateSpace":
        """Same state space with different success probabilities.

        Enumeration depends only on (n, t_cut), so sweeps over p and p_s can
        share one space.
        """
        return replace(self, params=replace(self.params, p=p, p_s=p_s))


def _mirror_pair(state: ChainState) -> tuple[ChainState, ChainState]:
    """``state`` and its mirror image, the canonical one (``chain.canonical``) first."""
    m = mirror(state)
    return (state, m) if state.links <= m.links else (m, state)


def enumerate_states(
    params: ChainParams, state_cap: int = DEFAULT_STATE_CAP, fold: bool = False
) -> StateSpace:
    """Breadth-first closure of the slot dynamics starting from the empty state.

    Records the phase-A arcs and phase-B tables as it discovers states.
    With ``fold``, every generation child and swap target is replaced by
    its canonical form, so only representatives are listed and expanded;
    arcs of one parent to the same representative (possible only from a
    self-mirrored parent) merge, their ``mult`` summed.  Raises
    :class:`StateCapExceeded` if boundary plus intermediate counts (folded
    counts with ``fold``) pass ``state_cap``.
    """
    n, t_cut = params.n, params.t_cut
    s0 = empty_state(n)
    term = terminal_state(n)
    boundary: list[ChainState] = [s0]
    # Keyed on link tuples: every boundary state shares n and its phase flag.
    # A folded walk keys both orientations of each state, so it mirrors a
    # swap target only the first time it sees the pair.
    boundary_links: dict[tuple[Link, ...], int] = {s0.links: 0}
    boundary_weights = [1]
    intermediates: list[ChainState] = []
    intermediate_index: dict[ChainState, int] = {}
    intermediate_weights: list[int] = []
    actions: list[tuple[frozenset[int], ...]] = []
    a_arcs: list[tuple[AArc, ...]] = []
    b_arcs: list[tuple[BTable, ...]] = []
    raw_absorbing: set[tuple[int, ...]] = set()
    terminal_index = -1

    # The boundary list doubles as the BFS queue: states are expanded in
    # index order, and the terminal state is never expanded.
    s_idx = 0
    while s_idx < len(boundary):
        if s_idx == terminal_index:
            a_arcs.append(())
            s_idx += 1
            continue
        aged = age_links(boundary[s_idx])
        s_idx += 1
        pairs = sorted(generation_pairs(aged))
        arcs: dict[tuple[int, int, int], int] = {}
        for mask in range(1 << len(pairs)):
            chosen = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            r = apply_generation(aged, chosen)
            weight = 1
            if fold:
                r, other = _mirror_pair(r)
                weight = 1 if r == other else 2
            r_idx = intermediate_index.get(r)
            if r_idx is None:
                r_idx = intermediate_index[r] = len(intermediates)
                intermediates.append(r)
                intermediate_weights.append(weight)
                acts = action_space(r)
                actions.append(acts)
                tables = []
                for a in acts:
                    sizes, outcomes = swap_outcomes(r, a, t_cut)
                    rows = []
                    for out_mask, target in outcomes:
                        if is_absorbing(target):
                            # Absorbing states collapse onto the terminal index.
                            raw_absorbing.add(encode_state(target))
                            if terminal_index < 0:
                                terminal_index = len(boundary)
                                boundary.append(term)
                                boundary_weights.append(1)
                            rows.append((out_mask, terminal_index))
                            continue
                        t_idx = boundary_links.get(target.links)
                        if t_idx is None:
                            t_idx = len(boundary)
                            weight = 1
                            if fold:
                                target, other = _mirror_pair(target)
                                boundary_links[other.links] = t_idx
                                weight = 1 if target == other else 2
                            boundary_links[target.links] = t_idx
                            boundary.append(target)
                            boundary_weights.append(weight)
                        rows.append((out_mask, t_idx))
                    tables.append(BTable(sizes, tuple(rows)))
                b_arcs.append(tuple(tables))
                if len(boundary) + len(intermediates) > state_cap:
                    raise StateCapExceeded(
                        f"state cap {state_cap} exceeded at n={n}, t_cut={t_cut}"
                    )
            key = (r_idx, len(chosen), len(pairs) - len(chosen))
            arcs[key] = arcs.get(key, 0) + 1
        a_arcs.append(tuple((r, k, m, mult) for (r, k, m), mult in arcs.items()))
    # The terminal state is always reached: from the empty state every link
    # can be generated fresh and every swap can succeed.
    return StateSpace(
        params=params,
        boundary_states=tuple(boundary),
        intermediate_states=tuple(intermediates),
        boundary_index={s: i for i, s in enumerate(boundary)},
        intermediate_index=intermediate_index,
        terminal_index=terminal_index,
        actions=tuple(actions),
        raw_absorbing=frozenset(raw_absorbing),
        a_arcs=tuple(a_arcs),
        b_arcs=tuple(b_arcs),
        boundary_weights=np.array(boundary_weights, dtype=np.int8),
        intermediate_weights=np.array(intermediate_weights, dtype=np.int8),
        folded=fold,
    )


def count_lower_bound(n: int, t_cut: int) -> int:
    """Analytic lower bound on the total number of states with ages 0..t_cut.

    ``1 + (n^2-n-4)/2 * t + (n^2-n-6)(n-2)/6 * t^2 + t^(n-1)`` for an n-node
    chain with cutoff ``t``; grows as ``t^(n-1)``.
    """
    if n < 3 or t_cut < 1:
        raise ValueError("need n >= 3 and t_cut >= 1")
    linear = (n * n - n - 4) * t_cut // 2
    quadratic = (n * n - n - 6) * (n - 2) * t_cut * t_cut // 6
    return 1 + linear + quadratic + t_cut ** (n - 1)


def distinct_labeled_states(space: StateSpace) -> int:
    """Number of distinct age-vector labelings the dynamics can produce.

    Counts the union of boundary states (excluding the artificial collapsed
    terminal), intermediate states, and absorbing states as actually
    produced with their ages.  This is the count comparable to
    :func:`count_lower_bound`, which counts labelings rather than
    phase-tagged states.  A folded walk produces only one state of each
    mirror pair, so it needs an unfolded space.
    """
    if space.folded:
        raise ValueError("distinct labelings are counted on an unfolded state space")
    encodings = {
        encode_state(s)
        for i, s in enumerate(space.boundary_states)
        if i != space.terminal_index
    }
    encodings.update(encode_state(s) for s in space.intermediate_states)
    encodings.update(space.raw_absorbing)
    return len(encodings)
