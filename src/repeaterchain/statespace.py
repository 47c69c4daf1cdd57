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

from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import (
    ChainParams,
    ChainState,
    Link,
    StateCodes,
    action_space,
    age_links,
    empty_state,
    encode_state,
    generation_outcomes,
    mirror,
)

__all__ = [
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


def terminal_state(n: int) -> ChainState:
    """Representative of all absorbing states (collapsed end-to-end class)."""
    return ChainState(n=n, links=(Link(1, n, 0),))


@dataclass(frozen=True)
class StateSpace:
    """Indexed reachable states of a chain, plus per-state action lists.

    ``boundary_states[0]`` is the empty state and
    ``boundary_states[terminal_index]`` the collapsed absorbing state.
    ``raw_absorbing`` keeps the age-vector encodings of the absorbing states
    as they were actually produced, before collapsing.

    The transitions are stored as flat integer arrays, with probabilities
    left as exponents so any ``(p, p_s)`` can be materialized:

    * phase A: the children of boundary state ``s`` are the intermediate
      states ``child_offsets[s]`` to ``child_offsets[s + 1] - 1`` (none for
      the terminal state; every intermediate state has one parent).  Child
      ``r`` is reached with ``gen_successes[r]`` successful and
      ``gen_failures[r]`` failed generation attempts, by ``gen_mult[r]``
      outcomes in a folded space (``None`` when unfolded: always one);
    * phase B: intermediate state ``r`` owns choice rows ``row_offsets[r]``
      to ``row_offsets[r + 1] - 1``, one per action of ``actions[r]`` in
      order.  Row ``j`` has per-run swap counts ``run_shapes[row_shape[j]]``
      and one outcome per survival mask (bit ``b`` set: run ``b``
      survived): ``outcome_targets[outcome_offsets[j] + mask]`` is the
      boundary state it lands on.

    A ``folded`` space lists one state per mirror pair.  The ``*_weights``
    count the unfolded states each listed state stands for (1 or 2).
    ``boundary_index`` and ``intermediate_index`` map states to indices;
    they are built on first use and shared by respecialized copies.
    """

    params: ChainParams
    boundary_states: tuple[ChainState, ...]
    intermediate_states: tuple[ChainState, ...]
    terminal_index: int
    actions: tuple[tuple[frozenset[int], ...], ...]
    raw_absorbing: frozenset[tuple[int, ...]]
    child_offsets: np.ndarray = field(repr=False)
    gen_successes: np.ndarray = field(repr=False)
    gen_failures: np.ndarray = field(repr=False)
    gen_mult: np.ndarray | None = field(repr=False)
    row_offsets: np.ndarray = field(repr=False)
    run_shapes: tuple[tuple[int, ...], ...] = field(repr=False)
    row_shape: np.ndarray = field(repr=False)
    outcome_offsets: np.ndarray = field(repr=False)
    outcome_targets: np.ndarray = field(repr=False)
    boundary_weights: np.ndarray = field(repr=False)
    intermediate_weights: np.ndarray = field(repr=False)
    folded: bool = False
    _indices: dict = field(default_factory=dict, repr=False, compare=False)

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

    @property
    def boundary_index(self) -> dict[ChainState, int]:
        return self._index("boundary", self.boundary_states)

    @property
    def intermediate_index(self) -> dict[ChainState, int]:
        return self._index("intermediate", self.intermediate_states)

    def _index(self, key: str, states: tuple[ChainState, ...]) -> dict[ChainState, int]:
        index = self._indices.get(key)
        if index is None:
            index = self._indices[key] = {s: i for i, s in enumerate(states)}
        return index

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

    Records the transitions as it discovers states.  Boundary states are
    looked up by their :class:`~repeaterchain.chain.StateCodes` code, and a
    swap outcome is built as a state only when its code is new.  With
    ``fold``, every generation child and swap target is replaced by its
    canonical form, so only representatives are listed and expanded;
    children of one parent that share a representative (possible only from
    a self-mirrored parent) merge, their ``gen_mult`` summed.  Raises
    :class:`StateCapExceeded` if boundary plus intermediate counts (folded
    counts with ``fold``) pass ``state_cap``.
    """
    n, t_cut = params.n, params.t_cut
    coder = StateCodes(n, t_cut)
    boundary: list[ChainState] = [empty_state(n)]
    # Boundary-state codes to indices; absorbing codes map to the terminal
    # index.  A folded walk keys both orientations of each listed state, so
    # it mirrors a swap target only the first time it sees the pair.
    index_of: dict[int, int] = {0: 0}
    boundary_weights = [1]
    absorbing_codes: list[int] = []
    intermediates: list[ChainState] = []
    intermediate_weights: list[int] = []
    actions: list[tuple[frozenset[int], ...]] = []
    child_offsets = [0]
    gen_successes: list[int] = []
    gen_failures: list[int] = []
    gen_mult: list[int] = []
    row_offsets = [0]
    shape_per_row = array("h")
    outcome_targets = array("i")
    terminal_index = -1

    def add_target(code: int) -> int:
        """Index of a swap outcome that was missing from ``index_of`` when its state was looked up."""
        nonlocal terminal_index
        t_idx = index_of.get(code)  # an earlier outcome of the same state added it
        if t_idx is not None:
            return t_idx
        t_idx = len(boundary)
        if coder.is_absorbing(code):
            # Absorbing states collapse onto the terminal index.
            absorbing_codes.append(code)
            if terminal_index < 0:
                terminal_index = t_idx
                boundary.append(terminal_state(n))
                boundary_weights.append(1)
            index_of[code] = terminal_index
            return terminal_index
        target = coder.decode(code)
        weight = 1
        if fold:
            other = mirror(target)
            index_of[coder.code(other)] = t_idx
            weight = 1 if other == target else 2
            if other.links < target.links:
                target = other
        index_of[code] = t_idx
        boundary.append(target)
        boundary_weights.append(weight)
        return t_idx

    # The boundary list doubles as the BFS queue: states are expanded in
    # index order, and the terminal state is never expanded.
    s_idx = 0
    while s_idx < len(boundary):
        if s_idx != terminal_index:
            children = generation_outcomes(age_links(boundary[s_idx]))
            attempts = len(children).bit_length() - 1
            # Every intermediate state has one parent (fresh links have age
            # 0 and ageing adds 1 to every other age), so children are new
            # states; only a self-mirrored parent folds two onto one.
            folded_children: dict[ChainState, int] = {}
            for mask, r in enumerate(children):
                weight = 1
                if fold:
                    r, other = _mirror_pair(r)
                    r_idx = folded_children.get(r)
                    if r_idx is not None:
                        gen_mult[r_idx] += 1
                        continue
                    folded_children[r] = len(intermediates)
                    gen_mult.append(1)
                    weight = 1 if r == other else 2
                intermediates.append(r)
                intermediate_weights.append(weight)
                successes = mask.bit_count()
                gen_successes.append(successes)
                gen_failures.append(attempts - successes)
                acts, shapes, codes = coder.swap_codes(r)
                actions.append(acts)
                targets = list(map(index_of.get, codes))
                if None in targets:
                    for j, t_idx in enumerate(targets):
                        if t_idx is None:
                            targets[j] = add_target(codes[j])
                outcome_targets.extend(targets)
                shape_per_row.extend(shapes)
                row_offsets.append(len(shape_per_row))
                if len(boundary) + len(intermediates) > state_cap:
                    raise StateCapExceeded(
                        f"state cap {state_cap} exceeded at n={n}, t_cut={t_cut}"
                    )
        child_offsets.append(len(intermediates))
        s_idx += 1
    row_shape = np.frombuffer(shape_per_row, dtype=np.int16)
    outcomes_per_shape = np.array([1 << len(sizes) for sizes in coder.shapes], dtype=np.int64)
    outcome_offsets = np.zeros(len(row_shape) + 1, dtype=np.int64)
    np.cumsum(outcomes_per_shape[row_shape], out=outcome_offsets[1:])
    # The terminal state is always reached: from the empty state every link
    # can be generated fresh and every swap can succeed.
    return StateSpace(
        params=params,
        boundary_states=tuple(boundary),
        intermediate_states=tuple(intermediates),
        terminal_index=terminal_index,
        actions=tuple(actions),
        raw_absorbing=frozenset(encode_state(coder.decode(code)) for code in absorbing_codes),
        child_offsets=np.array(child_offsets, dtype=np.int64),
        gen_successes=np.array(gen_successes, dtype=np.int8),
        gen_failures=np.array(gen_failures, dtype=np.int8),
        gen_mult=np.array(gen_mult, dtype=np.int8) if fold else None,
        row_offsets=np.array(row_offsets, dtype=np.int64),
        run_shapes=tuple(coder.shapes),
        row_shape=row_shape,
        outcome_offsets=outcome_offsets,
        outcome_targets=np.frombuffer(outcome_targets, dtype=np.int32),
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
