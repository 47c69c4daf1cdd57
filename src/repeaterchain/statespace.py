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
walk lists one representative per mirror pair (``StateCodes.canonical``) and
sends every transition to the representative of its target, which nearly
halves the states and changes no delivery time beyond roundoff: the folded
walk lists states in another order, so values can differ from the
unfolded ones in the last digits and, where actions nearly tie, so can
policy iteration's round count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .chain import ChainParams, StateCodes, _intern, _unique

__all__ = [
    "DEFAULT_STATE_CAP",
    "StateCapExceeded",
    "StateSpace",
    "count_lower_bound",
    "distinct_labeled_states",
    "enumerate_states",
]

#: Default ceiling on boundary + intermediate state counts.
DEFAULT_STATE_CAP = 50_000_000


class StateCapExceeded(RuntimeError):
    """Enumeration would exceed the configured state cap."""


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Indexed reachable states of a chain, plus per-state action lists.

    States are stored as their :class:`~repeaterchain.chain.StateCodes`
    codes, ``boundary_codes`` and ``intermediate_codes``, and no state is
    decoded.  ``boundary_codes[0]`` is 0, the empty state, and
    ``boundary_codes[terminal_index]`` the collapsed absorbing state, the
    single end-to-end link at age 0, whose code is
    ``StateCodes.terminal_code``.  ``absorbing_codes`` keeps the sorted
    codes of the absorbing states as they were actually produced, before
    collapsing; the terminal code is always one of them.

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
      and ``2 ** len(run_shapes[row_shape[j]])`` outcomes in
      ``outcome_targets``, right after row ``j - 1``'s: the boundary states
      of survival masks 0, 1, ... (bit ``b`` set: run ``b`` survived).

    A ``folded`` space lists one state per mirror pair.  The ``*_weights``
    count the unfolded states each listed state stands for (1 or 2), and
    :meth:`unfolded` lists those states.  The copies that
    ``TransitionModel.respecialized`` makes differ only in ``params`` and
    share the read-only arrays; their models also share any matrix whose
    probability, ``p`` for P_A or ``p_s`` for the choice table, is unchanged.
    Spaces compare and hash by identity.
    """

    params: ChainParams
    boundary_codes: np.ndarray = field(repr=False)
    intermediate_codes: np.ndarray = field(repr=False)
    terminal_index: int
    actions: tuple[tuple[frozenset[int], ...], ...]
    absorbing_codes: np.ndarray = field(repr=False)
    child_offsets: np.ndarray = field(repr=False)
    gen_successes: np.ndarray = field(repr=False)
    gen_failures: np.ndarray = field(repr=False)
    gen_mult: np.ndarray | None = field(repr=False)
    row_offsets: np.ndarray = field(repr=False)
    run_shapes: tuple[tuple[int, ...], ...] = field(repr=False)
    row_shape: np.ndarray = field(repr=False)
    outcome_targets: np.ndarray = field(repr=False)
    boundary_weights: np.ndarray = field(repr=False)
    intermediate_weights: np.ndarray = field(repr=False)
    folded: bool = False

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def num_boundary(self) -> int:
        return len(self.boundary_codes)

    @property
    def num_intermediate(self) -> int:
        return len(self.intermediate_codes)

    @property
    def num_decidable(self) -> int:
        """Intermediate states in which at least one swap can be performed."""
        return int(np.count_nonzero(np.diff(self.row_offsets) > 1))

    def unfolded(self, intermediate: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Digits of every unfolded boundary (or intermediate) state, each mirror image right after its representative.

        Also gives each state's representative, as an index into the listed
        states, and whether the state is its representative's mirror image.
        """
        codes = self.intermediate_codes if intermediate else self.boundary_codes
        weights = self.intermediate_weights if intermediate else self.boundary_weights
        coder = StateCodes(self.params.n, self.params.t_cut)
        owner = np.repeat(np.arange(len(codes)), weights)
        image = np.diff(owner, prepend=-1) == 0
        digits = coder.digits(codes[owner])
        digits[image] = coder.mirror(digits[image])
        return digits, owner, image


#: Boundary states a walk expands together: bounds the walk's working arrays.
_CHUNK = 512


class _Boundary:
    """The boundary states a walk has listed, looked up by code.

    A state's key is its code, canonical in a folded walk; every absorbing
    state has the key ``coder.terminal_code``, the collapsed absorbing
    state, which is its own mirror image.  ``index_of`` maps each listed key
    to its index, so it holds as many keys as there are listed states.
    ``seen`` maps each outcome code looked up before to its index, so each
    distinct code has its key worked out once.
    """

    def __init__(self, coder: StateCodes, fold: bool):
        self.coder = coder
        self.fold = fold
        self.index_of: dict[int, int] = {0: 0}
        self.seen: dict[int, int] = {}
        self.codes = [np.zeros(1, dtype=np.int64)]
        self.weights = [np.ones(1, dtype=np.int8)]

    def targets(self, outcomes: np.ndarray) -> np.ndarray:
        """Boundary index of every outcome code, listing new states in order of first occurrence."""
        coder, seen = self.coder, self.seen
        codes, _, inverse, _ = _unique(outcomes)
        index = np.fromiter(map(seen.get, codes.tolist(), repeat(-1)), dtype=np.int32, count=len(codes))
        unseen = index < 0
        if unseen.any():
            # Codes can share a key: every absorbing code, and in a folded
            # walk a state and its mirror image.
            fresh = codes[unseen]
            keys = np.where(coder.is_absorbing(fresh), coder.terminal_code, fresh)
            symmetric = np.ones(len(keys), dtype=bool)
            if self.fold:
                canon, symmetric = coder.canonical(coder.digits(keys))
                keys = coder.codes(canon)
            keys, first, key_of, _ = _unique(keys)
            listed, new = _intern(self.index_of, keys)
            self.codes.append(keys[new])
            self.weights.append(np.where(symmetric[first[new]], 1, 2).astype(np.int8))
            index[unseen] = listed[key_of]
            seen.update(zip(fresh.tolist(), index[unseen].tolist()))
        return index[inverse]


def enumerate_states(
    params: ChainParams, state_cap: int = DEFAULT_STATE_CAP, fold: bool = False
) -> StateSpace:
    """Breadth-first closure of the slot dynamics starting from the empty state.

    Records the transitions as it discovers states, one BFS level at a
    time.  There are ``t_cut + 1`` levels: no link of a slot-boundary state
    is older than ``t_cut - 1``, and a state whose oldest link is ``a``
    slots old is reached from the empty state in ``a + 1`` slots, by
    generating and swapping only the links that end up in it.  The boundary states of a level are expanded a chunk of parents
    at a time, with every generation child, choice row and swap outcome
    computed by numpy on :class:`~repeaterchain.chain.StateCodes` codes.
    :func:`~repeaterchain.chain._unique` lists a chunk's distinct outcome
    codes in order of first occurrence, each is looked up once, and
    :func:`~repeaterchain.chain._intern` numbers the new states' keys in
    that order, so states are listed exactly as a state-by-state
    breadth-first walk lists them.  The boundary keys and the coder's
    layout plans, each numbered by one ``_intern`` call, are the only
    numbering a chunk carries to the next.  No
    :class:`~repeaterchain.chain.ChainState` is built.

    With ``fold``, every generation child and swap target is replaced by its
    canonical form, so only representatives are listed and expanded;
    children of one parent that share a representative (possible only from
    a self-mirrored parent) merge at the first of them, their ``gen_mult``
    summed.  Raises :class:`StateCapExceeded` if boundary plus intermediate
    counts (folded counts with ``fold``) pass ``state_cap``, and
    :class:`ValueError` if ``state_cap`` is below 1 or the chain's codes do
    not fit in 64 bits.
    """
    n, t_cut = params.n, params.t_cut
    if state_cap < 1:
        raise ValueError(f"state cap must be at least 1, got {state_cap}")
    coder = StateCodes(n, t_cut)
    boundary = _Boundary(coder, fold)
    parts: dict[str, list] = {
        key: []
        for key in ("children", "codes", "weights", "mult", "successes", "failures",
                    "actions", "rows", "row_shape", "targets")
    }
    num_intermediate = 0
    level = boundary.codes[0]
    while len(level):
        level_start = len(boundary.codes)
        for lo in range(0, len(level), _CHUNK):
            parents = level[lo : lo + _CHUNK]
            owner, children, successes, attempts = coder.generation(coder.digits(parents))
            weights = np.ones(len(children), dtype=np.int8)
            if fold:
                children, symmetric = coder.canonical(children)
                weights[~symmetric] = 2
            codes = coder.codes(children)
            if fold:
                # Every intermediate state has one parent, so only siblings
                # can share a representative.
                codes, first, _, mult = _unique(codes)
                owner, children, successes, attempts = (
                    owner[first], children[first], successes[first], attempts[first]
                )
                weights = weights[first]
                parts["mult"].append(mult.astype(np.int8))
            actions, rows, row_shape, outcomes = coder.swap_outcomes(children)
            parts["children"].append(np.bincount(owner, minlength=len(parents)))
            parts["codes"].append(codes)
            parts["weights"].append(weights)
            parts["successes"].append(successes.astype(np.int8))
            parts["failures"].append((attempts - successes).astype(np.int8))
            parts["actions"] += actions
            parts["rows"].append(rows)
            parts["row_shape"].append(row_shape)
            parts["targets"].append(boundary.targets(outcomes))
            num_intermediate += len(codes)
            if len(boundary.index_of) + num_intermediate > state_cap:
                raise StateCapExceeded(f"state cap {state_cap} exceeded at n={n}, t_cut={t_cut}")
        level = np.concatenate(boundary.codes[level_start:] or [np.zeros(0, dtype=np.int64)])

    def joined(key: str, dtype) -> np.ndarray:
        return np.concatenate(parts[key]).astype(dtype, copy=False)

    def offsets(key: str) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(joined(key, np.int64))))

    # The terminal state is always reached, and as itself: from the empty
    # state every link can be generated fresh and every swap can succeed.
    # So its code is among the looked-up codes, with every absorbing code.
    looked_up = np.fromiter(boundary.seen, dtype=np.int64, count=len(boundary.seen))
    terminal_index = boundary.index_of[coder.terminal_code]
    boundary_codes, boundary_weights = np.concatenate(boundary.codes), np.concatenate(boundary.weights)
    del boundary  # its lookup dicts need not outlive the walk while the parts are joined
    return StateSpace(
        params=params,
        boundary_codes=boundary_codes,
        intermediate_codes=joined("codes", np.int64),
        terminal_index=terminal_index,
        actions=tuple(parts["actions"]),
        absorbing_codes=np.sort(looked_up[coder.is_absorbing(looked_up)]),
        child_offsets=offsets("children"),
        gen_successes=joined("successes", np.int8),
        gen_failures=joined("failures", np.int8),
        gen_mult=joined("mult", np.int8) if fold else None,
        row_offsets=offsets("rows"),
        run_shapes=coder.shapes,
        row_shape=joined("row_shape", np.int16),
        outcome_targets=joined("targets", np.int32),
        boundary_weights=boundary_weights,
        intermediate_weights=joined("weights", np.int8),
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
    mirror pair, so it needs an unfolded space.  A state's code stands for
    its age vector, so no state is decoded.
    """
    if space.folded:
        raise ValueError("distinct labelings are counted on an unfolded state space")
    boundary = np.delete(space.boundary_codes, space.terminal_index)
    return len(np.unique(np.concatenate((boundary, space.intermediate_codes, space.absorbing_codes))))
