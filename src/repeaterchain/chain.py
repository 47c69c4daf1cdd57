"""Repeater-chain state machine: links, time-slot phases, mirroring.

A chain of ``n`` nodes (numbered 1..n left to right) holds a set of
entangled links.  Each link is an interval ``(left, right)`` with an
integer age in slots.  A link occupies the right-facing qubit of its left
endpoint and the left-facing qubit of its right endpoint; intermediate
nodes have one qubit per side, end nodes a single qubit.

One time slot consists of four phases:

1. every link ages by one slot (:func:`age_links`);
2. every pair of neighbours with free facing qubits attempts entanglement
   generation (:func:`generation_pairs` / :func:`apply_generation`);
3. a chosen set of nodes performs entanglement swaps
   (:func:`resolve_swaps`);
4. links that reached the cutoff age are discarded, except end-to-end
   links (:func:`apply_cutoff`).

States are immutable values; every operation returns a new state.
:class:`StateCodes` gives the states of one ``(n, t_cut)`` integer codes,
under which phases 3 and 4 become code arithmetic; the enumeration walk
uses them to resolve swaps without building states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "ChainParams",
    "ChainState",
    "InvalidStateError",
    "Link",
    "StateCodes",
    "action_space",
    "age_links",
    "apply_cutoff",
    "apply_generation",
    "canonical",
    "check_state",
    "decode_state",
    "empty_state",
    "encode_state",
    "generation_outcomes",
    "generation_pairs",
    "is_absorbing",
    "mirror",
    "mirror_action",
    "resolve_swaps",
    "state_from_links",
    "swap_runs",
    "valid_swap_nodes",
]


class InvalidStateError(ValueError):
    """A chain state violates a structural invariant."""


class Link(NamedTuple):
    """Entangled link between nodes ``left < right`` with an integer age in slots."""

    left: int
    right: int
    age: int


@dataclass(frozen=True)
class ChainParams:
    """The four parameters characterizing a homogeneous chain.

    Attributes
    ----------
    n:
        Number of nodes including the two end nodes, at least 3.
    p:
        Success probability of one entanglement generation attempt, in (0, 1].
    p_s:
        Success probability of one entanglement swap, in (0, 1].
    t_cut:
        Maximum allowed link age in slots, at least 1.
    """

    n: int
    p: float
    p_s: float
    t_cut: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 3):
            raise ValueError(f"n must be an integer >= 3, got {self.n!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p!r}")
        if not 0.0 < self.p_s <= 1.0:
            raise ValueError(f"p_s must lie in (0, 1], got {self.p_s!r}")
        if not (isinstance(self.t_cut, int) and self.t_cut >= 1):
            raise ValueError(f"t_cut must be an integer >= 1, got {self.t_cut!r}")


@dataclass(frozen=True, slots=True)
class ChainState:
    """Immutable chain state: sorted link tuple plus a slot-phase flag.

    ``intermediate`` distinguishes the post-generation decision point inside
    a slot from the slot-boundary states on which delivery times are defined.
    """

    n: int
    links: tuple[Link, ...]
    intermediate: bool = False

    def __post_init__(self) -> None:
        links = tuple(sorted(Link(*l) for l in self.links))
        object.__setattr__(self, "links", links)


_set_n = ChainState.n.__set__
_set_links = ChainState.links.__set__
_set_intermediate = ChainState.intermediate.__set__


def _sorted_state(n: int, links: tuple[Link, ...], intermediate: bool = False) -> ChainState:
    """State from a link tuple that is already sorted, skipping the re-sort.

    Valid states have unique left endpoints, so their sorted order is fixed
    by the endpoints alone; callers that keep endpoint order use this.
    """
    state = object.__new__(ChainState)
    _set_n(state, n)
    _set_links(state, links)
    _set_intermediate(state, intermediate)
    return state


def state_from_links(n: int, links: Iterable[tuple[int, int, int]], intermediate: bool = False) -> ChainState:
    """Build a state from any iterable of ``(left, right, age)`` triples."""
    return ChainState(n=n, links=tuple(Link(*l) for l in links), intermediate=intermediate)


def empty_state(n: int) -> ChainState:
    """Slot-boundary state with no links; the canonical start of the process."""
    if n < 3:
        raise ValueError(f"a repeater chain needs at least 3 nodes, got {n!r}")
    return ChainState(n=n, links=())


def is_absorbing(state: ChainState) -> bool:
    """True iff the state contains an end-to-end link.

    Links are sorted and left endpoints are unique, so an end-to-end link
    can only be the first one.
    """
    links = state.links
    return bool(links) and links[0].left == 1 and links[0].right == state.n


def age_links(state: ChainState) -> ChainState:
    """Increment every link age by one slot (phase 1).

    Only slot-boundary, non-absorbing states age: the process stops in
    absorbing states and ageing happens exactly once per slot.
    """
    if state.intermediate:
        raise ValueError("ageing applies to slot-boundary states only")
    if is_absorbing(state):
        raise ValueError("absorbing states do not evolve further")
    links = tuple(Link(l.left, l.right, l.age + 1) for l in state.links)
    return ChainState(n=state.n, links=links)


def generation_pairs(state: ChainState) -> set[tuple[int, int]]:
    """Neighbour pairs ``(i, i+1)`` whose facing qubits are both free.

    Node ``i``'s right-facing qubit is busy iff some link has ``left == i``;
    node ``i+1``'s left-facing qubit is busy iff some link has
    ``right == i+1``.
    """
    lefts = {l.left for l in state.links}
    rights = {l.right for l in state.links}
    return {
        (i, i + 1)
        for i in range(1, state.n)
        if i not in lefts and (i + 1) not in rights
    }


def apply_generation(state: ChainState, successes: Iterable[tuple[int, int]]) -> ChainState:
    """Add one fresh (age 0) link per successful pair; result is intermediate.

    ``successes`` must be a subset of :func:`generation_pairs`.
    """
    allowed = generation_pairs(state)
    new = []
    for pair in successes:
        pair = (int(pair[0]), int(pair[1]))
        if pair not in allowed:
            raise ValueError(f"pair {pair} cannot generate in this state")
        new.append(Link(pair[0], pair[1], 0))
    if len(set(new)) != len(new):
        raise ValueError("duplicate generation pair")
    return ChainState(n=state.n, links=state.links + tuple(new), intermediate=True)


def generation_outcomes(state: ChainState) -> list[ChainState]:
    """Every result of phase 2 on an aged state, one per success mask.

    Entry ``mask`` is :func:`apply_generation` with the pairs ``b`` of
    ``sorted(generation_pairs(state))`` whose bit ``b`` is set.
    """
    fresh = [Link(i, j, 0) for i, j in sorted(generation_pairs(state))]
    outcomes = []
    for mask in range(1 << len(fresh)):
        links = list(state.links)
        links += [link for b, link in enumerate(fresh) if mask >> b & 1]
        links.sort()
        outcomes.append(_sorted_state(state.n, tuple(links), True))
    return outcomes


def valid_swap_nodes(state: ChainState) -> set[int]:
    """Interior nodes currently holding one link per side, i.e. able to swap."""
    lefts = {l.left for l in state.links}
    rights = {l.right for l in state.links}
    return {k for k in range(2, state.n) if k in lefts and k in rights}


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


def _links_by_endpoint(state: ChainState) -> tuple[dict[int, Link], dict[int, Link]]:
    out_of: dict[int, Link] = {}
    into: dict[int, Link] = {}
    for l in state.links:
        out_of[l.left] = l
        into[l.right] = l
    return out_of, into


def swap_runs(state: ChainState, nodes: Iterable[int]) -> list[tuple[tuple[Link, ...], tuple[int, ...]]]:
    """Group the links touched by a swap action into maximal runs.

    A run is a maximal sequence of links chained through swapping nodes; a
    run with ``k`` swapping nodes contains ``k + 1`` links.  Returns
    ``(links, nodes)`` pairs ordered left to right.  Raises if any node does
    not hold exactly two links.
    """
    nodes = set(nodes)
    out_of, into = _links_by_endpoint(state)
    for k in nodes:
        if k not in out_of or k not in into:
            raise ValueError(f"node {k} does not hold two links; cannot swap")
    runs = []
    seen: set[int] = set()
    for k in sorted(nodes):
        if k in seen:
            continue
        start = k
        while into[start].left in nodes:
            start = into[start].left
        run_links = [into[start]]
        run_nodes = []
        cur = start
        while cur in nodes:
            run_nodes.append(cur)
            seen.add(cur)
            nxt = out_of[cur]
            run_links.append(nxt)
            cur = nxt.right
        runs.append((tuple(run_links), tuple(run_nodes)))
    return runs


def resolve_swaps(state: ChainState, action: Iterable[int], pattern: Mapping[int, bool]) -> ChainState:
    """Apply one slot's swap measurements (phase 3).

    All swaps in ``action`` are measured simultaneously; ``pattern`` gives
    the per-node outcome.  Each run survives only if every swap inside it
    succeeds, in which case it collapses to a single link between the run's
    outer endpoints carrying the oldest input age.  A single failure
    destroys the entire run: every measured qubit is consumed, so any link
    merged onto a failed node is lost with it.  Links outside the action
    are untouched.
    """
    runs = swap_runs(state, action)
    consumed = {l for links, _ in runs for l in links}
    survivors = [l for l in state.links if l not in consumed]
    for links, nodes in runs:
        if all(pattern[k] for k in nodes):
            survivors.append(Link(links[0].left, links[-1].right, max(l.age for l in links)))
    return ChainState(n=state.n, links=tuple(survivors), intermediate=True)


def apply_cutoff(state: ChainState, t_cut: int) -> ChainState:
    """Discard links that reached the cutoff age (phase 4); end-to-end links stay.

    The result is a slot-boundary state.
    """
    links = tuple(
        l
        for l in state.links
        if l.age < t_cut or (l.left == 1 and l.right == state.n)
    )
    return ChainState(n=state.n, links=links)


# A swap run as (left, right, source positions): it merges the links at the
# source positions into one link from ``left`` to ``right``.
_Run = tuple[int, int, tuple[int, ...]]


@lru_cache(maxsize=None)
def _swap_template(
    n: int, pairs: tuple[tuple[int, int], ...]
) -> tuple[tuple[frozenset[int], ...], tuple[tuple[_Run, ...], ...]]:
    """Age-free run structure of every swap action on links with these endpoints.

    Returns the actions of :func:`action_space`, in its order, and the runs
    of each action, left to right, with sources given as positions in
    ``pairs``.  A run with ``k`` swaps merges ``k + 1`` links.
    """
    # Each probe link carries its position in ``pairs`` as its age, so the
    # runs report which input links they consume.
    probe = _sorted_state(n, tuple(Link(l, r, i) for i, (l, r) in enumerate(pairs)))
    actions = action_space(probe)
    runs = []
    for action in actions:
        runs.append(tuple(
            (links[0].left, links[-1].right, tuple(l.age for l in links))
            for links, _ in swap_runs(probe, action)
        ))
    return actions, tuple(runs)


class StateCodes:
    """Integer codes for the states of an ``n``-node chain with cutoff ``t_cut``.

    A state's code is ``sum((age + 1) * base**k)`` over its links, where ``k``
    is the position of the link's node pair in :func:`encode_state` order and
    ``base = t_cut + 2``: one digit per node pair, 0 for an absent pair.  No
    age exceeds ``t_cut`` before the cutoff, so every state of the chain has
    its own code.

    :meth:`swap_codes` resolves a swap action by code arithmetic: the
    end-of-slot code of each survival mask is the code of the links the
    action leaves alone and the cutoff keeps, plus one term per surviving
    run.  It keeps the run structure of each link-endpoint pattern (from
    :func:`_swap_template`) for all of that pattern's actions, and interns
    each action's per-run swap counts in :attr:`shapes`.
    """

    def __init__(self, n: int, t_cut: int):
        self.n = n
        self.t_cut = t_cut
        self.base = t_cut + 2
        self._pairs = tuple(combinations(range(1, n + 1), 2))
        self._weight = {pair: self.base**k for k, pair in enumerate(self._pairs)}
        self._end_weight = self._weight[1, n]
        #: Distinct per-run swap-count tuples, in order of first use.
        self.shapes: list[tuple[int, ...]] = []
        self._shape_index: dict[tuple[int, ...], int] = {}
        self._plans: dict[tuple[tuple[int, int], ...], tuple] = {}

    def code(self, state: ChainState) -> int:
        weight = self._weight
        return sum((l.age + 1) * weight[l.left, l.right] for l in state.links)

    def is_absorbing(self, code: int) -> bool:
        """True iff the coded state holds an end-to-end link."""
        return code // self._end_weight % self.base != 0

    def decode(self, code: int) -> ChainState:
        """The slot-boundary state with this code (absorbing ones included)."""
        links = []
        for left, right in self._pairs:
            if not code:
                break
            code, digit = divmod(code, self.base)
            if digit:
                links.append(Link(left, right, digit - 1))
        # Pairs run in sorted order, so the links come out sorted.
        return _sorted_state(self.n, tuple(links))

    def _plan(self, pairs: tuple[tuple[int, int], ...]) -> tuple:
        actions, action_runs = _swap_template(self.n, pairs)
        weight, n = self._weight, self.n
        # Actions share runs: each distinct run is resolved once per state.
        run_ids: dict[_Run, int] = {}
        shapes, rows = [], []
        for runs in action_runs:
            sizes = tuple(len(sources) - 1 for _, _, sources in runs)
            shape = self._shape_index.get(sizes)
            if shape is None:
                shape = self._shape_index[sizes] = len(self.shapes)
                self.shapes.append(sizes)
            shapes.append(shape)
            rows.append(tuple(run_ids.setdefault(run, len(run_ids)) for run in runs))
        runs = tuple((weight[l, r], l == 1 and r == n, sources) for l, r, sources in run_ids)
        return actions, tuple(shapes), tuple(weight[pair] for pair in pairs), runs, tuple(rows)

    def swap_codes(
        self, state: ChainState
    ) -> tuple[tuple[frozenset[int], ...], tuple[int, ...], list[int]]:
        """Every swap action of an intermediate state and its end-of-slot codes.

        Returns :func:`action_space` of ``state``; per action, the index of
        its per-run swap counts in :attr:`shapes`; and, action after action,
        one code per survival mask (bit ``b`` set: run ``b`` survived), so an
        action with ``k`` runs has ``2**k`` codes.  A surviving run becomes
        one link between its outer endpoints with the oldest input age; then
        the cutoff discards every link of age ``t_cut`` except an end-to-end
        link.  So an outcome's code is the code of the links the cutoff
        keeps, less the runs' input links, plus each surviving run's link.
        """
        links = state.links
        pairs = tuple([l[:2] for l in links])
        plan = self._plans.get(pairs)
        if plan is None:
            plan = self._plans[pairs] = self._plan(pairs)
        actions, shapes, weights, runs, rows = plan
        t_cut = self.t_cut
        ages = [l[2] for l in links]
        # Each link's term, or 0 if the cutoff discards it when left alone.
        live = [(age + 1) * w if age < t_cut else 0 for age, w in zip(ages, weights)]
        kept = sum(live)
        consumed, merged, alone = [], [], []
        for w, end_to_end, sources in runs:
            lost = sum([live[i] for i in sources])
            age = max([ages[i] for i in sources])
            term = (age + 1) * w if age < t_cut or end_to_end else 0
            consumed.append(lost)
            merged.append(term)
            alone.append((kept - lost, kept - lost + term))
        codes = []
        for row in rows:
            if len(row) == 1:
                # The commonest action: one run, failed or survived.
                codes += alone[row[0]]
                continue
            out = [kept - sum([consumed[j] for j in row])]
            for j in row:
                term = merged[j]
                out += [c + term for c in out]
            codes += out
        return actions, shapes, codes


def mirror(state: ChainState) -> ChainState:
    """Relabel the nodes in reverse order: link (i, j) becomes (n-j+1, n-i+1)."""
    n = state.n
    links = tuple(Link(n - l.right + 1, n - l.left + 1, l.age) for l in state.links)
    return ChainState(n=n, links=links, intermediate=state.intermediate)


def mirror_action(action: Iterable[int], n: int) -> frozenset[int]:
    """Mirror a swap action: node k becomes n-k+1."""
    return frozenset(n - k + 1 for k in action)


def canonical(state: ChainState) -> ChainState:
    """The representative of ``{state, mirror(state)}`` under a fixed order.

    States are compared by their sorted link tuples, so lower-left links are
    preferred.  Idempotent, and identical for a state and its mirror.
    """
    m = mirror(state)
    return state if state.links <= m.links else m


@lru_cache(maxsize=None)
def _pair_positions(n: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(combinations(range(1, n + 1), 2))}


def encode_state(state: ChainState) -> tuple[int, ...]:
    """Age-vector encoding: one entry per node pair (1,2), (1,3), ..., (n-1,n).

    Entries hold the link age, or -1 for absent links.  Bijective with the
    link-set representation; used for debugging, golden tests and file I/O.
    """
    pos = _pair_positions(state.n)
    vec = [-1] * len(pos)
    for l in state.links:
        vec[pos[(l.left, l.right)]] = l.age
    return tuple(vec)


def decode_state(vector: Iterable[int], n: int, intermediate: bool = False) -> ChainState:
    """Inverse of :func:`encode_state`."""
    vec = list(vector)
    pairs = list(combinations(range(1, n + 1), 2))
    if len(vec) != len(pairs):
        raise ValueError(f"expected {len(pairs)} entries for n={n}, got {len(vec)}")
    links = tuple(Link(i, j, age) for (i, j), age in zip(pairs, vec) if age >= 0)
    return ChainState(n=n, links=links, intermediate=intermediate)


def check_state(state: ChainState, t_cut: int | None = None) -> None:
    """Validate structural invariants, raising :class:`InvalidStateError`.

    Checks endpoint bounds, per-qubit exclusivity (each node starts at most
    one link and ends at most one link), that intervals never partially
    overlap (they may nest or be disjoint), nonnegative ages, and, when
    ``t_cut`` is given, the age bounds of the state's slot phase.
    """
    n = state.n
    for l in state.links:
        if not 1 <= l.left < l.right <= n:
            raise InvalidStateError(f"link {l} out of range for n={n}")
        if l.age < 0:
            raise InvalidStateError(f"link {l} has negative age")
    lefts = [l.left for l in state.links]
    rights = [l.right for l in state.links]
    if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
        raise InvalidStateError(f"per-qubit exclusivity violated in {state.links}")
    for a, b in combinations(state.links, 2):
        lo, hi = (a, b) if a.left <= b.left else (b, a)
        if lo.left < hi.left < lo.right < hi.right:
            raise InvalidStateError(f"links {a} and {b} partially overlap")
    if t_cut is not None:
        limit = t_cut if state.intermediate else t_cut - 1
        for l in state.links:
            if l.left == 1 and l.right == n:
                continue
            if l.age > limit:
                raise InvalidStateError(
                    f"link {l} exceeds age bound {limit} for this slot phase"
                )
