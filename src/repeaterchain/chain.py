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
    "age_links",
    "apply_cutoff",
    "apply_generation",
    "canonical",
    "check_state",
    "decode_state",
    "empty_state",
    "encode_state",
    "generation_pairs",
    "is_absorbing",
    "mirror",
    "mirror_action",
    "resolve_swaps",
    "state_from_links",
    "swap_outcomes",
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


def _sorted_state(n: int, links: tuple[Link, ...]) -> ChainState:
    """Slot-boundary state from a link tuple that is already sorted, skipping the re-sort.

    Valid states have unique left endpoints, so their sorted order is fixed
    by the endpoints alone; callers that keep endpoint order use this.
    """
    state = object.__new__(ChainState)
    _set_n(state, n)
    _set_links(state, links)
    _set_intermediate(state, False)
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


def valid_swap_nodes(state: ChainState) -> set[int]:
    """Interior nodes currently holding one link per side, i.e. able to swap."""
    lefts = {l.left for l in state.links}
    rights = {l.right for l in state.links}
    return {k for k in range(2, state.n) if k in lefts and k in rights}


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


@lru_cache(maxsize=None)
def _swap_template(
    pairs: tuple[tuple[int, int], ...], action: frozenset[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, int, tuple[int, ...]], ...], tuple[tuple[int, ...], ...]]:
    """Age-free run structure of one swap action on links with these endpoints.

    Returns the per-run swap counts, the candidate output links as
    ``(left, right, source positions)`` (untouched links first, then one
    merged link per run), and for every survival mask the indices of the
    candidates present, in sorted link order.
    """
    # Each probe link carries its position in ``pairs`` as its age, so the
    # runs report which input links they consume.
    probe = _sorted_state(0, tuple(Link(l, r, i) for i, (l, r) in enumerate(pairs)))
    runs = swap_runs(probe, action)
    sizes = tuple(len(nodes) for _, nodes in runs)
    consumed = {l.age for links, _ in runs for l in links}
    candidates = [(l.left, l.right, (l.age,)) for l in probe.links if l.age not in consumed]
    untouched = len(candidates)
    candidates += [(links[0].left, links[-1].right, tuple(l.age for l in links)) for links, _ in runs]
    masks = []
    for mask in range(1 << len(runs)):
        present = list(range(untouched))
        present += [untouched + b for b in range(len(runs)) if mask >> b & 1]
        masks.append(tuple(sorted(present, key=lambda c: candidates[c][:2])))
    return sizes, tuple(candidates), tuple(masks)


def swap_outcomes(
    state: ChainState, action: Iterable[int], t_cut: int
) -> tuple[tuple[int, ...], list[tuple[int, ChainState]]]:
    """Enumerate end-of-slot states over all swap-success combinations.

    The state after phase 3 depends only on which runs survive, and runs
    succeed independently: a run with ``k`` swaps survives with probability
    ``p_s ** k``.  Returns the per-run swap counts together with
    ``(mask, boundary_state)`` for every survival mask (bit ``b`` set means
    run ``b`` survived); the states include the cutoff of phase 4.

    The run structure depends on link endpoints and the action only, so it
    is cached; ages, the oldest-age merge and the cutoff are applied here.
    """
    links = state.links
    n = state.n
    sizes, candidates, masks = _swap_template(tuple([l[:2] for l in links]), frozenset(action))
    # Each candidate's age does not depend on the mask: settle it, and the
    # cutoff, once per call.  None marks a candidate the cutoff discards.
    kept: list[Link | None] = []
    for left, right, sources in candidates:
        if len(sources) == 1:
            link = links[sources[0]]
        else:
            link = Link(left, right, max([links[i].age for i in sources]))
        kept.append(link if link.age < t_cut or (left == 1 and right == n) else None)
    pick = kept.__getitem__
    outcomes = [
        (mask, _sorted_state(n, tuple(filter(None, map(pick, present)))))
        for mask, present in enumerate(masks)
    ]
    return sizes, outcomes


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
