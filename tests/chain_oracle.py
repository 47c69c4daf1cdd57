"""Reference slot semantics on :class:`~repeaterchain.chain.ChainState` values.

The package runs the slot dynamics as code arithmetic only: the walk on
batches of :class:`~repeaterchain.chain.StateCodes` codes, the simulator
on :class:`~repeaterchain.chain.CodeLayout` plans, both derived from a
link layout's digits.  The phase functions below run the same dynamics
one state at a time, on the states' links, and the tests check the code
arithmetic against them.  They share with the package only its state
values (``ChainState``, ``Link``): codes are worked out here from the
code's definition (:func:`encode_code`, :func:`decode_codes`).  Every
state they return comes from the public ``ChainState`` constructor, which
sorts its links.

One time slot consists of four phases:

1. every link ages by one slot (:func:`age_links`);
2. every pair of neighbours with free facing qubits attempts entanglement
   generation (:func:`generation_pairs` / :func:`apply_generation`);
3. a chosen set of nodes, each holding two links (:func:`valid_swap_nodes`,
   :func:`action_space`), performs entanglement swaps: the links through
   swapping nodes form runs (:func:`swap_runs`, :func:`resolve_swaps`);
4. links that reached the cutoff age are discarded, except end-to-end
   links (:func:`apply_cutoff`).  The process stops in an absorbing state,
   one that holds an end-to-end link (:func:`is_absorbing`).

:func:`boundary_states` and :func:`intermediate_states` decode a space's
codes into states, and :func:`index` maps states to their positions.
:func:`act` calls a policy as the simulator does, on a state's code and
its nodes able to swap.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Mapping
from weakref import WeakKeyDictionary

import numpy as np

from repeaterchain.chain import ChainState, Link


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
    return ChainState(n=state.n, links=tuple(Link(l.left, l.right, l.age + 1) for l in state.links))


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
    nodes = sorted(valid_swap_nodes(state))
    return tuple(frozenset(combo) for r in range(len(nodes) + 1) for combo in combinations(nodes, r))


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
    n = state.n
    links = tuple(l for l in state.links if l.age < t_cut or (l.left == 1 and l.right == n))
    return ChainState(n=n, links=links)


def mirror(state: ChainState) -> ChainState:
    """Relabel the nodes in reverse order: link (i, j) becomes (n-j+1, n-i+1)."""
    n = state.n
    links = tuple(Link(n - l.right + 1, n - l.left + 1, l.age) for l in state.links)
    return ChainState(n=n, links=links, intermediate=state.intermediate)


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

    Entries hold the link age, or -1 for absent links, as in
    ``chain.StateCodes.ages`` rows, which ``CodeLayout.code_of_ages`` reads back.
    """
    pos = _pair_positions(state.n)
    vec = [-1] * len(pos)
    for l in state.links:
        vec[pos[(l.left, l.right)]] = l.age
    return tuple(vec)


def _radices(n: int, t_cut: int) -> list[int]:
    """Per node ``l = 1 .. n - 1``, the radix of the digit of the link that leaves it."""
    return [1 + (n - l) * (t_cut + 1) for l in range(1, n)]


def encode_code(state: ChainState, t_cut: int) -> int:
    """The code of a state of a chain with cutoff ``t_cut``: the inverse of :func:`decode_codes`.

    Raises ``ValueError`` for a link set that no code holds: two links out
    of one node, or a link out of range or with an age outside ``0 .. t_cut``.
    """
    n, span = state.n, t_cut + 1
    if len({l.left for l in state.links}) < len(state.links) or not all(
        1 <= l < r <= n and 0 <= a <= t_cut for l, r, a in state.links
    ):
        raise ValueError(f"no n={n}, t_cut={t_cut} code holds the links {state.links}")
    weights = [1]
    for radix in _radices(n, t_cut)[:-1]:
        weights.append(weights[-1] * radix)
    return sum((1 + (r - l - 1) * span + a) * weights[l - 1] for l, r, a in state.links)


def decode_codes(n: int, t_cut: int, codes, intermediate: bool = False) -> tuple[ChainState, ...]:
    """The states with these codes, all slot-boundary or all intermediate.

    Digit ``l - 1`` of a code, of radix ``1 + (n - l) * (t_cut + 1)``, is 0
    if no link leaves node ``l``, else ``1 + (right - l - 1) * (t_cut + 1) + age``
    (the code of ``chain.CodeLayout``).
    """
    span = t_cut + 1
    radices = _radices(n, t_cut)
    # Per digit position, the link of every digit value (None for 0).
    digit_links = [
        (radix, [None] + [Link(l, l + 1 + (d - 1) // span, (d - 1) % span) for d in range(1, radix)])
        for l, radix in enumerate(radices, start=1)
    ]
    states = []
    for code in np.asarray(codes, dtype=np.int64).tolist():
        links = []
        for radix, table in digit_links:
            code, digit = divmod(code, radix)
            if digit:
                links.append(table[digit])
        states.append(ChainState(n=n, links=tuple(links), intermediate=intermediate))
    return tuple(states)


#: Decoded state lists by space, kept as long as the space lives.
_DECODED: WeakKeyDictionary = WeakKeyDictionary()


def _decoded(space, intermediate: bool) -> tuple[ChainState, ...]:
    lists = _DECODED.setdefault(space, {})
    if intermediate not in lists:
        codes = space.intermediate_codes if intermediate else space.boundary_codes
        lists[intermediate] = decode_codes(space.params.n, space.params.t_cut, codes, intermediate)
    return lists[intermediate]


def boundary_states(space) -> tuple[ChainState, ...]:
    """The slot-boundary states a space lists, in index order.

    ``boundary_states(space)[0]`` is the empty state and
    ``boundary_states(space)[space.terminal_index]`` the collapsed absorbing
    state, the single end-to-end link at age 0.
    """
    return _decoded(space, False)


def intermediate_states(space) -> tuple[ChainState, ...]:
    """The intermediate states a space lists, in index order."""
    return _decoded(space, True)


def index(states: Iterable[ChainState]) -> dict[ChainState, int]:
    """Each state's position in ``states`` (the last one, if a state repeats)."""
    return {s: i for i, s in enumerate(states)}


def act(policy: Callable[[int, frozenset[int]], frozenset[int]], state: ChainState, t_cut: int) -> frozenset[int]:
    """The action ``policy`` takes in an intermediate state of a chain with cutoff ``t_cut``.

    The policy is called as the simulator calls it, ``policy(code,
    swappable)``, with the state's code and its nodes able to swap.
    """
    return policy(encode_code(state, t_cut), frozenset(valid_swap_nodes(state)))
