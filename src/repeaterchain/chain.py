"""Repeater-chain state machine: links, time-slot phases, mirroring.

A chain of ``n`` nodes (numbered 1..n left to right) holds a set of
entangled links.  Each link is an interval ``(left, right)`` with an
integer age in slots.  A link occupies the right-facing qubit of its left
endpoint and the left-facing qubit of its right endpoint; intermediate
nodes have one qubit per side, end nodes a single qubit.

One time slot consists of four phases:

1. every link ages by one slot;
2. every pair of neighbours with free facing qubits attempts entanglement
   generation, each success adding a link of age 0;
3. a chosen set of nodes, each holding two links, performs entanglement
   swaps: the links through swapping nodes form runs, and a run whose
   swaps all succeed becomes one link between its outer endpoints with the
   oldest input age, while a run with a failed swap is lost;
4. links that reached the cutoff age are discarded, except end-to-end
   links.

:class:`ChainState` values are what errors name and :func:`check_state`
checks.  :class:`CodeLayout` gives the states of one ``(n, t_cut)``
integer codes, under which every phase is adding and dropping links'
terms, and reads the age rows files hold as codes
(:meth:`CodeLayout.code_of_ages`).  A link layout's free neighbour pairs,
nodes able to swap and swap runs (:func:`_runs`) follow from its links,
once; one code's links, for states, plans and walk alike, come from
:func:`_links`, and what a run consumes and makes from :func:`_run_link`.
:class:`StateCodes` runs the phases as digit arithmetic on whole batches
of codes, so the enumeration walk builds no states, and the simulator
adds up one state's terms per outcome (:meth:`CodeLayout.generation_terms`,
:meth:`CodeLayout.swap_terms`), checking each state by its code
(:meth:`CodeLayout.read`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ChainParams",
    "ChainState",
    "CodeLayout",
    "InvalidStateError",
    "LayoutPlan",
    "Link",
    "StateCodes",
    "check_state",
    "mirror_action",
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
        if not (_is_integer(self.n) and self.n >= 3):
            raise ValueError(f"n must be an integer >= 3, got {self.n!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p!r}")
        if not 0.0 < self.p_s <= 1.0:
            raise ValueError(f"p_s must lie in (0, 1], got {self.p_s!r}")
        if not (_is_integer(self.t_cut) and self.t_cut >= 1):
            raise ValueError(f"t_cut must be an integer >= 1, got {self.t_cut!r}")
        # Stored as Python ints: StateCodes' int64 overflow check needs
        # arithmetic that cannot wrap.
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "t_cut", int(self.t_cut))


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer of any type (numpy's too), but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


@lru_cache(maxsize=None)
def _subsets(nodes: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    """Every swap action on ``nodes``, by (size, node tuple): the empty one first, as solvers break ties.

    Shared by every state with the same eligible nodes, so an enumerated
    space holds one copy of each action list.
    """
    return tuple(frozenset(combo) for r in range(len(nodes) + 1) for combo in combinations(nodes, r))


def _links(n: int, t_cut: int, code: int) -> tuple[list[Link], int]:
    """The links of the state with this code (:class:`CodeLayout`), left to right, and what its digits leave over."""
    span, links = t_cut + 1, []
    for l in range(1, n):
        code, digit = divmod(code, 1 + (n - l) * span)
        if digit:
            links.append(Link(l, l + 1 + (digit - 1) // span, (digit - 1) % span))
    return links, code


def _runs(right: dict[int, int], nodes: Iterable[int]) -> list[tuple[int, ...]]:
    """The runs of the swap action ``nodes``, left to right, each as its nodes left to right.

    ``right`` maps every node of the action to the node at the right end of
    the link it starts.  A run chains swapping nodes along these links: it
    starts at a node no link of another action node leads to.
    """
    nodes = set(nodes)
    runs = []
    for k in sorted(nodes - {right[k] for k in nodes}):
        run = [k]
        while right[run[-1]] in nodes:
            run.append(right[run[-1]])
        runs.append(tuple(run))
    return runs


def _run_link(
    right: dict[int, int], left: dict[int, int], run: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """What a run of swapping nodes consumes and makes.

    ``right`` and ``left`` map each link's left end to its right end and
    back.  Returns the digit positions (left end less one) of the links the
    run consumes, the link into its first node and then the link out of
    each of its nodes, and the ends of the link it makes if all succeed.
    """
    starts = (left[run[0]], *run)
    return tuple([l - 1 for l in starts]), (starts[0], right[run[-1]])


@lru_cache(maxsize=None)
def _action_runs(
    n: int, chained: tuple[tuple[int, int], ...]
) -> tuple[tuple[frozenset[int], ...], tuple[tuple[int, ...], ...], np.ndarray, tuple[tuple[int, ...], ...]]:
    """The runs of every swap action of a link layout, from its nodes able to swap.

    ``chained`` pairs each such node, left to right, with the right end of
    its outgoing link, or 0 if that end cannot swap: layouts that agree on
    it share their runs (:func:`_runs`).  Returns the actions, in
    :func:`_subsets` order; their per-run swap counts; per action its runs'
    numbers among the distinct runs, padded with -1 to ``(n - 1) // 2``
    columns, read-only; and the distinct runs as node tuples.
    """
    right = dict(chained)
    actions = _subsets(tuple(right))
    sizes, runs = [], {}
    action_runs = np.full((len(actions), (n - 1) // 2), -1, dtype=np.int64)
    for a, action in enumerate(actions):
        found = _runs(right, action)
        sizes.append(tuple(map(len, found)))
        action_runs[a, : len(found)] = [runs.setdefault(run, len(runs)) for run in found]
    action_runs.flags.writeable = False
    return actions, tuple(sizes), action_runs, tuple(runs)


@lru_cache(maxsize=None)
def _swap_template(
    n: int, t_cut: int, layout: int
) -> tuple[tuple[frozenset[int], ...], tuple[tuple[int, ...], ...], np.ndarray, np.ndarray, np.ndarray]:
    """Age-free run structure of every swap action of one link layout.

    ``layout`` is the :class:`StateCodes` code of the links at age 0.
    Returns the actions, their per-run swap counts and runs
    (:func:`_action_runs`), then per distinct run what it consumes and makes
    (:func:`_run_link`): its input links' digit positions, padded with
    ``n - 1``, and its merged link's ends, both as read-only arrays.
    """
    right = {l: r for l, r, _ in _links(n, t_cut, layout)[0]}
    left = {r: l for l, r in right.items()}
    chained = tuple([(k, r if r in right else 0) for k, r in right.items() if k in left])
    actions, sizes, action_runs, runs = _action_runs(n, chained)
    sources, ends, pad = [], [], (n - 1,) * (n - 1)
    for run in runs:
        positions, link = _run_link(right, left, run)
        sources += positions + pad[len(positions) :]
        ends += link
    sources = np.array(sources, dtype=np.int64).reshape(-1, n - 1)
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    sources.flags.writeable = ends.flags.writeable = False
    return actions, sizes, action_runs, sources, ends


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and rank of every part when item ``i`` has ``counts[i]`` parts, laid out item by item."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner]


def _unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique``'s keys, first indices, inverse and counts of a 1-d int64 array, in order of first occurrence.

    That order numbers what a walk meets.  When every value is nonnegative
    and leaves the low bits free for a position, as the codes of every chain
    small enough to walk do, one plain sort of (value, position) words lists
    equal values in position order.  Otherwise any sort puts equal values
    next to each other, and a value's first index is the least position in
    its group.  Only the distinct values are then put in first-index order.
    """
    size = len(values)
    bits = size.bit_length()
    packed = size > 0 and values.min() >= 0 and values.max() >> (63 - bits) == 0
    if packed:
        words = np.sort((values << bits) | np.arange(size))
        order, ordered = words & ((1 << bits) - 1), words >> bits
    else:
        order = np.argsort(values)
        ordered = values[order]
    head = np.empty(size, dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    if packed:
        first = order[starts]
    else:
        # reduceat refuses an empty index list, and then there is nothing to reduce.
        first = np.minimum.reduceat(order, starts) if size else starts
    bounds = np.append(starts, size)
    counts = bounds[1:] - bounds[:-1]
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    inverse = np.empty(size, dtype=np.intp)
    inverse[order] = np.repeat(rank, counts)
    first = first[seen]
    return values[first], first, inverse, counts[seen]


def _intern(index_of: dict[int, int], keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index in ``index_of`` of each distinct key, the keys it lacks added next in order; and their positions."""
    index = np.fromiter(map(index_of.get, keys.tolist(), repeat(-1)), dtype=np.int64, count=len(keys))
    new = np.flatnonzero(index < 0)
    index[new] = np.arange(len(index_of), len(index_of) + len(new))
    index_of.update(zip(keys[new].tolist(), index[new].tolist()))
    return index, new


#: An age limit that no link reaches.
_NEVER = float("inf")


@dataclass(slots=True)
class LayoutPlan:
    """What the states of one link layout share, worked out once from its links at age 0.

    A layout is a state's links' (left, right) endpoints with ages
    ignored, named by its code at age 0.  Building the plan checks the
    layout's structure (:func:`check_state`), so a state of the layout
    need only have its ages checked.  ``right`` maps each link's left end
    to its right end (:func:`_links`); the layout is ``absorbing`` if
    it holds the end-to-end link, and ``swappable`` holds the nodes that
    start one link and end another.  ``generation`` is the generation plan
    of a non-absorbing layout, built the first time a slot-boundary state
    of the layout needs it (:meth:`CodeLayout.generation_terms`), and
    ``swaps`` holds the swap plan of each action met so far
    (:meth:`CodeLayout.swap_terms`), its runs' links from :func:`_run_link`.
    """

    layout: int
    right: dict[int, int]
    absorbing: bool
    swappable: frozenset[int]
    generation: tuple[int, tuple[int, ...]] | None = None
    swaps: dict[frozenset[int], tuple[tuple, tuple]] = field(default_factory=dict)


class CodeLayout:
    """Integer codes for the states of an ``n``-node chain with cutoff ``t_cut``, one state at a time.

    Digit ``l - 1`` of a code (``l = 1 .. n - 1``, digit 0 least significant)
    describes the link that leaves node ``l``: 0 if there is none, else
    ``1 + (right - l - 1) * (t_cut + 1) + age``, so its radix is
    ``1 + (n - l) * (t_cut + 1)``.  No age exceeds ``t_cut`` before the
    cutoff, so every state of the chain has its own code, and ageing,
    generation, swaps and the cutoff change digits without carries: a
    code is the sum of its links' terms, each link's digit times its
    place value.  A link keeps its digit under mirroring; only its
    position moves.

    Codes here are Python ints, so chains of any size have them.
    :meth:`code_of_ages` reads an age row as a code, and :meth:`state`
    decodes a code.  :meth:`read` checks the state a code stands for and
    gives its ages and its layout's plan (:class:`LayoutPlan`,
    :meth:`plan`), built the first time a state of the layout needs it and
    kept on this instance.  From a plan, :meth:`generation_terms` and
    :meth:`swap_terms` give the slot phases of the layout's states as terms
    that outcome masks add up, and its ``swappable`` nodes are what a
    baseline policy needs.  A swap plan, per (layout, action), holds per
    kept link and per run the digit positions of its links, its term at
    age 0, its place value and the age the cutoff discards it at, and per
    run its node mask; its runs and their links come from the plan's link
    ends (:func:`_runs`, :func:`_run_link`), as the walk's do.  So the
    states of one layout add up ``term + age * place value`` only, and no
    state is built but the one whose structure a new plan checks and one
    named in an error.  :class:`StateCodes` works on batches of int64 codes.
    """

    def __init__(self, n: int, t_cut: int):
        self.n = n
        self.t_cut = t_cut
        span = t_cut + 1
        self._radices = [1 + (n - l) * span for l in range(1, n)]
        self._weights = [1]
        for r in self._radices[:-1]:
            self._weights.append(self._weights[-1] * r)
        #: Code of the collapsed absorbing state: one end-to-end link of age 0.
        self.terminal_code = 1 + (n - 2) * span
        # Plans by layout code; they last as long as this instance.
        self._plans: dict[int, LayoutPlan] = {}

    def _term(self, link: Link) -> int:
        """What ``link`` adds to the code of any state that holds it."""
        l, r, a = link
        return (1 + (r - l - 1) * (self.t_cut + 1) + a) * self._weights[l - 1]

    @cached_property
    def _age_terms(self) -> tuple[list[dict[int, int]], int, int]:
        """Per node pair, each age's term in :meth:`code_of_ages`; the shift down to the code; the overflow mask.

        A held link's term is its code term, shifted past one field per left end, plus 1 in its
        left end's field.  A field counts to ``n - 1`` without carrying; the mask is its bits past the lowest.
        """
        width = (self.n - 1).bit_length()
        shift = (self.n - 1) * width
        tables = [
            {-1: 0, **{a: self._term(Link(l, r, a)) << shift | 1 << (l - 1) * width for a in range(self.t_cut + 1)}}
            for l, r in combinations(range(1, self.n + 1), 2)
        ]
        return tables, shift, (1 << shift) - 1 - sum([1 << l * width for l in range(self.n - 1)])

    def code_of_ages(self, row) -> int | None:
        """The code of an age row, or ``None`` if no state of the chain holds it.

        A row gives the age of the link on each node pair (1, 2), (1, 3), ..., (n - 1, n), or -1 for
        none (:meth:`StateCodes.ages`); one of another length raises :class:`ValueError`.  An age outside
        -1 .. ``t_cut`` or two links out of one node give ``None``: their digits could alias another state's.
        """
        tables, shift, overflow = self._age_terms
        if len(row) != len(tables):
            raise ValueError(f"expected {len(tables)} entries for n={self.n}, got {len(row)}")
        try:
            total = sum(map(dict.__getitem__, tables, row))
        except KeyError:
            return None
        return None if total & overflow else total >> shift

    def state(self, code: int, intermediate: bool = False) -> ChainState:
        """The state with this code."""
        return ChainState(self.n, tuple(_links(self.n, self.t_cut, code)[0]), intermediate)

    def read(self, code: int, intermediate: bool = False) -> tuple[LayoutPlan, list[int]]:
        """The plan of a state's layout and the age of its link out of each node (-1 for none).

        The state is the one with this code, slot-boundary or intermediate.
        It is checked as :func:`check_state` with ``t_cut`` checks it: its
        layout's structure once, when the plan is built (:meth:`plan`), and
        its ages here, against the bound of its slot phase.  A state that
        fails either is decoded and named in the :class:`InvalidStateError`
        raised.
        """
        n, limit = self.n, self.t_cut if intermediate else self.t_cut - 1
        links, rest = _links(n, self.t_cut, code)
        if rest or any([a > limit and (l, r) != (1, n) for l, r, a in links]):
            raise self._invalid(code, intermediate)
        ages, layout = [-1] * (n - 1), code
        for l, _, a in links:
            ages[l - 1] = a
            layout -= a * self._weights[l - 1]
        return self.plan(layout, code, intermediate), ages

    def plan(self, layout: int, code: int | None = None, intermediate: bool = False) -> LayoutPlan:
        """The plan of a link layout, given by its code at age 0, built and checked the first time.

        A layout whose structure :func:`check_state` refuses raises
        :class:`InvalidStateError`, naming the fault as :func:`check_state`
        names it in the state with code ``code`` (by default the layout's
        links at age 0), slot-boundary or ``intermediate``.
        """
        plan = self._plans.get(layout)
        if plan is None:
            state = self.state(layout)
            try:
                check_state(state)
            except InvalidStateError:
                raise self._invalid(layout if code is None else code, intermediate) from None
            right = {l: r for l, r, _ in state.links}
            swappable = frozenset(right).intersection(right.values())
            plan = self._plans[layout] = LayoutPlan(layout, right, right.get(1) == self.n, swappable)
        return plan

    def generation_terms(self, plan: LayoutPlan) -> tuple[int, tuple[int, ...]]:
        """Phases 1 and 2 of the slot-boundary states of a non-absorbing layout, as code terms.

        Returns what ageing adds to a state's code, one place value per held
        link, and, per neighbour pair ``(i, i + 1)`` left to right whose
        facing qubits are both free (no link leaves ``i`` or ends at
        ``i + 1``), the term of its fresh link.  The intermediate state
        after the pairs of a success mask is the aged code plus the terms of
        the mask's pairs; its layout is the layout's code plus the same
        terms, as fresh links are of age 0.  Neither depends on the ages, so
        they are worked out once per layout.
        """
        if plan.generation is None:
            right, weights = plan.right, self._weights
            ends = set(right.values())
            fresh = tuple(weights[i - 1] for i in range(1, self.n) if i not in right and i + 1 not in ends)
            plan.generation = sum([weights[l - 1] for l in right]), fresh
        return plan.generation

    def swap_terms(
        self, plan: LayoutPlan, ages: list[int], nodes: Iterable[int]
    ) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Phases 3 and 4 of an intermediate state under the swap action ``nodes``, as code terms.

        The state holds the links of ``plan``'s layout, the one out of node
        ``l`` at age ``ages[l - 1]``.  Returns the code of the links that
        the action leaves alone and the cutoff keeps, and per run of the
        action (:func:`_runs`, left to right) its mask over the action's
        nodes in ascending order and the term of its merged link, 0 if the
        cutoff discards it.  A run's merged link spans its outer endpoints
        with the oldest input age, and the cutoff discards every link of age
        ``t_cut`` but an end-to-end one.  The slot-boundary state after a
        swap outcome mask is the first code plus the terms of the runs whose
        nodes all succeeded.  The runs and their links depend on the layout
        and the action alone: they come from its swap plan (:func:`_run_link`),
        and only the ages are read here.  An action at a node that does not
        hold two links raises :class:`ValueError` naming the least such node.
        """
        nodes = frozenset(nodes)
        swap = plan.swaps.get(nodes)
        if swap is None:
            swap = plan.swaps[nodes] = self._swap_plan(plan, nodes)
        kept, runs = swap
        code, terms = 0, []
        for i, base, weight, limit in kept:
            age = ages[i]
            if age < limit:
                code += base + age * weight
        for mask, positions, base, weight, limit in runs:
            age = max([ages[i] for i in positions])
            terms.append((mask, base + age * weight if age < limit else 0))
        return code, tuple(terms)

    def _invalid(self, code: int, intermediate: bool) -> InvalidStateError:
        """The error that names what is wrong with the state with this code."""
        if 0 <= code < self._weights[-1] * self._radices[-1]:
            state = self.state(code, intermediate)
            try:
                check_state(state, self.t_cut)
            except InvalidStateError as error:
                return error
        return InvalidStateError(f"{code} is no code of a valid n={self.n}, t_cut={self.t_cut} state")

    def _swap_plan(self, plan: LayoutPlan, nodes: frozenset[int]) -> tuple[tuple, tuple]:
        """What :meth:`swap_terms` adds up for the states of ``plan``'s layout under the action ``nodes``."""
        unable = nodes - plan.swappable
        if unable:
            raise ValueError(f"node {min(unable)} does not hold two links; cannot swap")
        right = plan.right
        left = {r: l for l, r in right.items()}
        bit = {k: 1 << b for b, k in enumerate(sorted(nodes))}

        def place(l: int, r: int) -> tuple[int, int, float]:
            # The cutoff spares an end-to-end link whatever its age.
            limit = _NEVER if (l, r) == (1, self.n) else self.t_cut
            return self._term(Link(l, r, 0)), self._weights[l - 1], limit

        merged, consumed = [], set()
        for run in _runs(right, nodes):
            positions, ends = _run_link(right, left, run)
            consumed.update(positions)
            merged.append((sum([bit[k] for k in run]), positions, *place(*ends)))
        kept = tuple((l - 1, *place(l, r)) for l, r in right.items() if l - 1 not in consumed)
        return kept, tuple(merged)


class StateCodes(CodeLayout):
    """The codes of :class:`CodeLayout` on batches of states, as int64 arrays.

    Codes are int64, which holds every chain up to ``n = 12`` at
    ``t_cut = 7``; larger ones raise :class:`ValueError`.

    The methods work on batches, as int64 code arrays or as ``(states,
    n - 1)`` digit arrays: :meth:`generation`, :meth:`canonical` and
    :meth:`swap_outcomes` are the phases of the enumeration walk, and
    :meth:`ages` turns digits into the age rows that
    :meth:`CodeLayout.code_of_ages` reads back.
    """

    def __init__(self, n: int, t_cut: int):
        super().__init__(n, t_cut)
        radix, weight = self._radices, self._weights
        if weight[-1] * radix[-1] > np.iinfo(np.int64).max:
            raise ValueError(f"state codes of an n={n}, t_cut={t_cut} chain do not fit in 64 bits")
        self._radix = np.array(radix, dtype=np.int64)
        self._weight = np.array(weight, dtype=np.int64)
        # Digits run up to radix[0] - 1; radix[0] itself stands for "no link"
        # when rows of digits are compared.
        self._dtype = np.min_scalar_type(radix[0])
        # The swap tables of the link layouts seen so far, appended layout
        # after layout: per layout its plan index, its actions, and its
        # counts and starts in the per-row and per-run tables.
        self._shape_index: dict[tuple[int, ...], int] = {}
        self._plan_of: dict[int, int] = {}
        self._actions: list[tuple[frozenset[int], ...]] = []
        empty = np.zeros(0, dtype=np.int64)
        self._tables = {
            "row_shape": np.zeros(0, dtype=np.int16),
            "row_runs": np.zeros((0, (n - 1) // 2), dtype=np.int64),
            "row_run_count": empty,
            "run_sources": np.zeros((0, n - 1), dtype=np.int64),
            "run_digit": empty,
            "run_weight": empty,
            "run_end_to_end": np.zeros(0, dtype=bool),
            **dict.fromkeys(("num_actions", "row_start", "num_runs", "run_start"), empty),
        }

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Distinct per-run swap-count tuples, in order of first use."""
        return tuple(self._shape_index)

    # -- conversions -------------------------------------------------------------

    def digits(self, codes) -> np.ndarray:
        """The ``(len(codes), n - 1)`` digit array of int64 codes."""
        rest = np.asarray(codes, dtype=np.int64)
        out = np.empty((len(rest), self.n - 1), dtype=self._dtype)
        for i, radix in enumerate(self._radix.tolist()):
            rest, out[:, i] = np.divmod(rest, radix)
        return out

    def codes(self, digits: np.ndarray) -> np.ndarray:
        """The int64 codes of a digit array."""
        return digits.astype(np.int64) @ self._weight

    def is_absorbing(self, codes) -> np.ndarray:
        """True where the coded state holds an end-to-end link."""
        return np.asarray(codes) % self._radix[0] >= self.terminal_code

    def ages(self, digits: np.ndarray) -> np.ndarray:
        """The age vector of every row of a digit array, as a ``(rows, n (n - 1) / 2)`` array.

        A row holds one entry per node pair (1, 2), (1, 3), ..., (n - 1, n),
        the age of its link or -1 for none, as :meth:`CodeLayout.code_of_ages` reads it.
        """
        span, n = self.t_cut + 1, self.n
        rows, lefts = np.nonzero(digits)
        held = digits[rows, lefts].astype(np.int64) - 1
        out = np.full((len(digits), n * (n - 1) // 2), -1, dtype=np.min_scalar_type(-span))
        # Pairs (l, l + 1) .. (l, n) follow each other, after the n - 1, n - 2, ... pairs of the ends left of l.
        out[rows, lefts * n - lefts * (lefts + 1) // 2 + held // span] = held % span
        return out

    # -- mirroring -----------------------------------------------------------------

    def mirror(self, digits: np.ndarray) -> np.ndarray:
        """Digits of the mirror images: link ``(l, r)`` moves to position ``n - r``."""
        # Flat positions, row-major: the link at ``at`` (left end ``at % (n - 1)``
        # of its row, length ``(held - 1) // (t_cut + 1) + 1``) moves within its
        # row from ``left`` to ``n - 1 - left - length``.
        flat = digits.reshape(-1)
        at = np.flatnonzero(flat)
        held = flat[at]
        out = np.zeros(flat.shape, dtype=digits.dtype)
        out[at + self.n - 2 - 2 * (at % (self.n - 1)) - (held.astype(np.int64) - 1) // (self.t_cut + 1)] = held
        return out.reshape(digits.shape)

    def canonical(self, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Digits of each state's representative, and which states are self-mirrored.

        The representative of a state and its mirror image is the one whose
        sorted link tuple is smaller, so lower-left links are preferred.
        ``links <= mirror(links)`` compares sorted link tuples; digits are
        in left-endpoint order, so that is a row-wise comparison of the two
        digit rows with an absent link sorting last.  A state and its mirror
        hold equally many links, so neither can be a proper prefix of the other.
        """
        mirrored = self.mirror(digits)
        absent = self._radix[0]
        key = np.where(digits == 0, absent, digits)
        mirror_key = np.where(mirrored == 0, absent, mirrored)
        differ = key != mirror_key
        first = differ.argmax(axis=1)
        rows = np.arange(len(digits))
        keep = key[rows, first] <= mirror_key[rows, first]
        return np.where(keep[:, None], digits, mirrored), ~differ.any(axis=1)

    # -- the slot phases -------------------------------------------------------------

    def generation(self, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Phases 1 and 2 of a batch of slot-boundary states: every aged child.

        A state with ``k`` free neighbour pairs (as
        :meth:`CodeLayout.generation_terms` finds them) has ``2**k`` children; child ``mask`` holds a fresh link on the
        ``b``-th free pair from the left where bit ``b`` is set.  Absorbing
        states have none.  Returns each child's parent (its row in
        ``digits``), its digits, its successful attempts and its parent's
        attempts, children in parent order, then mask order.
        """
        held = digits > 0
        # A link blocks the pair to the right of its left end and the pair
        # to the left of its right end: a link of length k that leaves node
        # l blocks the pairs at positions l - 1 and l + k - 2.
        rows, lefts = np.nonzero(held)
        ends = lefts + (digits[rows, lefts].astype(np.int64) - 1) // (self.t_cut + 1)
        free = ~held
        free[rows, ends] = False
        attempts = free.sum(axis=1)
        counts = np.where(digits[:, 0] < self.terminal_code, 1 << attempts, 0)
        owner, mask = _segments(counts)
        rank = np.cumsum(free, axis=1) - free
        fresh = (mask[:, None] >> rank[owner]) & free[owner]
        children = (digits + held)[owner] + fresh.astype(digits.dtype)
        return owner, children, fresh.sum(axis=1), attempts[owner]

    def swap_outcomes(self, digits: np.ndarray) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
        """Phases 3 and 4 of a batch of intermediate states, for every swap action.

        Returns, per state, its actions (every subset of its nodes able to
        swap, in :func:`_subsets` order) and its number of actions; the index in :attr:`shapes` of each action's per-run swap
        counts, state after state; and the end-of-slot codes, state after
        state, action after action, one per survival mask (bit ``b`` set:
        run ``b`` survived), so an action with ``k`` runs has ``2**k``.  A
        surviving run becomes one link between its outer endpoints with the
        oldest input age; then the cutoff discards every link of age
        ``t_cut`` except an end-to-end link.  So an outcome's code is the
        code of the links the cutoff keeps, less the runs' input links, plus
        each surviving run's link.  The run structure of each link layout
        comes from :func:`_swap_template`, its links from :func:`_run_link`;
        the layouts new to a batch are appended to this coder's tables together.
        """
        t_cut = self.t_cut
        d = digits.astype(np.int64)
        width = self.n  # a padding column past the last digit
        padded_age = np.full((len(d), width), -1, dtype=np.int64)
        age = padded_age[:, :-1]
        np.remainder(d - 1, t_cut + 1, out=age)  # t_cut where there is no link
        # Each state's link layout: its digits with every age set to 0.
        layout = np.where(d > 0, d - age, 0)
        keys, _, inverse, _ = _unique(layout @ self._weight)
        plan, new = _intern(self._plan_of, keys)
        if len(new):
            self._add_plans(keys[new].tolist())
        plans = plan[inverse]
        tab = self._tables

        # Each link's term, or 0 if the cutoff discards it when left alone.
        padded_live = np.zeros((len(d), width), dtype=np.int64)
        np.multiply(d * (age < t_cut), self._weight, out=padded_live[:, :-1])
        kept = padded_live.sum(axis=1)
        # Every run of every state: the terms it consumes and the link it makes.
        live, age = padded_live.ravel(), padded_age.ravel()
        num_runs = tab["num_runs"][plans]
        run_state, rank = _segments(num_runs)
        run = tab["run_start"][plans][run_state] + rank
        sources = run_state[:, None] * width + tab["run_sources"][run]
        lost = live[sources].sum(axis=1)
        run_age = age[sources].max(axis=1)
        del sources
        term = np.where(
            (run_age < t_cut) | tab["run_end_to_end"][run],
            (tab["run_digit"][run] + run_age) * tab["run_weight"][run],
            0,
        )
        del run_age

        # Survival mask m of a row: the code of the links the cutoff keeps,
        # less the input links of the row's runs, plus the term of every run
        # whose bit m sets.  Rows with equally many runs expand together,
        # mask by mask: the masks with bit b set add run b's term to those
        # without it.
        row_state, rank = _segments(tab["num_actions"][plans])
        row = tab["row_start"][plans][row_state] + rank
        run_count = tab["row_run_count"][row]
        num_outcomes = np.left_shift(1, run_count)
        start = np.cumsum(num_outcomes) - num_outcomes
        codes = np.empty(int(num_outcomes.sum()), dtype=np.int64)
        run_offset = np.cumsum(num_runs) - num_runs
        for k in range(tab["row_runs"].shape[1] + 1):
            rows = np.flatnonzero(run_count == k)
            if not len(rows):
                continue
            block = np.empty((len(rows), 1 << k), dtype=np.int64)
            block[:, 0] = kept[row_state[rows]]
            if k:
                runs = run_offset[row_state[rows], None] + tab["row_runs"][row[rows], :k]
                for b in range(k):
                    block[:, 0] -= lost[runs[:, b]]
                for b in range(k):
                    np.add(block[:, : 1 << b], term[runs[:, b], None], out=block[:, 1 << b : 2 << b])
            codes[start[rows, None] + np.arange(1 << k)] = block

        row_shape = tab["row_shape"][row]
        actions = list(map(self._actions.__getitem__, plans.tolist()))
        return actions, tab["num_actions"][plans], row_shape, codes

    def _add_plans(self, layouts: list[int]) -> None:
        """Append the swap tables of link layouts new to this coder (codes at age 0), in order."""
        n, span = self.n, self.t_cut + 1
        actions, sizes, action_runs, sources, ends = zip(*[_swap_template(n, self.t_cut, l) for l in layouts])
        self._actions += actions
        shape_of = self._shape_index
        shapes = [shape for action_sizes in sizes for shape in action_sizes]
        num_actions = np.array([len(a) for a in actions], dtype=np.int64)
        num_runs = np.array([len(s) for s in sources], dtype=np.int64)
        # Per run, from its merged link's ends: the link's digit at age 0,
        # its place value and whether the cutoff spares it.
        run_left, run_right = np.concatenate(ends).T
        tables = self._tables
        new = {
            "row_shape": np.array([shape_of.setdefault(s, len(shape_of)) for s in shapes], dtype=np.int16),
            "row_runs": np.concatenate(action_runs),
            "row_run_count": np.array([len(shape) for shape in shapes], dtype=np.int64),
            "run_sources": np.concatenate(sources),
            "run_digit": 1 + (run_right - run_left - 1) * span,
            "run_weight": self._weight[run_left - 1],
            "run_end_to_end": (run_left == 1) & (run_right == n),
            "num_actions": num_actions,
            "row_start": len(tables["row_shape"]) + np.cumsum(num_actions) - num_actions,
            "num_runs": num_runs,
            "run_start": len(tables["run_digit"]) + np.cumsum(num_runs) - num_runs,
        }
        for name, values in new.items():
            tables[name] = np.concatenate((tables[name], values))


def mirror_action(action: Iterable[int], n: int) -> frozenset[int]:
    """Mirror a swap action: node k becomes n-k+1."""
    return frozenset(n - k + 1 for k in action)


def check_state(state: ChainState, t_cut: int | None = None) -> None:
    """Validate structural invariants, raising :class:`InvalidStateError`.

    Checks endpoint bounds, per-qubit exclusivity (each node starts at most
    one link and ends at most one link), that intervals never partially
    overlap (they may nest or be disjoint), nonnegative ages, and, when
    ``t_cut`` is given, the age bounds of the state's slot phase.

    A valid state passes in one scan of its links in left-endpoint order,
    which keeps the right ends of the links still open on a stack: a link
    must end before the innermost of them.  A state that fails the scan
    goes through the checks one by one, which name the first fault.
    """
    n = state.n
    limit = _NEVER if t_cut is None else t_cut if state.intermediate else t_cut - 1
    last, ends = 0, [n + 1]
    for left, right, age in state.links:
        if not last < left < right <= n:
            break
        while ends[-1] <= left:
            ends.pop()
        if right >= ends[-1] or age < 0 or (age > limit and (left, right) != (1, n)):
            break
        ends.append(right)
        last = left
    else:
        return
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
    for l in state.links:
        if l.age > limit and (l.left, l.right) != (1, n):
            raise InvalidStateError(f"link {l} exceeds age bound {limit} for this slot phase")
