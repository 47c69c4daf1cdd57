"""Monte Carlo trajectory simulation of a policy on the chain dynamics.

Trajectories execute the exact same slot phases as the Markov model (the
``chain`` module's), so agreement between sample means and solved
expected delivery times validates only the probability calculus, which is
the part that can silently drift.  The only randomness is one Bernoulli
draw per generation pair (probability ``p``) and per swapping node
(probability ``p_s``); the model's transition probabilities are never used.

Trials run in chunks of :data:`CHUNK`, and all live trials of a chunk
advance together, one slot at a time.  States are interned to integer
indices, keyed by their :class:`~repeaterchain.chain.CodeLayout` code, as
trials first reach them.  A generation table maps (boundary index,
generation-success mask) to an intermediate index, and a swap table maps
(intermediate index, swap-success mask) to the next boundary index.
Entries are filled lazily the first time a trial needs them, by code
arithmetic: when a state is interned, ``CodeLayout.generation_terms`` or
``CodeLayout.swap_terms`` gives its slot phases as code terms, and an
entry is the sum of the terms its mask selects.  Those terms come from
the plan of the state's link layout, which the tables' ``CodeLayout``
builds once per layout (and a swap plan once per layout and action), so
the states of one layout share their run structure, whose links come
from the walk's own ``chain._run_link``; the plans last as long as the
tables, one :func:`estimate` call.  An intermediate state has
exactly one (boundary state, generation mask) parent: its age-0 links are
the fresh ones.  So it is interned when that one generation entry is
filled, and needs no index of its own.  A row holds ``2**k`` slots for
its state's ``k`` generation pairs or swapping nodes, so table memory
grows exponentially with the chain; codes are Python ints, so chains
past the enumeration walk's int64 codes still simulate.

States stay codes throughout.  The policy maps an intermediate state's
code, and its nodes able to swap (from its layout's plan), to its
action.  Each interned state is checked once, as
:func:`~repeaterchain.chain.check_state` would check it, so enumeration
bugs surface as errors instead of skewing statistics: its layout's
structure when the layout's plan is built, and its ages when it is
interned.  A slot-boundary state's ages are read from its code's digits
(``CodeLayout.read``).  An intermediate state's code is not read: its
layout is its parent's plus its fresh links, and its ages are its
parent's plus one, 0 for the fresh links, so they keep within the
intermediate bound ``t_cut`` because its parent's keep within
``t_cut - 1``.  A state is decoded only to be named in an error.

Randomness comes from a counter-based generator keyed by
``(master_seed, chunk index)``: a full chunk's delivery times are the same
whatever the total trial count or the order chunks run in.  Only a shorter
last chunk, which draws for fewer trials, depends on the trial count.
Each slot, a chunk takes ``m * (pairs + nodes)`` raw 64-bit words from
its generator in one call, ``m`` being its live trials: the first
``m * pairs``, row by row, decide generation and the rest the swaps.  A
word ``w`` succeeds with probability ``q`` when ``w <= L(q)``, where
``L(q) = (ceil(q * 2**53) << 11) - 1``: numpy's ``Generator.random``
turns ``w`` into ``(w >> 11) * 2**-53``, so this is ``random() < q`` on
the same stream, decided without the floats (:func:`_word_limit`,
:func:`_bernoulli_draws`).  The generator hands out consecutive words of
one stream, so a seed's delivery times do not depend on how a slot's
draws are split into calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ChainParams, CodeLayout, _is_integer

__all__ = [
    "CHUNK",
    "MAX_NODES",
    "SimConfig",
    "SimResult",
    "TrajectoryError",
    "estimate",
]

#: Trials per random stream; only the last chunk of a run may be shorter.
CHUNK = 4096


class TrajectoryError(RuntimeError):
    """A trajectory left the domain of the supplied policy or ran too long."""


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seeding and the slot limit for a simulation batch."""

    trials: int
    master_seed: int = 0
    max_slots: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("trials", "master_seed", "max_slots"):
            value = getattr(self, name)
            # The generator key would truncate a float seed into another
            # seed's stream.
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.max_slots < 1:
            raise ValueError("max_slots must be positive")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be in [0, 2**64)")


@dataclass(frozen=True)
class SimResult:
    """Summary of a simulation batch."""

    mean: float
    stderr: float
    histogram: dict[int, int]
    trials: int
    master_seed: int


def _grown(array: np.ndarray, size: int, fill) -> np.ndarray:
    """``array``, or a copy at least twice as long when it holds fewer than ``size`` entries."""
    if size <= array.size:
        return array
    out = np.full(max(size, 2 * array.size), fill, dtype=array.dtype)
    out[: array.size] = array
    return out


# Place value of mask bit k.  A row of k-bit masks holds 2**k slots at
# int64 offsets, so k stays below 63.
_BIT_VALUES = 1 << np.arange(62, dtype=np.int64)

#: The most nodes whose outcome masks fit: each of the ``n - 1`` neighbour
#: pairs of the empty state takes a mask bit.  Table memory runs out far
#: sooner, as a row holds a slot per mask.
MAX_NODES = _BIT_VALUES.size + 1


def _word_limit(q: float) -> np.uint64:
    """The largest raw generator word that succeeds with probability ``q`` in (0, 1].

    ``Generator.random`` maps a word ``w`` to ``(w >> 11) * 2**-53``, which
    is below ``q`` exactly when ``w >> 11 < ceil(q * 2**53)``; ``q * 2**53``
    is exact, a power-of-two scaling.  For ``q = 1`` every word succeeds.
    """
    return np.uint64((math.ceil(q * 2**53) << 11) - 1)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Per-row integer masks of a boolean (trials, k) array: column k is bit k.

    The bits are one slot's comparisons of its single draw (see the module
    docstring); one matrix product with their place values packs them,
    whatever ``k``.
    """
    return bits @ _BIT_VALUES[: bits.shape[1]]


class _Table:
    """Lazily filled map (row, mask) -> target index, ``2**bits`` masks per row.

    The slots of all rows sit in one flat array; a row's slots start at
    ``offset[row]``, and a negative value marks a slot not yet filled.
    ``n`` is the chain's node count, named when the slots cannot be allocated.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.offset = np.zeros(64, dtype=np.int64)
        self.mask = np.zeros(64, dtype=np.int64)
        self.slots = np.full(256, -1, dtype=np.int64)
        self.num_rows = 0
        self.size = 0

    def add_row(self, bits: int) -> None:
        """Append a row of ``2**bits`` empty slots.

        Raises :class:`ValueError` when the slot array cannot grow to hold
        it: numpy raises :class:`MemoryError` when the allocation fails, and
        :class:`ValueError` for an array too big to address.
        """
        row, size = self.num_rows, self.size + (1 << bits)
        try:
            self.slots = _grown(self.slots, size, -1)
        except (MemoryError, ValueError):
            raise ValueError(
                f"n={self.n} is too wide to simulate: its dense transition tables ask for "
                f"{size:,} slots of 8 bytes, more than can be allocated"
            ) from None
        self.offset = _grown(self.offset, row + 1, 0)
        self.mask = _grown(self.mask, row + 1, 0)
        self.offset[row] = self.size
        self.mask[row] = (1 << bits) - 1
        self.num_rows += 1
        self.size = size

    def lookup(self, rows: np.ndarray, bits: np.ndarray, fill: Callable[[int, int], int]) -> np.ndarray:
        """Targets of ``rows`` under the masks of ``bits``; columns past a row's width are ignored.

        ``bits`` is boolean, one row per entry of ``rows``, and is packed
        into masks in one call (:func:`_pack`).  Once the table is warm no
        slot is missing, so the misses are only located when the smallest
        target is negative.  ``fill(row, mask)`` computes a missing target.
        It may add rows to other tables but not to this one, so ``pos``
        stays valid.
        """
        masks = _pack(bits) & self.mask[rows]
        pos = self.offset[rows] + masks
        found = self.slots[pos]
        if found.min() < 0:
            missing = np.flatnonzero(found < 0)
            # Claim each missing slot for one of the trials that need it
            # (whichever duplicate write lands), so each is filled once.
            at, claim = pos[missing], -2 - missing
            self.slots[at] = claim
            won = missing[self.slots[at] == claim]
            self.slots[pos[won]] = [
                fill(row, mask) for row, mask in zip(rows[won].tolist(), masks[won].tolist())
            ]
            found[missing] = self.slots[at]
        return found


class _Tables:
    """Interned states of one (parameters, policy) pair and their transition tables.

    States are interned by their :class:`~repeaterchain.chain.CodeLayout`
    code; boundary index 0 is the empty state.  ``generation`` has one row
    per boundary state, with one mask bit per generation pair in sorted
    order; ``swap`` has one row per intermediate state, with one mask bit
    per swapping node in ascending order.  Each interned state keeps the
    code terms of its slot phases, so a table entry is filled by adding up
    the terms its mask selects.  ``policy(code, swappable)`` gives each
    intermediate state's action once, when the state is interned; only
    boundary states are looked up by code, since each intermediate state is
    reached from one generation entry alone.  A chain of more than :data:`MAX_NODES`
    nodes is refused before any table is allocated, and one whose tables
    outgrow memory when a row is added raises :class:`ValueError`.
    """

    def __init__(self, params: ChainParams, policy: Callable[[int, frozenset[int]], frozenset[int]]):
        if params.n > MAX_NODES:
            raise ValueError(
                f"n={params.n} is too wide to simulate: the outcome masks hold {_BIT_VALUES.size} bits, "
                f"one per neighbour pair, which fit at most n={MAX_NODES} nodes (table memory gives out far sooner)"
            )
        self.params = params
        self.policy = policy
        self.coder = CodeLayout(params.n, params.t_cut)
        self.boundary_index: dict[int, int] = {}
        # Per boundary state its aged code, its layout, the term of each
        # generation pair and its links' ages after ageing (None if
        # absorbing); per intermediate state the code the swaps leave and
        # each run's node mask and term.
        self.aged: list[tuple[int, int, tuple[int, ...], list[int]] | None] = []
        self.intermediate: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        self.absorbing = np.zeros(64, dtype=bool)
        self.generation = _Table(params.n)
        self.swap = _Table(params.n)
        self._boundary_id(0)

    def _boundary_id(self, code: int) -> int:
        b = self.boundary_index.get(code)
        if b is not None:
            return b
        plan, ages = self.coder.read(code)
        b = len(self.aged)
        self.boundary_index[code] = b
        self.absorbing = _grown(self.absorbing, b + 1, False)
        if plan.absorbing:
            self.absorbing[b] = True
            self.aged.append(None)
            self.generation.add_row(0)
        else:
            ageing, fresh = self.coder.generation_terms(plan)
            # After ageing every link is a slot older; a fresh link's place
            # held none (-1), so its age comes out 0.
            self.aged.append((code + ageing, plan.layout, fresh, [age + 1 for age in ages]))
            self.generation.add_row(len(fresh))
        return b

    def _generate(self, b: int, mask: int) -> int:
        # Only this (boundary state, generation mask) entry leads to the
        # intermediate state it fills, so each is interned once, here.  Its
        # code, its layout and its ages all follow from its parent's.
        aged, layout, fresh, ages = self.aged[b]
        added = sum([term for k, term in enumerate(fresh) if mask >> k & 1])
        code = aged + added
        plan = self.coder.plan(layout + added, code, True)
        try:
            action = self.policy(code, plan.swappable)
        except KeyError:
            raise TrajectoryError(
                f"trajectory reached a state outside the policy domain: {self.coder.state(code, True)}"
            ) from None
        r = len(self.intermediate)
        self.intermediate.append(self.coder.swap_terms(plan, ages, action))
        self.swap.add_row(len(action))
        return r

    def _resolve(self, r: int, mask: int) -> int:
        kept, runs = self.intermediate[r]
        return self._boundary_id(kept + sum([term for run, term in runs if mask & run == run]))

    def step(self, states: np.ndarray, gen_bits: np.ndarray, swap_bits: np.ndarray) -> np.ndarray:
        """Boundary indices one slot on, given each trial's Bernoulli outcomes.

        ``gen_bits[i, k]`` is the outcome of trial ``i``'s ``k``-th
        generation pair and ``swap_bits[i, k]`` that of its ``k``-th
        swapping node; columns past a state's pair or node count are
        ignored.  ``states`` must not be absorbing.
        """
        mid = self.generation.lookup(states, gen_bits, self._generate)
        return self.swap.lookup(mid, swap_bits, self._resolve)


def _run_chunk(
    tables: _Tables,
    size: int,
    draw: Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]],
    max_slots: int,
) -> np.ndarray:
    """Delivery times of ``size`` trials from the empty state, stepped together.

    ``draw(slot, live)`` returns the generation and swap bits of the trials
    at positions ``live`` for that slot, one row per live trial.
    """
    times = np.zeros(size, dtype=np.int64)
    live = np.arange(size)
    states = np.zeros(size, dtype=np.int64)
    for slot in range(1, max_slots + 1):
        gen_bits, swap_bits = draw(slot, live)
        states = tables.step(states, gen_bits, swap_bits)
        done = tables.absorbing[states]
        if np.count_nonzero(done):
            times[live[done]] = slot
            running = ~done
            live = live[running]
            states = states[running]
            if not live.size:
                return times
    raise TrajectoryError(
        f"no delivery within {max_slots} slots ({live.size} of {size} trials still running); "
        "policy or parameters look pathological"
    )


def _chunk_rng(master_seed: int, chunk: int) -> np.random.Generator:
    """Counter-based per-chunk stream: key = (master_seed, chunk index)."""
    key = np.array([master_seed, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _bernoulli_draws(
    params: ChainParams, words: Callable[[int], np.ndarray]
) -> Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """A chunk's ``draw`` for :func:`_run_chunk`, deciding each slot's outcomes on raw words.

    ``words(k)`` returns the next ``k`` words of the chunk's stream.  A slot
    takes them in one call, the same stream as a ``(m, pairs)`` draw then a
    ``(m, nodes)`` one, and a word succeeds when it is at most its
    probability's :func:`_word_limit`.
    """
    pairs, nodes = params.n - 1, params.n - 2
    gen_limit, swap_limit = _word_limit(params.p), _word_limit(params.p_s)

    def draw(slot: int, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = live.size
        raw = words(m * (pairs + nodes))
        return raw[: m * pairs].reshape(m, pairs) <= gen_limit, raw[m * pairs :].reshape(m, nodes) <= swap_limit

    return draw


def _delivery_times(
    params: ChainParams,
    policy: Callable[[int, frozenset[int]], frozenset[int]],
    config: SimConfig,
) -> np.ndarray:
    """Delivery time of every trial, in trial order.

    Raises :class:`ValueError` when the trials' times cannot be allocated,
    as :meth:`_Table.add_row` does for table slots.
    """
    tables = _Tables(params, policy)
    try:
        times = np.empty(config.trials, dtype=np.int64)
    except (MemoryError, ValueError):
        raise ValueError(
            f"trials={config.trials} is too many to simulate: their delivery times ask for "
            f"{config.trials:,} slots of 8 bytes, more than can be allocated"
        ) from None
    for chunk, start in enumerate(range(0, config.trials, CHUNK)):
        draw = _bernoulli_draws(params, _chunk_rng(config.master_seed, chunk).bit_generator.random_raw)
        size = min(CHUNK, config.trials - start)
        times[start : start + size] = _run_chunk(tables, size, draw, config.max_slots)
    return times


def estimate(
    params: ChainParams,
    policy: Callable[[int, frozenset[int]], frozenset[int]],
    config: SimConfig,
) -> SimResult:
    """Sample mean, standard error and histogram of the delivery time.

    ``policy(code, swappable)`` gives the action of each intermediate state
    a trajectory visits, from the state's
    :class:`~repeaterchain.chain.CodeLayout` code and the set of its nodes
    able to swap; it is called once per state, when the state is first
    reached.  Such functions are what
    :meth:`~repeaterchain.solver.Policy.state_map` and
    :func:`~repeaterchain.solver.baseline_rule` return.  A state for which
    it raises :class:`KeyError`, or running ``config.max_slots`` slots
    without delivery, raises :class:`TrajectoryError`; a chain of more than
    :data:`MAX_NODES` nodes, or tables or trial times that cannot be
    allocated, raise :class:`ValueError`.
    """
    times = _delivery_times(params, policy, config)
    counts = np.bincount(times)
    histogram = {int(t): int(c) for t, c in enumerate(counts) if c}
    mean = float(np.mean(times))
    stderr = float(np.std(times, ddof=1) / np.sqrt(config.trials)) if config.trials > 1 else 0.0
    return SimResult(
        mean=mean,
        stderr=stderr,
        histogram=histogram,
        trials=config.trials,
        master_seed=config.master_seed,
    )
