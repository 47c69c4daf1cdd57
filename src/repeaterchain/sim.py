"""Monte Carlo trajectory simulation of a policy on the chain dynamics.

Trajectories execute the exact same slot phases as the Markov model (via
the ``chain`` primitives), so agreement between sample means and solved
expected delivery times validates only the probability calculus, which is
the part that can silently drift.  The only randomness is one Bernoulli
draw per generation pair (probability ``p``) and per swapping node
(probability ``p_s``); the model's transition probabilities are never used.

Trials run in chunks of :data:`CHUNK`, and all live trials of a chunk
advance together, one slot at a time.  States are interned to integer
indices as trials first reach them.  A generation table maps (boundary
index, generation-success mask) to an intermediate index, and a swap table
maps (intermediate index, swap-success mask) to the next boundary index.
Entries are filled lazily through the ``chain`` primitives the first time
a trial needs them, and every newly interned state is checked with
:func:`~repeaterchain.chain.check_state`, so enumeration bugs surface as
errors instead of skewing statistics.

Randomness comes from a counter-based generator keyed by
``(master_seed, chunk index)``: a full chunk's delivery times are the same
whatever the total trial count or the order chunks run in.  Only a shorter
last chunk, which draws for fewer trials, depends on the trial count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .chain import (
    ChainParams,
    ChainState,
    age_links,
    apply_cutoff,
    apply_generation,
    check_state,
    empty_state,
    generation_pairs,
    is_absorbing,
    resolve_swaps,
)

__all__ = [
    "CHUNK",
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
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.max_slots < 1:
            raise ValueError("max_slots must be positive")


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


def _pack(bits: np.ndarray) -> np.ndarray:
    """Per-row integer masks of a boolean (trials, k) array: column k is bit k."""
    masks = bits[:, 0].astype(np.int64)
    for k in range(1, bits.shape[1]):
        masks |= bits[:, k].astype(np.int64) << k
    return masks


class _Table:
    """Lazily filled map (row, mask) -> target index, ``2**bits`` masks per row.

    The slots of all rows sit in one flat array; a row's slots start at
    ``offset[row]``, and a negative value marks a slot not yet filled.
    """

    def __init__(self) -> None:
        self.offset = np.zeros(64, dtype=np.int64)
        self.mask = np.zeros(64, dtype=np.int64)
        self.slots = np.full(256, -1, dtype=np.int64)
        self.num_rows = 0
        self.size = 0

    def add_row(self, bits: int) -> None:
        row = self.num_rows
        self.offset = _grown(self.offset, row + 1, 0)
        self.mask = _grown(self.mask, row + 1, 0)
        self.offset[row] = self.size
        self.mask[row] = (1 << bits) - 1
        self.num_rows += 1
        self.size += 1 << bits
        self.slots = _grown(self.slots, self.size, -1)

    def lookup(self, rows: np.ndarray, bits: np.ndarray, fill: Callable[[int, int], int]) -> np.ndarray:
        """Targets of ``rows`` under the masks of ``bits``; columns past a row's width are ignored.

        ``fill(row, mask)`` computes a missing target.  It may add rows to
        other tables but not to this one, so ``pos`` stays valid.
        """
        masks = _pack(bits) & self.mask[rows]
        pos = self.offset[rows] + masks
        found = self.slots[pos]
        missing = np.flatnonzero(found < 0)
        if missing.size:
            # Claim each missing slot for one of the trials that need it
            # (whichever duplicate write lands), so each is filled once.
            at, claim = pos[missing], -2 - missing
            self.slots[at] = claim
            for i in missing[self.slots[at] == claim].tolist():
                self.slots[pos[i]] = fill(int(rows[i]), int(masks[i]))
            found[missing] = self.slots[at]
        return found


class _Tables:
    """Interned states of one (parameters, policy) pair and their transition tables.

    Boundary index 0 is the empty state.  ``generation`` has one row per
    boundary state, with one mask bit per generation pair in sorted order;
    ``swap`` has one row per intermediate state, with one mask bit per
    swapping node in ascending order.
    """

    def __init__(self, params: ChainParams, policy_map: Mapping[ChainState, frozenset[int]]):
        self.params = params
        self.policy_map = policy_map
        self.boundary_index: dict[ChainState, int] = {}
        self.intermediate_index: dict[ChainState, int] = {}
        self.aged: list[tuple[ChainState, tuple[tuple[int, int], ...]] | None] = []
        self.intermediate: list[tuple[ChainState, tuple[int, ...]]] = []
        self.absorbing = np.zeros(64, dtype=bool)
        self.generation = _Table()
        self.swap = _Table()
        self._boundary_id(empty_state(params.n))

    def _boundary_id(self, state: ChainState) -> int:
        b = self.boundary_index.get(state)
        if b is not None:
            return b
        check_state(state, self.params.t_cut)
        b = len(self.aged)
        self.boundary_index[state] = b
        self.absorbing = _grown(self.absorbing, b + 1, False)
        if is_absorbing(state):
            self.absorbing[b] = True
            self.aged.append(None)
            self.generation.add_row(0)
        else:
            aged = age_links(state)
            pairs = tuple(sorted(generation_pairs(aged)))
            self.aged.append((aged, pairs))
            self.generation.add_row(len(pairs))
        return b

    def _intermediate_id(self, state: ChainState) -> int:
        r = self.intermediate_index.get(state)
        if r is not None:
            return r
        try:
            action = self.policy_map[state]
        except KeyError:
            raise TrajectoryError(
                f"trajectory reached a state outside the policy domain: {state}"
            ) from None
        check_state(state, self.params.t_cut)
        r = len(self.intermediate)
        self.intermediate_index[state] = r
        nodes = tuple(sorted(action))
        self.intermediate.append((state, nodes))
        self.swap.add_row(len(nodes))
        return r

    def _generate(self, b: int, mask: int) -> int:
        aged, pairs = self.aged[b]
        chosen = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        return self._intermediate_id(apply_generation(aged, chosen))

    def _resolve(self, r: int, mask: int) -> int:
        state, nodes = self.intermediate[r]
        pattern = {k: bool(mask >> b & 1) for b, k in enumerate(nodes)}
        return self._boundary_id(apply_cutoff(resolve_swaps(state, nodes, pattern), self.params.t_cut))

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
        if done.any():
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


def _delivery_times(
    params: ChainParams,
    policy_map: Mapping[ChainState, frozenset[int]],
    config: SimConfig,
) -> np.ndarray:
    """Delivery time of every trial, in trial order."""
    tables = _Tables(params, policy_map)
    pairs, nodes = params.n - 1, params.n - 2
    times = np.empty(config.trials, dtype=np.int64)
    for chunk, start in enumerate(range(0, config.trials, CHUNK)):
        rng = _chunk_rng(config.master_seed, chunk)

        def draw(slot: int, live: np.ndarray, rng=rng) -> tuple[np.ndarray, np.ndarray]:
            return (
                rng.random((live.size, pairs)) < params.p,
                rng.random((live.size, nodes)) < params.p_s,
            )

        size = min(CHUNK, config.trials - start)
        times[start : start + size] = _run_chunk(tables, size, draw, config.max_slots)
    return times


def estimate(
    params: ChainParams,
    policy_map: Mapping[ChainState, frozenset[int]],
    config: SimConfig,
) -> SimResult:
    """Sample mean, standard error and histogram of the delivery time.

    ``policy_map`` must assign an action to every intermediate state a
    trajectory visits; reaching an unmapped state, or running
    ``config.max_slots`` slots without delivery, raises
    :class:`TrajectoryError`.
    """
    times = _delivery_times(params, policy_map, config)
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
