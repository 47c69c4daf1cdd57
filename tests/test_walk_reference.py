"""The one-walk constructions against the constructions they replaced.

``enumerate_states`` records the transition arcs while it discovers states,
and ``swap_outcomes`` reuses cached run structures.  The reference below is
the earlier construction, kept here only as a test oracle: one breadth-first
walk to list the states, a second walk over every state to record the
arcs, and an uncached ``swap_outcomes`` that builds each outcome from the
public ``ChainState`` constructor.

``enumerate_states(..., fold=True)`` folds mirror images during the walk.
Its reference is the post-hoc fold it replaced: partition the unfolded
space's state lists under mirroring, keep one representative per mirror
pair, and redirect every arc onto representatives.  Results solved on a
folded space are checked against ``expand_policy`` and ``expand_values``,
which re-index them onto a separately enumerated unfolded space.
"""

from collections import Counter, deque
from dataclasses import dataclass

import numpy as np
import pytest

from repeaterchain.chain import (
    ChainParams,
    ChainState,
    Link,
    age_links,
    apply_cutoff,
    apply_generation,
    canonical,
    empty_state,
    encode_state,
    generation_pairs,
    is_absorbing,
    mirror,
    mirror_action,
    swap_runs,
)
from repeaterchain.solver import Policy, ValueTable
from repeaterchain.statespace import (
    BTable,
    StateCapExceeded,
    StateSpace,
    action_space,
    enumerate_states,
    terminal_state,
)


def reference_swap_outcomes(state, action, t_cut):
    runs = swap_runs(state, action)
    sizes = tuple(len(nodes) for _, nodes in runs)
    consumed = {l for links, _ in runs for l in links}
    base = [l for l in state.links if l not in consumed]
    outcomes = []
    for mask in range(1 << len(runs)):
        links = list(base)
        for b, (run_links, _) in enumerate(runs):
            if mask >> b & 1:
                links.append(
                    Link(run_links[0].left, run_links[-1].right, max(l.age for l in run_links))
                )
        after = ChainState(n=state.n, links=tuple(links), intermediate=True)
        outcomes.append((mask, apply_cutoff(after, t_cut)))
    return sizes, outcomes


def reference_enumerate(params, state_cap):
    """First walk: (boundary, intermediates, actions, terminal index, raw absorbing)."""
    n, t_cut = params.n, params.t_cut
    s0 = empty_state(n)
    term = terminal_state(n)
    boundary = [s0]
    boundary_index = {s0: 0}
    intermediates = []
    intermediate_index = {}
    actions = []
    raw_absorbing = set()
    terminal_index = -1
    queue = deque([s0])
    while queue:
        s = queue.popleft()
        aged = age_links(s)
        pairs = sorted(generation_pairs(aged))
        for mask in range(1 << len(pairs)):
            chosen = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            r = apply_generation(aged, chosen)
            if r in intermediate_index:
                continue
            intermediate_index[r] = len(intermediates)
            intermediates.append(r)
            acts = action_space(r)
            actions.append(acts)
            for a in acts:
                _, outcomes = reference_swap_outcomes(r, a, t_cut)
                for _, target in outcomes:
                    if is_absorbing(target):
                        raw_absorbing.add(encode_state(target))
                        if terminal_index < 0:
                            terminal_index = len(boundary)
                            boundary_index[term] = terminal_index
                            boundary.append(term)
                        continue
                    if target not in boundary_index:
                        boundary_index[target] = len(boundary)
                        boundary.append(target)
                        queue.append(target)
            if len(boundary) + len(intermediates) > state_cap:
                raise StateCapExceeded(f"state cap {state_cap} exceeded at n={n}, t_cut={t_cut}")
    return boundary, boundary_index, intermediates, intermediate_index, actions, terminal_index, raw_absorbing


def reference_arcs(params):
    """Second walk over the enumerated states: phase-A arcs and phase-B tables."""
    boundary, boundary_index, intermediates, intermediate_index, actions, term, _ = (
        reference_enumerate(params, 10**9)
    )
    a_arcs = []
    for idx, s in enumerate(boundary):
        if idx == term:
            a_arcs.append(())
            continue
        aged = age_links(s)
        pairs = sorted(generation_pairs(aged))
        arcs = []
        for mask in range(1 << len(pairs)):
            chosen = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            r = apply_generation(aged, chosen)
            k = len(chosen)
            arcs.append((intermediate_index[r], k, len(pairs) - k, 1))
        a_arcs.append(tuple(arcs))
    b_arcs = []
    for r_idx, r in enumerate(intermediates):
        tables = []
        for action in actions[r_idx]:
            sizes, outcomes = reference_swap_outcomes(r, action, params.t_cut)
            rows = tuple((mask, boundary_index.get(target, term)) for mask, target in outcomes)
            tables.append((sizes, rows))
        b_arcs.append(tuple(tables))
    return tuple(a_arcs), tuple(b_arcs)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("t_cut", [1, 2, 3])
def test_one_walk_matches_two_pass_reference(n, t_cut):
    params = ChainParams(n=n, p=0.7, p_s=0.6, t_cut=t_cut)
    boundary, _, intermediates, _, actions, term, raw = reference_enumerate(params, 10**9)
    ref_a, ref_b = reference_arcs(params)

    space = enumerate_states(params)
    assert space.boundary_states == tuple(boundary)
    assert space.intermediate_states == tuple(intermediates)
    assert space.actions == tuple(actions)
    assert space.terminal_index == term
    assert space.raw_absorbing == frozenset(raw)
    assert space.a_arcs == ref_a
    got_b = tuple(
        tuple((table.run_sizes, table.outcomes) for table in tables) for tables in space.b_arcs
    )
    assert got_b == ref_b
    for i, s in enumerate(space.boundary_states):
        assert space.boundary_index[s] == i
    for i, r in enumerate(space.intermediate_states):
        assert space.intermediate_index[r] == i


@pytest.mark.parametrize("n, t_cut", [(4, 2), (5, 2)])
def test_state_cap_fires_at_the_same_cap(n, t_cut):
    params = ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut)
    space = enumerate_states(params)
    total = space.num_boundary + space.num_intermediate
    for cap in (1, 100, total // 2, total - 1, total):
        try:
            reference_enumerate(params, cap)
            ref_raises = False
        except StateCapExceeded:
            ref_raises = True
        if ref_raises:
            with pytest.raises(StateCapExceeded):
                enumerate_states(params, state_cap=cap)
        else:
            enumerate_states(params, state_cap=cap)
    with pytest.raises(StateCapExceeded):
        enumerate_states(params, state_cap=total - 1)


@dataclass(frozen=True)
class MirrorSplit:
    """Index partition of one state list under mirroring.

    ``sym`` holds the self-mirrored states; ``half_one`` and ``half_two``
    split the remainder so that neither half contains a state together with
    its mirror.  Representatives (``sym | half_one``) are the canonical
    members of each mirror pair.
    """

    sym: frozenset[int]
    half_one: frozenset[int]
    half_two: frozenset[int]


@dataclass(frozen=True)
class SymmetryPartition:
    boundary: MirrorSplit
    intermediate: MirrorSplit


def reference_split(states, index) -> MirrorSplit:
    sym, one, two = set(), set(), set()
    for i, s in enumerate(states):
        m = mirror(s)
        if m == s:
            sym.add(i)
        elif s.links <= m.links:
            one.add(i)
        else:
            two.add(i)
        if m not in index:
            raise ValueError(f"mirror of state {i} is not in the space")
    return MirrorSplit(frozenset(sym), frozenset(one), frozenset(two))


def reference_partition(space) -> SymmetryPartition:
    """Mirror partitions of an unfolded space's boundary and intermediate lists."""
    return SymmetryPartition(
        boundary=reference_split(space.boundary_states, space.boundary_index),
        intermediate=reference_split(space.intermediate_states, space.intermediate_index),
    )


def reference_fold(space) -> StateSpace:
    """Fold an unfolded space onto its canonical representatives after the walk.

    All probability mass flowing to a non-representative state is redirected
    to its mirror; phase-A arcs of one parent that then coincide merge, with
    their multiplicities summed.  Kept states keep their relative order.
    """
    split = reference_partition(space)

    def reduce_states(states, index, part):
        keep = part.sym | part.half_one
        kept = [i for i in range(len(states)) if i in keep]
        new_index = {old: new for new, old in enumerate(kept)}
        rep = np.empty(len(states), dtype=np.int64)
        for i, s in enumerate(states):
            rep[i] = new_index[i] if i in keep else new_index[index[canonical(s)]]
        weights = np.array([1 if i in part.sym else 2 for i in kept], dtype=np.int8)
        return kept, new_index, rep, weights

    b_kept, b_new, b_rep, b_weights = reduce_states(
        space.boundary_states, space.boundary_index, split.boundary
    )
    i_kept, _, i_rep, i_weights = reduce_states(
        space.intermediate_states, space.intermediate_index, split.intermediate
    )

    a_arcs = []
    for old_idx in b_kept:
        merged: dict[tuple[int, int, int], int] = {}
        for r_idx, k, m, mult in space.a_arcs[old_idx]:
            key = (int(i_rep[r_idx]), k, m)
            merged[key] = merged.get(key, 0) + mult
        a_arcs.append(tuple((r, k, m, mult) for (r, k, m), mult in merged.items()))

    b_arcs = []
    for old_idx in i_kept:
        tables = []
        for table in space.b_arcs[old_idx]:
            outcomes = tuple((mask, int(b_rep[s_idx])) for mask, s_idx in table.outcomes)
            tables.append(BTable(table.run_sizes, outcomes))
        b_arcs.append(tuple(tables))

    boundary_states = tuple(space.boundary_states[i] for i in b_kept)
    intermediate_states = tuple(space.intermediate_states[i] for i in i_kept)
    return StateSpace(
        params=space.params,
        boundary_states=boundary_states,
        intermediate_states=intermediate_states,
        boundary_index={s: i for i, s in enumerate(boundary_states)},
        intermediate_index={s: i for i, s in enumerate(intermediate_states)},
        terminal_index=b_new[space.terminal_index],
        actions=tuple(space.actions[i] for i in i_kept),
        raw_absorbing=space.raw_absorbing,
        a_arcs=tuple(a_arcs),
        b_arcs=tuple(b_arcs),
        boundary_weights=b_weights,
        intermediate_weights=i_weights,
        folded=True,
    )


def expand_policy(space, bunched_space, policy) -> Policy:
    """Extend a policy solved on mirror representatives to the unfolded ``space``.

    Representative states keep their action; folded states take the
    mirrored action of their representative.
    """
    actions = []
    for r in space.intermediate_states:
        rep = r if r in bunched_space.intermediate_index else mirror(r)
        act = policy.actions[bunched_space.intermediate_index[rep]]
        actions.append(act if rep == r else mirror_action(act, space.params.n))
    return Policy(tuple(actions))


def expand_values(space, bunched_space, table) -> ValueTable:
    """Extend values solved on mirror representatives to the unfolded ``space``."""
    values = np.empty(space.num_boundary)
    for s_idx, s in enumerate(space.boundary_states):
        rep = s if s in bunched_space.boundary_index else mirror(s)
        values[s_idx] = table.values[bunched_space.boundary_index[rep]]
    return ValueTable(values=values, iterations=table.iterations, residual=table.residual)


def arcs_by_state(space):
    """Both arc kinds with indices replaced by the states they name.

    Phase A: multiset of (state, child, k, m, mult).  Phase B: a map from
    (intermediate state, action, survival mask) to (run sizes, target state).
    """
    a = Counter(
        (space.boundary_states[s], space.intermediate_states[r], k, m, mult)
        for s, arcs in enumerate(space.a_arcs)
        for r, k, m, mult in arcs
    )
    b = {}
    for r, tables in enumerate(space.b_arcs):
        for action, table in zip(space.actions[r], tables):
            for mask, t in table.outcomes:
                key = (space.intermediate_states[r], action, mask)
                assert key not in b
                b[key] = (table.run_sizes, space.boundary_states[t])
    return a, b


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("t_cut", [1, 2, 3])
def test_folded_walk_matches_post_hoc_fold(n, t_cut):
    params = ChainParams(n=n, p=0.7, p_s=0.6, t_cut=t_cut)
    ref = reference_fold(enumerate_states(params))
    space = enumerate_states(params, fold=True)

    assert space.folded
    assert space.boundary_states[0] == ref.boundary_states[0] == empty_state(n)
    assert space.boundary_states[space.terminal_index] == terminal_state(n)
    assert space.num_boundary == ref.num_boundary
    assert space.num_intermediate == ref.num_intermediate
    assert set(space.boundary_states) == set(ref.boundary_states)
    assert set(space.intermediate_states) == set(ref.intermediate_states)
    for i, s in enumerate(space.boundary_states):
        assert space.boundary_index[s] == i
        assert space.boundary_weights[i] == ref.boundary_weights[ref.boundary_index[s]]
    for i, r in enumerate(space.intermediate_states):
        assert space.intermediate_index[r] == i
        j = ref.intermediate_index[r]
        assert space.actions[i] == ref.actions[j]
        assert space.intermediate_weights[i] == ref.intermediate_weights[j]
    assert arcs_by_state(space) == arcs_by_state(ref)


@pytest.mark.parametrize("n, t_cut", [(4, 2), (5, 2)])
def test_folded_state_cap_counts_folded_states(n, t_cut):
    params = ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut)
    space = enumerate_states(params, fold=True)
    total = space.num_boundary + space.num_intermediate
    enumerate_states(params, state_cap=total, fold=True)
    with pytest.raises(StateCapExceeded):
        enumerate_states(params, state_cap=total - 1, fold=True)
    with pytest.raises(StateCapExceeded):
        enumerate_states(params, state_cap=total)
