"""The one-walk construction against the two-pass construction it replaced.

``enumerate_states`` records the transition arcs while it discovers states,
and ``swap_outcomes`` reuses cached run structures.  The reference below is
the earlier construction, kept here only as a test oracle: one breadth-first
walk to list the states, a second walk over every state to record the
arcs, and an uncached ``swap_outcomes`` that builds each outcome from the
public ``ChainState`` constructor.
"""

from collections import deque

import pytest

from repeaterchain.chain import (
    ChainParams,
    ChainState,
    Link,
    age_links,
    apply_cutoff,
    apply_generation,
    empty_state,
    encode_state,
    generation_pairs,
    is_absorbing,
    swap_runs,
)
from repeaterchain.statespace import (
    StateCapExceeded,
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
