"""The one-walk constructions against the constructions they replaced.

``enumerate_states`` records the transitions while it discovers states, as
flat integer arrays, and resolves swap outcomes by code arithmetic
(``StateCodes.swap_outcomes``).  The reference below is the earlier
construction, kept here only as a test oracle: one breadth-first walk to
list the states, a second walk over every state to record the arcs, and an
uncached ``reference_swap_outcomes`` that builds each outcome from the public
``ChainState`` constructor.  The walk's arrays are compared through
:func:`arc_view`, which rebuilds the per-state arc tuples from them.

``TransitionModel`` builds P_A and the choice table from those arrays with
numpy; :func:`reference_phase_a_matrix` and :func:`reference_choice_table`
are the Python loops over arc tuples that it replaced, and the two must
agree byte for byte.

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
import scipy.sparse as sp

from chain_oracle import (
    action_space,
    age_links,
    apply_cutoff,
    apply_generation,
    boundary_states,
    canonical,
    decode_codes,
    empty_state,
    encode_state,
    generation_pairs,
    index,
    intermediate_states,
    is_absorbing,
    mirror,
    state_from_links,
    swap_runs,
)
from repeaterchain.chain import ChainParams, ChainState, Link, mirror_action
from repeaterchain.mdp import TransitionModel
from repeaterchain.solver import Policy, ValueTable
from repeaterchain.statespace import StateCapExceeded, enumerate_states


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
    term = state_from_links(n, [(1, n, 0)])
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


@dataclass(frozen=True)
class ArcView:
    """States, actions and per-state arc tuples of a space.

    ``a_arcs[s]`` holds the phase-A arcs of boundary state ``s`` as
    ``(intermediate index, successes, failures, multiplicity)`` and
    ``b_arcs[r][a]`` the swap outcomes of intermediate state ``r`` under
    action ``actions[r][a]`` as ``(run sizes, ((mask, target index), ...))``.
    """

    boundary_states: tuple
    intermediate_states: tuple
    actions: tuple
    a_arcs: tuple
    b_arcs: tuple


def arc_view(space) -> ArcView:
    """The arc tuples that a space's flat transition arrays describe."""
    succ = space.gen_successes.tolist()
    fail = space.gen_failures.tolist()
    mult = [1] * space.num_intermediate if space.gen_mult is None else space.gen_mult.tolist()
    children = space.child_offsets.tolist()
    assert len(children) == space.num_boundary + 1
    a_arcs = tuple(
        tuple((r, succ[r], fail[r], mult[r]) for r in range(children[s], children[s + 1]))
        for s in range(space.num_boundary)
    )
    rows = space.row_offsets.tolist()
    shapes = space.row_shape.tolist()
    outs = np.cumsum([0] + [1 << len(space.run_shapes[k]) for k in shapes]).tolist()
    targets = space.outcome_targets.tolist()
    assert len(rows) == space.num_intermediate + 1 and rows[-1] == len(shapes)
    assert len(outs) == len(shapes) + 1 and outs[-1] == len(targets)
    b_arcs = []
    for r in range(space.num_intermediate):
        assert rows[r + 1] - rows[r] == len(space.actions[r])
        tables = []
        for j in range(rows[r], rows[r + 1]):
            sizes = space.run_shapes[shapes[j]]
            assert outs[j + 1] - outs[j] == 1 << len(sizes)
            tables.append((sizes, tuple(enumerate(targets[outs[j] : outs[j + 1]]))))
        b_arcs.append(tuple(tables))
    return ArcView(
        boundary_states(space), intermediate_states(space), space.actions, a_arcs, tuple(b_arcs)
    )


def reference_phase_a_matrix(view, num_boundary, num_intermediate, p):
    rows, cols, data = [], [], []
    for s_idx, arcs in enumerate(view.a_arcs):
        for r_idx, k, m, mult in arcs:
            prob = mult * p**k * (1.0 - p) ** m
            if prob > 0.0:
                rows.append(s_idx)
                cols.append(r_idx)
                data.append(prob)
    return sp.coo_matrix((data, (rows, cols)), shape=(num_boundary, num_intermediate)).tocsr()


def reference_choice_table(view, num_boundary, ps):
    offsets = np.zeros(len(view.b_arcs) + 1, dtype=np.int64)
    rows, cols, data = [], [], []
    row = 0
    for r_idx, tables in enumerate(view.b_arcs):
        offsets[r_idx] = row
        for run_sizes, outcomes in tables:
            survive = [ps**k for k in run_sizes]
            for mask, s_idx in outcomes:
                prob = 1.0
                for b, q in enumerate(survive):
                    prob *= q if mask >> b & 1 else 1.0 - q
                if prob > 0.0:
                    rows.append(row)
                    cols.append(s_idx)
                    data.append(prob)
            row += 1
    offsets[-1] = row
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(row, num_boundary)).tocsr()
    return matrix, offsets


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("t_cut", [1, 2, 3])
def test_one_walk_matches_two_pass_reference(n, t_cut):
    params = ChainParams(n=n, p=0.7, p_s=0.6, t_cut=t_cut)
    boundary, _, intermediates, _, actions, term, raw = reference_enumerate(params, 10**9)
    ref_a, ref_b = reference_arcs(params)

    space = enumerate_states(params)
    assert boundary_states(space) == tuple(boundary)
    assert intermediate_states(space) == tuple(intermediates)
    assert space.actions == tuple(actions)
    assert space.terminal_index == term
    assert sorted(map(encode_state, decode_codes(n, t_cut, space.absorbing_codes))) == sorted(raw)
    view = arc_view(space)
    assert view.a_arcs == ref_a
    assert view.b_arcs == ref_b
    b_index, i_index = index(boundary_states(space)), index(intermediate_states(space))
    for i, s in enumerate(boundary_states(space)):
        assert b_index[s] == i
    for i, r in enumerate(intermediate_states(space)):
        assert i_index[r] == i


# (p, p_s) points at which structures are materialized; p = 1 and p_s = 1
# make some arc probabilities zero, which both builds drop.
PROBABILITY_POINTS = [(0.3, 0.8), (1.0, 0.5), (0.6, 1.0), (1.0, 1.0)]


def has_merged_outcomes(view) -> bool:
    """True if some choice row sends two survival masks to the same target.

    A run whose merged link reaches the cutoff lands where its failure
    does, so the choice table sums two entries in one cell.
    """
    return any(
        len({t for _, t in outcomes}) < len(outcomes)
        for tables in view.b_arcs
        for _, outcomes in tables
    )


# (7, 1) adds actions with three runs, whose survival product rounds
# differently when its factors are taken in another order.
@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("n, t_cut", [(n, t) for n in (3, 4, 5) for t in (1, 2, 3)] + [(7, 1)])
def test_matrices_match_python_loop_reference(n, t_cut, fold):
    space = enumerate_states(ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut), fold=fold)
    view = arc_view(space)
    if n > 3:
        assert has_merged_outcomes(view)
    if n == 7:
        assert (1, 1, 1) in space.run_shapes
    model = TransitionModel.build(space)
    for p, p_s in PROBABILITY_POINTS:
        got = model.respecialized(p, p_s)
        want_a = reference_phase_a_matrix(view, space.num_boundary, space.num_intermediate, p)
        want_b, want_offsets = reference_choice_table(view, space.num_boundary, p_s)
        assert got.space.row_offsets.tobytes() == want_offsets.tobytes()
        for matrix, want in ((got.phase_a_matrix(), want_a), (got.choice_table(), want_b)):
            assert matrix.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert getattr(matrix, name).dtype == getattr(want, name).dtype
                assert getattr(matrix, name).tobytes() == getattr(want, name).tobytes()


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
        boundary=reference_split(boundary_states(space), index(boundary_states(space))),
        intermediate=reference_split(intermediate_states(space), index(intermediate_states(space))),
    )


@dataclass(frozen=True)
class FoldReference(ArcView):
    """A post-hoc fold: representatives, their weights and their arc tuples."""

    boundary_weights: np.ndarray
    intermediate_weights: np.ndarray

    @property
    def num_boundary(self) -> int:
        return len(self.boundary_states)

    @property
    def num_intermediate(self) -> int:
        return len(self.intermediate_states)

    @property
    def boundary_index(self) -> dict:
        return {s: i for i, s in enumerate(self.boundary_states)}

    @property
    def intermediate_index(self) -> dict:
        return {r: i for i, r in enumerate(self.intermediate_states)}


def reference_fold(space) -> FoldReference:
    """Fold an unfolded space onto its canonical representatives after the walk.

    All probability mass flowing to a non-representative state is redirected
    to its mirror; phase-A arcs of one parent that then coincide merge, with
    their multiplicities summed.  Kept states keep their relative order.
    """
    split = reference_partition(space)
    view = arc_view(space)

    def reduce_states(states, index, part):
        keep = part.sym | part.half_one
        kept = [i for i in range(len(states)) if i in keep]
        new_index = {old: new for new, old in enumerate(kept)}
        rep = np.empty(len(states), dtype=np.int64)
        for i, s in enumerate(states):
            rep[i] = new_index[i] if i in keep else new_index[index[canonical(s)]]
        weights = np.array([1 if i in part.sym else 2 for i in kept], dtype=np.int8)
        return kept, rep, weights

    b_kept, b_rep, b_weights = reduce_states(
        boundary_states(space), index(boundary_states(space)), split.boundary
    )
    i_kept, i_rep, i_weights = reduce_states(
        intermediate_states(space), index(intermediate_states(space)), split.intermediate
    )

    a_arcs = []
    for old_idx in b_kept:
        merged: dict[tuple[int, int, int], int] = {}
        for r_idx, k, m, mult in view.a_arcs[old_idx]:
            key = (int(i_rep[r_idx]), k, m)
            merged[key] = merged.get(key, 0) + mult
        a_arcs.append(tuple((r, k, m, mult) for (r, k, m), mult in merged.items()))

    b_arcs = []
    for old_idx in i_kept:
        tables = []
        for run_sizes, outcomes in view.b_arcs[old_idx]:
            tables.append((run_sizes, tuple((mask, int(b_rep[s_idx])) for mask, s_idx in outcomes)))
        b_arcs.append(tuple(tables))

    return FoldReference(
        boundary_states=tuple(boundary_states(space)[i] for i in b_kept),
        intermediate_states=tuple(intermediate_states(space)[i] for i in i_kept),
        actions=tuple(space.actions[i] for i in i_kept),
        a_arcs=tuple(a_arcs),
        b_arcs=tuple(b_arcs),
        boundary_weights=b_weights,
        intermediate_weights=i_weights,
    )


def expand_policy(space, bunched_space, policy) -> Policy:
    """Extend a policy solved on mirror representatives to the unfolded ``space``.

    Representative states keep their action; folded states take the
    mirrored action of their representative.
    """
    bunched_actions = policy.actions(bunched_space)
    bunched_index = index(intermediate_states(bunched_space))
    actions = []
    for r in intermediate_states(space):
        rep = r if r in bunched_index else mirror(r)
        act = bunched_actions[bunched_index[rep]]
        actions.append(act if rep == r else mirror_action(act, space.params.n))
    return Policy.from_actions(space, actions)


def expand_values(space, bunched_space, table) -> ValueTable:
    """Extend values solved on mirror representatives to the unfolded ``space``."""
    bunched_index = index(boundary_states(bunched_space))
    values = np.empty(space.num_boundary)
    for s_idx, s in enumerate(boundary_states(space)):
        rep = s if s in bunched_index else mirror(s)
        values[s_idx] = table.values[bunched_index[rep]]
    return ValueTable(values=values, iterations=table.iterations, residual=table.residual)


def arcs_by_state(view):
    """Both arc kinds of an :class:`ArcView` with indices replaced by the states they name.

    Phase A: multiset of (state, child, k, m, mult).  Phase B: a map from
    (intermediate state, action, survival mask) to (run sizes, target state).
    """
    a = Counter(
        (view.boundary_states[s], view.intermediate_states[r], k, m, mult)
        for s, arcs in enumerate(view.a_arcs)
        for r, k, m, mult in arcs
    )
    b = {}
    for r, tables in enumerate(view.b_arcs):
        for action, (run_sizes, outcomes) in zip(view.actions[r], tables):
            for mask, t in outcomes:
                key = (view.intermediate_states[r], action, mask)
                assert key not in b
                b[key] = (run_sizes, view.boundary_states[t])
    return a, b


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("t_cut", [1, 2, 3])
def test_folded_walk_matches_post_hoc_fold(n, t_cut):
    params = ChainParams(n=n, p=0.7, p_s=0.6, t_cut=t_cut)
    ref = reference_fold(enumerate_states(params))
    space = enumerate_states(params, fold=True)

    assert space.folded
    assert boundary_states(space)[0] == ref.boundary_states[0] == empty_state(n)
    assert boundary_states(space)[space.terminal_index] == state_from_links(n, [(1, n, 0)])
    assert space.num_boundary == ref.num_boundary
    assert space.num_intermediate == ref.num_intermediate
    assert set(boundary_states(space)) == set(ref.boundary_states)
    assert set(intermediate_states(space)) == set(ref.intermediate_states)
    b_index, i_index = index(boundary_states(space)), index(intermediate_states(space))
    for i, s in enumerate(boundary_states(space)):
        assert b_index[s] == i
        assert space.boundary_weights[i] == ref.boundary_weights[ref.boundary_index[s]]
    for i, r in enumerate(intermediate_states(space)):
        assert i_index[r] == i
        j = ref.intermediate_index[r]
        assert space.actions[i] == ref.actions[j]
        assert space.intermediate_weights[i] == ref.intermediate_weights[j]
    assert arcs_by_state(arc_view(space)) == arcs_by_state(ref)


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
