import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from chain_oracle import (
    action_space,
    boundary_states,
    canonical,
    decode_codes,
    encode_state,
    index,
    intermediate_states,
    mirror,
    state_from_links,
    valid_swap_nodes,
)
from repeaterchain import statespace
from repeaterchain.chain import ChainParams, StateCodes
from repeaterchain.mdp import TransitionModel
from repeaterchain.statespace import (
    StateCapExceeded,
    count_lower_bound,
    distinct_labeled_states,
    enumerate_states,
)
from test_chain import code_digits
from test_mdp import phase_a, phase_b


def space_for(n, t_cut, p=0.5, p_s=0.5, **kw):
    return enumerate_states(ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut), **kw)


class TestEnumerate:
    def test_three_node_unit_cutoff_counts(self):
        # Hand enumeration: empty, two one-link states, the two-fresh-links
        # state, and the collapsed terminal; nine post-generation states.
        space = space_for(3, 1)
        assert space.num_boundary == 5
        assert space.num_intermediate == 9
        assert boundary_states(space)[0].links == ()
        assert space.terminal_index == index(boundary_states(space))[state_from_links(3, [(1, 3, 0)])]

    def test_three_node_boundary_states_are_fresh(self):
        space = space_for(3, 1)
        expected = {
            state_from_links(3, []),
            state_from_links(3, [(1, 2, 0)]),
            state_from_links(3, [(2, 3, 0)]),
            state_from_links(3, [(1, 2, 0), (2, 3, 0)]),
            state_from_links(3, [(1, 3, 0)]),
        }
        assert set(boundary_states(space)) == expected

    def test_intermediates_have_unique_boundary_parent(self):
        space = space_for(4, 2)
        seen = set()
        for r in intermediate_states(space):
            assert r not in seen
            seen.add(r)
            assert r.intermediate

    def test_closure_under_dynamics(self):
        # Every phase-A arc targets a listed intermediate and every phase-B
        # outcome a listed boundary state (the model build would KeyError
        # otherwise); here we assert indices are dense and consistent.
        space = space_for(4, 2)
        model = TransitionModel.build(space)
        for s_idx in range(space.num_boundary):
            if s_idx == space.terminal_index:
                continue
            dist = phase_a(model, s_idx)
            assert all(0 <= r < space.num_intermediate for r in dist)
        for r_idx in range(space.num_intermediate):
            for action in space.actions[r_idx]:
                dist = phase_b(model, r_idx, action)
                assert all(0 <= s < space.num_boundary for s in dist)

    def test_terminal_has_no_outgoing(self):
        space = space_for(3, 2)
        model = TransitionModel.build(space)
        assert phase_a(model, space.terminal_index) == {}

    def test_state_cap(self):
        with pytest.raises(StateCapExceeded):
            space_for(5, 2, state_cap=100)

    def test_respecialized_shares_structure(self):
        space = space_for(3, 1)
        other = TransitionModel.build(space).respecialized(p=0.9, p_s=1.0).space
        assert other.params.p == 0.9 and other.params.p_s == 1.0
        assert other.params.n == 3 and other.params.t_cut == 1
        assert space.params.p == 0.5 and space.params.p_s == 0.5
        assert other.outcome_targets is space.outcome_targets

    def test_spaces_compare_and_hash_by_identity(self):
        space, again = space_for(4, 2), space_for(4, 2)
        assert (space == again) is False
        assert space == space
        assert len({space, again, space}) == 2

    def test_state_indices_index_the_listed_states(self):
        space = space_for(4, 2)
        assert index(boundary_states(space)) == {s: i for i, s in enumerate(boundary_states(space))}

    @pytest.mark.parametrize("fold", [False, True])
    def test_arrays_are_read_only(self, fold):
        space = space_for(4, 2, fold=fold)
        for name in ARRAY_FIELDS:
            array = getattr(space, name)
            if array is not None:
                assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            space.outcome_targets.sort()

    @pytest.mark.parametrize("fold", [False, True])
    def test_building_matrices_leaves_outcome_targets_alone(self, fold):
        # p_s = 1 drops zero entries; p_s = 0.5 keeps them all.  Both sum
        # the outcomes of a row that land on one state.
        space = space_for(5, 2, fold=fold)
        before = space.outcome_targets.copy()
        model = TransitionModel.build(space)
        for p, p_s in [(0.9, 0.5), (0.5, 1.0)]:
            other = model.respecialized(p, p_s)
            other.phase_a_matrix()
            assert other.choice_table().nnz < len(before)
        assert np.array_equal(space.outcome_targets, before)


class TestActionSpace:
    def test_empty_state_has_only_wait(self):
        space = space_for(3, 1)
        empty_i = state_from_links(3, [], intermediate=True)
        assert space.actions[index(intermediate_states(space))[empty_i]] == (frozenset(),)

    def test_two_link_state_has_two_actions(self):
        r = state_from_links(3, [(1, 2, 1), (2, 3, 0)], intermediate=True)
        assert action_space(r) == (frozenset(), frozenset({2}))

    def test_full_five_node_state_has_eight_actions(self):
        r = state_from_links(
            5, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)], intermediate=True
        )
        acts = action_space(r)
        assert len(acts) == 8
        assert acts[0] == frozenset()
        assert acts[-1] == frozenset({2, 3, 4})
        sizes = [len(a) for a in acts]
        assert sizes == sorted(sizes)


class TestPartition:
    """Mirror folding during the walk, checked against the unfolded space."""

    def test_empty_state_is_symmetric(self):
        space = space_for(3, 1, fold=True)
        assert boundary_states(space)[0].links == ()
        assert space.boundary_weights[0] == 1
        assert space.boundary_weights[space.terminal_index] == 1

    def test_one_link_states_split_into_halves(self):
        space = space_for(3, 1, fold=True)
        left = state_from_links(3, [(1, 2, 0)])
        b_index = index(boundary_states(space))
        assert left in b_index
        assert state_from_links(3, [(2, 3, 0)]) not in b_index
        assert space.boundary_weights[b_index[left]] == 2

    def test_partition_covers_disjointly_with_equal_halves(self):
        # Every unfolded state's canonical form is listed exactly once, with
        # the size of its mirror pair as its weight.
        for n, t_cut in [(3, 2), (4, 2), (5, 2)]:
            space = space_for(n, t_cut)
            folded = space_for(n, t_cut, fold=True)
            for states, listed, weights, count in [
                (boundary_states(space), index(boundary_states(folded)), folded.boundary_weights,
                 folded.num_boundary),
                (intermediate_states(space), index(intermediate_states(folded)),
                 folded.intermediate_weights, folded.num_intermediate),
            ]:
                assert len(listed) == count
                assert {canonical(s) for s in states} == set(listed)
                for s in states:
                    weight = 1 if mirror(s) == s else 2
                    assert weights[listed[canonical(s)]] == weight
                assert int(weights.sum()) == len(states)

    def test_mirror_of_listed_state_is_listed(self):
        for n, t_cut in [(4, 2), (5, 2)]:
            space = space_for(n, t_cut)
            b_index, i_index = index(boundary_states(space)), index(intermediate_states(space))
            b_map = [b_index[mirror(s)] for s in boundary_states(space)]
            i_map = [i_index[mirror(r)] for r in intermediate_states(space)]
            assert sorted(b_map) == list(range(space.num_boundary))
            assert sorted(i_map) == list(range(space.num_intermediate))
            for i, s in enumerate(boundary_states(space)):
                assert boundary_states(space)[b_map[i]] == mirror(s)

    def test_no_generation_path_from_nonsym_to_sym(self):
        # An unmatched link keeps its age mismatch through ageing, so
        # generation alone can never restore mirror symmetry.
        for n, t_cut in [(3, 2), (4, 2), (5, 2)]:
            space = space_for(n, t_cut, fold=True)
            model = TransitionModel.build(space)
            nonsym = [s for s in range(space.num_boundary) if space.boundary_weights[s] == 2]
            assert nonsym
            for s_idx in nonsym:
                for r_idx in phase_a(model, s_idx):
                    assert space.intermediate_weights[r_idx] == 2


class TestCounts:
    def test_lower_bound_values(self):
        assert count_lower_bound(3, 1) == 3
        assert count_lower_bound(4, 2) == 25

    def test_lower_bound_formula_terms(self):
        # 1 + (n^2-n-4)/2*t + (n^2-n-6)(n-2)/6*t^2 + t^(n-1)
        assert count_lower_bound(4, 2) == 1 + 8 + 8 + 8
        assert count_lower_bound(5, 3) == 1 + 8 * 3 + 7 * 9 + 3**4

    def test_distinct_labelings_three_node(self):
        # All eleven age vectors of the three-node unit-cutoff chain.
        assert distinct_labeled_states(space_for(3, 1)) == 11

    def test_labelings_need_an_unfolded_space(self):
        with pytest.raises(ValueError):
            distinct_labeled_states(space_for(3, 1, fold=True))

    @pytest.mark.parametrize(
        "n, t_cut", [(3, 1), (3, 3), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2)]
    )
    def test_labelings_count_the_age_vectors(self, n, t_cut):
        # Oracle: the union of decoded age vectors, the terminal left out.
        space = space_for(n, t_cut)
        absorbing = decode_codes(n, t_cut, space.absorbing_codes)
        vectors = {
            encode_state(s)
            for i, s in enumerate(boundary_states(space))
            if i != space.terminal_index
        }
        vectors.update(map(encode_state, [*intermediate_states(space), *absorbing]))
        assert distinct_labeled_states(space) == len(vectors)

    def test_enumerated_labelings_dominate_bound(self):
        for n, t_cut in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 2), (6, 1)]:
            space = space_for(n, t_cut)
            assert distinct_labeled_states(space) >= count_lower_bound(n, t_cut)

    def test_decidable_states(self):
        # Four two-link intermediates (ages 00, 10, 01, 11) can swap at node 2.
        space = space_for(3, 1)
        decidable = [
            r for r in intermediate_states(space) if valid_swap_nodes(r)
        ]
        assert space.num_decidable == len(decidable) == 4


ARRAY_FIELDS = (
    "boundary_codes", "intermediate_codes", "absorbing_codes", "child_offsets", "gen_successes", "gen_failures",
    "gen_mult", "row_offsets", "row_shape", "outcome_targets",
    "boundary_weights", "intermediate_weights",
)


class TestLevelWalk:
    """The chunked, coded walk: chunk-size independence and the state codes."""

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("n, t_cut", [(4, 2), (4, 3), (5, 2), (5, 3)])
    def test_chunk_size_changes_nothing(self, monkeypatch, n, t_cut, fold):
        default = space_for(n, t_cut, fold=fold)
        for chunk in (1, 7):
            monkeypatch.setattr(statespace, "_CHUNK", chunk)
            space = space_for(n, t_cut, fold=fold)
            for name in ARRAY_FIELDS:
                got, want = getattr(space, name), getattr(default, name)
                if want is None:
                    assert got is None
                else:
                    assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert boundary_states(space) == boundary_states(default)
            assert intermediate_states(space) == intermediate_states(default)
            assert space.actions == default.actions
            assert space.run_shapes == default.run_shapes
            assert space.terminal_index == default.terminal_index

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("t_cut", [1, 2, 3])
    def test_codes_decode_mirror_and_pick_representatives(self, n, t_cut):
        space = space_for(n, t_cut)
        coder = StateCodes(n, t_cut)
        for states, codes in [
            (boundary_states(space), space.boundary_codes),
            (intermediate_states(space), space.intermediate_codes),
        ]:
            intermediate = states[0].intermediate
            digits = code_digits(states, t_cut)
            assert np.array_equal(coder.codes(digits), codes)
            assert tuple(coder.state(code, intermediate) for code in codes.tolist()) == states
            mirrored = [mirror(s) for s in states]
            assert np.array_equal(coder.mirror(coder.digits(codes)), code_digits(mirrored, t_cut))
            rep, symmetric = coder.canonical(coder.digits(codes))
            chosen = [s.links <= m.links for s, m in zip(states, mirrored)]
            assert np.array_equal(rep, code_digits([s if c else m for s, c, m in zip(states, chosen, mirrored)], t_cut))
            assert symmetric.tolist() == [s == m for s, m in zip(states, mirrored)]

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("n, t_cut", [(n, t) for n in range(3, 7) for t in range(1, 5) if (n, t) != (6, 4)])
    def test_walk_is_t_cut_plus_one_levels_deep(self, n, t_cut, fold):
        # Boundary to boundary: a parent's children (P_A), each child's every
        # choice row, each row's outcomes (C).  The farthest state from the
        # empty one is t_cut slots away, so the walk has t_cut + 1 levels.
        space = space_for(n, t_cut, fold=fold)
        parent = np.repeat(np.arange(space.num_boundary), np.diff(space.child_offsets))
        owner = np.repeat(parent, np.diff(space.row_offsets))
        outcomes = np.array([1 << len(shape) for shape in space.run_shapes])[space.row_shape]
        source = np.repeat(owner, outcomes)
        size = space.num_boundary
        arcs = csr_matrix((np.ones(len(source)), (source, space.outcome_targets)), shape=(size, size))
        distance = shortest_path(arcs, unweighted=True, indices=0)
        assert np.isfinite(distance).all() and distance.max() == t_cut

    def test_codes_that_overflow_int64_are_refused_before_walking(self, monkeypatch):
        StateCodes(12, 7)
        with pytest.raises(ValueError):
            StateCodes(13, 7)

        def no_walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(StateCodes, "generation", no_walk)
        with pytest.raises(ValueError):
            space_for(13, 7)

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("n, t_cut", [(n, t) for n in range(3, 8) for t in (1, 2)])
    def test_terminal_code_keys_the_collapsed_absorbing_state(self, monkeypatch, n, t_cut, fold):
        # The walk keys every absorbing outcome by the terminal code, and reads
        # the terminal index and the absorbing codes off its lookup memo.
        # Its key dict holds the listed keys alone, numbered as listed; the
        # memo maps every outcome code to its key's index.
        made = []

        class Recorded(statespace._Boundary):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(statespace, "_Boundary", Recorded)
        space = space_for(n, t_cut, fold=fold)
        coder = StateCodes(n, t_cut)
        (boundary,) = made
        assert list(boundary.index_of) == space.boundary_codes.tolist()
        assert list(boundary.index_of.values()) == list(range(space.num_boundary))
        seen = np.fromiter(boundary.seen, dtype=np.int64)
        keys = np.where(coder.is_absorbing(seen), coder.terminal_code, seen)
        if fold:
            keys = coder.codes(coder.canonical(coder.digits(keys))[0])
        assert [boundary.index_of[k] for k in keys.tolist()] == list(boundary.seen.values())
        assert set(space.outcome_targets.tolist()) <= set(boundary.seen.values())
        assert coder.terminal_code in space.absorbing_codes.tolist()
        assert np.all(coder.is_absorbing(space.absorbing_codes))
        assert space.boundary_codes[space.terminal_index] == coder.terminal_code
        assert boundary_states(space)[space.terminal_index] == state_from_links(n, [(1, n, 0)])
        assert np.count_nonzero(coder.is_absorbing(space.boundary_codes)) == 1
