import numpy as np
import pytest

from chain_oracle import boundary_states, index, intermediate_states, mirror, state_from_links, valid_swap_nodes
from repeaterchain.chain import ChainParams, mirror_action
from repeaterchain.mdp import TransitionModel
from repeaterchain.solver import Policy
from repeaterchain.statespace import enumerate_states
from test_walk_reference import PROBABILITY_POINTS, reference_partition


def build(n, t_cut, p=0.5, p_s=0.5):
    space = enumerate_states(ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut))
    return space, TransitionModel.build(space)


def boundary_idx(space, links):
    return index(boundary_states(space))[state_from_links(space.params.n, links)]


def inter_idx(space, links):
    return index(intermediate_states(space))[
        state_from_links(space.params.n, links, intermediate=True)
    ]


def csr_row(matrix, row):
    """Row ``row`` of a CSR matrix as {column: value}."""
    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
    return dict(zip(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist()))


def phase_a(model, s_idx):
    """P_A(. | s): distribution over intermediate-state indices."""
    return csr_row(model.phase_a_matrix(), s_idx)


def phase_b(model, r_idx, action):
    """P_B(. | r, a): distribution over slot-boundary state indices."""
    local = model.space.actions[r_idx].index(frozenset(action))
    return csr_row(model.choice_table(), int(model.space.row_offsets[r_idx]) + local)


def composed_row(space, model, actions, s_idx):
    """Row ``s_idx`` of the one-slot matrix the solver evaluates for a policy."""
    rows = Policy.from_actions(space, actions).rows
    return csr_row(model.phase_a_matrix() @ model.choice_table()[rows], s_idx)


class TestPhaseA:
    def test_from_empty_three_node(self):
        p = 0.3
        space, model = build(3, 1, p=p)
        dist = phase_a(model, 0)
        by_state = {intermediate_states(space)[r]: q for r, q in dist.items()}
        mk = lambda links: state_from_links(3, links, intermediate=True)
        assert by_state[mk([])] == pytest.approx((1 - p) ** 2)
        assert by_state[mk([(1, 2, 0)])] == pytest.approx(p * (1 - p))
        assert by_state[mk([(2, 3, 0)])] == pytest.approx(p * (1 - p))
        assert by_state[mk([(1, 2, 0), (2, 3, 0)])] == pytest.approx(p * p)

    def test_from_one_link_state(self):
        p = 0.4
        space, model = build(3, 1, p=p)
        dist = phase_a(model, boundary_idx(space, [(1, 2, 0)]))
        by_state = {intermediate_states(space)[r]: q for r, q in dist.items()}
        aged_only = state_from_links(3, [(1, 2, 1)], intermediate=True)
        aged_plus = state_from_links(3, [(1, 2, 1), (2, 3, 0)], intermediate=True)
        assert by_state[aged_only] == pytest.approx(1 - p)
        assert by_state[aged_plus] == pytest.approx(p)

    def test_deterministic_generation_fills_every_pair(self):
        space, model = build(4, 2, p=1.0)
        dist = phase_a(model, 0)
        assert len(dist) == 1
        ((r_idx, prob),) = dist.items()
        assert prob == pytest.approx(1.0)
        r = intermediate_states(space)[r_idx]
        assert {(l.left, l.right) for l in r.links} == {(1, 2), (2, 3), (3, 4)}


class TestPhaseB:
    def test_single_swap_branches(self):
        ps = 0.7
        space, model = build(3, 1, p_s=ps)
        r_idx = inter_idx(space, [(1, 2, 0), (2, 3, 0)])
        dist = phase_b(model, r_idx, {2})
        assert dist[space.terminal_index] == pytest.approx(ps)
        assert dist[0] == pytest.approx(1 - ps)

    def test_wait_is_deterministic_cutoff(self):
        space, model = build(3, 1)
        r_idx = inter_idx(space, [(1, 2, 1), (2, 3, 0)])
        dist = phase_b(model, r_idx, frozenset())
        assert dist == {boundary_idx(space, [(2, 3, 0)]): pytest.approx(1.0)}

    def test_full_chain_is_one_run(self):
        ps = 0.6
        space, model = build(5, 1, p_s=ps)
        r_idx = inter_idx(space, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)])
        dist = phase_b(model, r_idx, {2, 3, 4})
        assert dist[space.terminal_index] == pytest.approx(ps**3)
        assert dist[0] == pytest.approx(1 - ps**3)

    def test_invalid_action_rejected(self):
        space, _ = build(3, 1)
        actions = [frozenset() for _ in range(space.num_intermediate)]
        actions[inter_idx(space, [(1, 2, 0)])] = frozenset({2})
        with pytest.raises(ValueError, match="invalid in intermediate state"):
            Policy.from_actions(space, actions)


class TestComposed:
    def test_three_node_system_coefficients(self):
        # Coefficient-by-coefficient match with the hand-derived one-slot
        # system of the three-node unit-cutoff chain, for both the
        # swap-everywhere and the wait-everywhere policy branch.
        p, ps = 0.35, 0.6
        space, model = build(3, 1, p=p, p_s=ps)
        s0 = 0
        s1 = boundary_idx(space, [(1, 2, 0)])
        s2 = boundary_idx(space, [(2, 3, 0)])
        s3 = boundary_idx(space, [(1, 2, 0), (2, 3, 0)])
        term = space.terminal_index

        swap_actions = [frozenset(valid_swap_nodes(r)) for r in intermediate_states(space)]
        wait_actions = [frozenset() for _ in intermediate_states(space)]

        dist = composed_row(space, model, swap_actions, s0)
        assert dist[s0] == pytest.approx((1 - p) ** 2 + p * p * (1 - ps))
        assert dist[s1] == pytest.approx(p * (1 - p))
        assert dist[s2] == pytest.approx(p * (1 - p))
        assert dist[term] == pytest.approx(p * p * ps)

        dist = composed_row(space, model, wait_actions, s0)
        assert dist[s0] == pytest.approx((1 - p) ** 2)
        assert dist[s1] == pytest.approx(p * (1 - p))
        assert dist[s2] == pytest.approx(p * (1 - p))
        assert dist[s3] == pytest.approx(p * p)

        dist = composed_row(space, model, swap_actions, s1)
        assert dist[s0] == pytest.approx((1 - p) + p * (1 - ps))
        assert dist[term] == pytest.approx(p * ps)

        dist = composed_row(space, model, wait_actions, s1)
        assert dist[s0] == pytest.approx(1 - p)
        assert dist[s2] == pytest.approx(p)

        dist = composed_row(space, model, swap_actions, s3)
        assert dist[s0] == pytest.approx(1 - ps)
        assert dist[term] == pytest.approx(ps)

        dist = composed_row(space, model, wait_actions, s3)
        assert dist == {s0: pytest.approx(1.0)}

    def test_deterministic_chain_reaches_terminal_in_one_slot(self):
        space, model = build(3, 1, p=1.0, p_s=1.0)
        swap_actions = [frozenset(valid_swap_nodes(r)) for r in intermediate_states(space)]
        dist = composed_row(space, model, swap_actions, 0)
        assert dist == {space.terminal_index: pytest.approx(1.0)}


class TestConservation:
    @pytest.mark.parametrize(
        "n,t_cut,p,ps",
        [(3, 1, 0.5, 0.5), (3, 3, 0.17, 0.83), (4, 2, 0.9, 0.5), (5, 2, 0.3, 1.0)],
    )
    def test_rows_sum_to_one(self, n, t_cut, p, ps):
        space, model = build(n, t_cut, p=p, p_s=ps)
        a_sums = np.asarray(model.phase_a_matrix().sum(axis=1)).ravel()
        for s_idx in range(space.num_boundary):
            if s_idx == space.terminal_index:
                assert a_sums[s_idx] == 0.0
            else:
                assert abs(a_sums[s_idx] - 1.0) <= 1e-12
        choice_sums = np.asarray(model.choice_table().sum(axis=1)).ravel()
        assert np.max(np.abs(choice_sums - 1.0)) <= 1e-12


class TestMirrorEquivariance:
    @pytest.mark.parametrize("n,t_cut", [(3, 2), (4, 2)])
    def test_phase_a(self, n, t_cut):
        space, model = build(n, t_cut, p=0.37)
        b_index, i_index = index(boundary_states(space)), index(intermediate_states(space))
        for s_idx, s in enumerate(boundary_states(space)):
            if s_idx == space.terminal_index:
                continue
            dist = phase_a(model, s_idx)
            mirrored_s = b_index[mirror(s)]
            mirrored = phase_a(model, mirrored_s)
            for r_idx, prob in dist.items():
                m_idx = i_index[mirror(intermediate_states(space)[r_idx])]
                assert mirrored[m_idx] == pytest.approx(prob, abs=1e-14)

    @pytest.mark.parametrize("n,t_cut", [(3, 2), (4, 2)])
    def test_phase_b(self, n, t_cut):
        space, model = build(n, t_cut, p_s=0.41)
        b_index, i_index = index(boundary_states(space)), index(intermediate_states(space))
        for r_idx, r in enumerate(intermediate_states(space)):
            m_r = i_index[mirror(r)]
            for action in space.actions[r_idx]:
                dist = phase_b(model, r_idx, action)
                mirrored = phase_b(model, m_r, mirror_action(action, n))
                for s_idx, prob in dist.items():
                    m_s = b_index[mirror(boundary_states(space)[s_idx])]
                    assert mirrored[m_s] == pytest.approx(prob, abs=1e-14)


class TestBunch:
    def test_three_node_unit_cutoff_sizes(self):
        # The two one-link states collapse onto one representative: three
        # non-terminal boundary states remain, against four unbunched.
        space, model = build(3, 1)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        assert space.num_boundary - 1 == 4
        assert bmodel.space.num_boundary - 1 == 3
        assert boundary_states(bmodel.space)[0].links == ()
        assert boundary_states(bmodel.space)[bmodel.space.terminal_index] == state_from_links(3, [(1, 3, 0)])

    def test_rows_still_sum_to_one(self):
        space, model = build(4, 2, p=0.6, p_s=0.7)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        a_sums = np.asarray(bmodel.phase_a_matrix().sum(axis=1)).ravel()
        for s_idx in range(bmodel.space.num_boundary):
            if s_idx != bmodel.space.terminal_index:
                assert abs(a_sums[s_idx] - 1.0) <= 1e-12
        choice_sums = np.asarray(bmodel.choice_table().sum(axis=1)).ravel()
        assert np.max(np.abs(choice_sums - 1.0)) <= 1e-12

    def test_factor_two_from_symmetric_states(self):
        # From a mirror-symmetric state, folding a mirror pair doubles the
        # phase-A probability of its representative.
        space, model = build(4, 2, p=0.45, p_s=1.0)
        split = reference_partition(space)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        bspace = bmodel.space
        b_index, i_index = index(boundary_states(bspace)), index(intermediate_states(bspace))
        for s_idx in split.boundary.sym:
            if s_idx == space.terminal_index:
                continue
            full = phase_a(model, s_idx)
            folded = phase_a(bmodel, b_index[boundary_states(space)[s_idx]])
            for r_idx, prob in full.items():
                r = intermediate_states(space)[r_idx]
                if r_idx in split.intermediate.sym:
                    assert folded[i_index[r]] == pytest.approx(prob)
                elif r_idx in split.intermediate.half_one:
                    assert folded[i_index[r]] == pytest.approx(2 * prob)



class TestRespecialized:
    """A structure built at one (p, p_s) materializes exactly as one built at another."""

    POINTS = PROBABILITY_POINTS

    @staticmethod
    def assert_same_csr(a, b):
        assert a.shape == b.shape
        for field in ("indptr", "indices", "data"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def assert_same_matrices(self, model, direct):
        self.assert_same_csr(model.phase_a_matrix(), direct.phase_a_matrix())
        assert model.space.row_offsets.tobytes() == direct.space.row_offsets.tobytes()
        self.assert_same_csr(model.choice_table(), direct.choice_table())

    @pytest.mark.parametrize("n,t_cut", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)])
    def test_matches_direct_build(self, n, t_cut):
        space, model = build(n, t_cut, p=0.5, p_s=0.5)
        folded = TransitionModel.build(enumerate_states(space.params, fold=True))
        for p, p_s in self.POINTS:
            direct_space, direct = build(n, t_cut, p=p, p_s=p_s)
            self.assert_same_matrices(model.respecialized(p, p_s), direct)
            self.assert_same_matrices(
                folded.respecialized(p, p_s),
                TransitionModel.build(enumerate_states(direct_space.params, fold=True)),
            )

    @pytest.mark.parametrize("fold", [False, True])
    def test_chained_copies_match_direct_builds(self, fold):
        # Each copy is made from the one before, so it keeps whichever
        # matrix the previous point's probabilities share with it.
        model = TransitionModel.build(enumerate_states(ChainParams(n=5, p=0.5, p_s=0.5, t_cut=2), fold=fold))
        for p, p_s in [*self.POINTS, (0.3, 1.0), (0.3, 0.8), (1.0, 0.8)]:
            model = model.respecialized(p, p_s)
            params = ChainParams(n=5, p=p, p_s=p_s, t_cut=2)
            self.assert_same_matrices(model, TransitionModel.build(enumerate_states(params, fold=fold)))

    def test_keeps_exactly_the_matrices_whose_probability_is_unchanged(self):
        _, model = build(4, 2, p=0.5, p_s=0.8)
        mat_a, choices = model.phase_a_matrix(), model.choice_table()
        model.evaluated[b"key"] = np.zeros(1)
        for p, p_s in [(0.5, 0.8), (0.5, 0.6), (0.7, 0.8), (0.7, 0.6)]:
            copy = model.respecialized(p, p_s)
            assert (copy.phase_a_matrix() is mat_a) == (p == 0.5)
            assert (copy.choice_table() is choices) == (p_s == 0.8)
            assert copy.evaluated == {} and copy.evaluated is not model.evaluated
