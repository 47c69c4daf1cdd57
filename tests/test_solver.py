import numpy as np
import pytest

from repeaterchain.chain import ChainParams, mirror, state_from_links, valid_swap_nodes
from repeaterchain.mdp import TransitionModel
from repeaterchain.solver import (
    ConvergenceError,
    Policy,
    SolverConfig,
    _greedy_choices,
    evaluate_policy,
    modified_full_state_policy,
    policy_iteration,
    policy_stats,
    relative_advantage,
    swap_asap_policy,
    value_iteration,
)
from repeaterchain.statespace import enumerate_states
from test_walk_reference import expand_policy, expand_values


def build(n, t_cut, p, p_s):
    space = enumerate_states(ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut))
    return space, TransitionModel.build(space)


def three_node_unit_cutoff_t0(p, ps):
    """Closed-form swap-asap delivery time of the 3-node chain with cutoff 1."""
    return (1 + 2 * p * (1 - p)) / (
        1 - (1 - p) ** 2 - p * p * (1 - ps) - 2 * p * (1 - p) * (1 - p * ps)
    )


class TestEvaluate:
    def test_deterministic_chain_delivers_in_one_slot(self):
        space, model = build(3, 1, p=1.0, p_s=1.0)
        table = evaluate_policy(space, model, swap_asap_policy(space))
        assert table.t0 == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_generation_halved_swap(self):
        space, model = build(3, 1, p=1.0, p_s=0.5)
        table = evaluate_policy(space, model, swap_asap_policy(space))
        assert table.t0 == pytest.approx(2.0, abs=1e-10)

    def test_closed_form_midpoint(self):
        space, model = build(3, 1, p=0.5, p_s=0.5)
        table = evaluate_policy(space, model, swap_asap_policy(space))
        assert table.t0 == pytest.approx(6.0, abs=1e-10)

    def test_sweep_and_direct_agree(self):
        space, model = build(4, 2, p=0.5, p_s=0.5)
        policy = swap_asap_policy(space)
        direct = evaluate_policy(space, model, policy, SolverConfig(evaluation="direct"))
        sweep = evaluate_policy(space, model, policy, SolverConfig(evaluation="sweep"))
        assert np.max(np.abs(direct.values - sweep.values)) <= 1e-6 * max(
            1.0, float(np.max(direct.values))
        )
        assert sweep.iterations > 1 and sweep.residual <= 1e-7

    def test_terminal_value_zero_and_others_at_least_one(self):
        space, model = build(4, 2, p=0.7, p_s=0.8)
        table = evaluate_policy(space, model, swap_asap_policy(space))
        assert table.values[space.terminal_index] == 0.0
        others = np.delete(table.values, space.terminal_index)
        assert np.all(others >= 1.0 - 1e-12)

    def test_never_swapping_policy_is_improper(self):
        space, model = build(3, 1, p=0.5, p_s=0.5)
        never = Policy(tuple(frozenset() for _ in space.intermediate_states))
        with pytest.raises(ConvergenceError):
            evaluate_policy(space, model, never)

    def test_policy_must_be_total(self):
        space, model = build(3, 1, p=0.5, p_s=0.5)
        with pytest.raises(ValueError):
            evaluate_policy(space, model, Policy((frozenset(),)))


class TestPolicies:
    def test_swap_asap_contents(self):
        space, _ = build(5, 1, p=0.5, p_s=0.5)
        policy = swap_asap_policy(space)
        for r, action in zip(space.intermediate_states, policy.actions):
            assert action == frozenset(valid_swap_nodes(r))
        full = state_from_links(
            5, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)], intermediate=True
        )
        assert policy.state_map(space)[full] == {2, 3, 4}

    def test_modified_policy_withholds_in_full_states_only(self):
        space, _ = build(5, 2, p=0.5, p_s=0.5)
        policy = modified_full_state_policy(space, {3})
        asap = swap_asap_policy(space)
        for r, act, base in zip(space.intermediate_states, policy.actions, asap.actions):
            pairs = {(l.left, l.right) for l in r.links}
            if pairs == {(1, 2), (2, 3), (3, 4), (4, 5)}:
                assert act == {2, 4}
            else:
                assert act == base

    def test_modified_policy_with_empty_withheld_is_swap_asap(self):
        space, _ = build(4, 1, p=0.5, p_s=0.5)
        assert modified_full_state_policy(space, set()) == swap_asap_policy(space)

    def test_modified_policy_rejects_end_nodes(self):
        space, _ = build(4, 1, p=0.5, p_s=0.5)
        with pytest.raises(ValueError):
            modified_full_state_policy(space, {1})


class TestOptimalSolvers:
    @pytest.mark.parametrize("p,ps", [(0.2, 0.4), (0.5, 0.5), (0.8, 1.0), (1.0, 0.3)])
    def test_three_node_closed_form(self, p, ps):
        space, model = build(3, 1, p=p, p_s=ps)
        table, _ = policy_iteration(space, model)
        assert table.t0 == pytest.approx(three_node_unit_cutoff_t0(p, ps), rel=1e-9)

    @pytest.mark.parametrize(
        "n,t_cut,p,ps",
        [(3, 1, 0.5, 0.5), (3, 3, 0.7, 0.5), (4, 2, 0.3, 0.5), (4, 2, 0.9, 1.0)],
    )
    def test_value_and_policy_iteration_agree(self, n, t_cut, p, ps):
        space, model = build(n, t_cut, p=p, p_s=ps)
        vi_table, _ = value_iteration(space, model)
        pi_table, _ = policy_iteration(space, model)
        assert vi_table.t0 == pytest.approx(pi_table.t0, rel=1e-6)

    def test_three_node_swap_asap_stays_optimal(self):
        space, model = build(3, 2, p=0.6, p_s=0.5)
        asap = swap_asap_policy(space)
        table, policy = policy_iteration(space, model, initial_policy=asap)
        assert policy == asap
        assert table.iterations >= 1
        base = evaluate_policy(space, model, asap)
        assert table.t0 == pytest.approx(base.t0, rel=1e-12)

    def test_optimal_dominates_baselines(self):
        space, model = build(5, 2, p=0.9, p_s=0.5)
        opt, _ = policy_iteration(space, model)
        for policy in [swap_asap_policy(space), modified_full_state_policy(space, {3})]:
            base = evaluate_policy(space, model, policy)
            assert np.all(opt.values <= base.values + 1e-9)

    def test_value_iteration_monotone_from_policy_values(self):
        # Initialized at a policy's exact values, minimizing sweeps can only
        # lower them.
        space, model = build(4, 2, p=0.5, p_s=0.5)
        start = evaluate_policy(space, model, swap_asap_policy(space)).values
        mat_a = model.phase_a_matrix()
        choices = model.choice_table()
        values = start.copy()
        for _ in range(30):
            q = choices.matrix @ values
            mins = np.minimum.reduceat(q, choices.offsets[:-1])
            new = 1.0 + mat_a @ mins
            new[space.terminal_index] = 0.0
            assert np.all(new <= values + 1e-9)
            values = new

    def test_deterministic_repeat(self):
        space, model = build(4, 2, p=0.4, p_s=0.6)
        t1, p1 = value_iteration(space, model)
        t2, p2 = value_iteration(space, model)
        assert p1 == p2
        assert np.array_equal(t1.values, t2.values)

    def test_convergence_cap_raises(self):
        space, model = build(3, 1, p=0.3, p_s=0.3)
        with pytest.raises(ConvergenceError):
            value_iteration(space, model, SolverConfig(max_iterations=2))


class TestGreedyChoices:
    def test_first_minimal_row_wins_ties(self):
        # Segments: a tie after a larger row, a single row, a tie at the
        # start, a single row, a tie between the first and last rows.
        q = np.array([3.0, 1.0, 1.0, 2.0, 5.0, 0.5, 0.5, 7.0, 2.0, 4.0, 2.0])
        offsets = np.array([0, 4, 5, 7, 8, 11])
        assert _greedy_choices(q, offsets).tolist() == [1, 4, 5, 7, 8]

    def test_matches_per_segment_argmin(self):
        rng = np.random.default_rng(7)
        sizes = rng.integers(1, 6, size=200)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        q = rng.integers(0, 3, size=offsets[-1]).astype(float)
        expected = [lo + int(np.argmin(q[lo:hi])) for lo, hi in zip(offsets[:-1], offsets[1:])]
        assert _greedy_choices(q, offsets).tolist() == expected


class TestMirrorSymmetryOfValues:
    def test_values_equal_on_mirror_pairs(self):
        space, model = build(5, 2, p=0.6, p_s=0.5)
        table, _ = policy_iteration(space, model)
        b_map = np.array([space.boundary_index[mirror(s)] for s in space.boundary_states])
        assert np.max(np.abs(table.values - table.values[b_map])) <= 1e-9

    def test_bunched_solve_matches_full(self):
        space, model = build(4, 2, p=0.45, p_s=0.5)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        full_table, _ = policy_iteration(space, model)
        btable, bpolicy = policy_iteration(bmodel.space, bmodel)
        assert btable.t0 == pytest.approx(full_table.t0, abs=1e-9 * max(1, full_table.t0))
        expanded = expand_values(space, bmodel.space, btable)
        assert np.max(np.abs(expanded.values - full_table.values)) <= 1e-8
        policy = expand_policy(space, bmodel.space, bpolicy)
        check = evaluate_policy(space, model, policy)
        assert check.t0 == pytest.approx(full_table.t0, rel=1e-10)

    def test_expanded_policy_is_mirror_consistent(self):
        space, model = build(4, 2, p=0.5, p_s=0.5)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        _, bpolicy = policy_iteration(bmodel.space, bmodel)
        policy = expand_policy(space, bmodel.space, bpolicy)
        n = space.params.n
        for r_idx, r in enumerate(space.intermediate_states):
            m_idx = space.intermediate_index[mirror(r)]
            mirrored = frozenset(n - k + 1 for k in policy.actions[r_idx])
            assert policy.actions[m_idx] == mirrored

    @pytest.mark.parametrize("n,t_cut", [(4, 2), (5, 2), (5, 3)])
    def test_folded_state_map_covers_the_unfolded_space(self, n, t_cut):
        space, _ = build(n, t_cut, p=0.7, p_s=0.5)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        _, bpolicy = policy_iteration(bmodel.space, bmodel)
        mapping = bpolicy.state_map(bmodel.space)
        expanded = expand_policy(space, bmodel.space, bpolicy)
        assert mapping == expanded.state_map(space)
        assert len(mapping) == space.num_intermediate
        # Each representative comes first, its mirror image right after it.
        states = list(mapping)
        position = {r: i for i, r in enumerate(states)}
        for r, weight in zip(bmodel.space.intermediate_states, bmodel.space.intermediate_weights):
            if weight == 2:
                assert states[position[r] + 1] == mirror(r)


class TestAnalytics:
    def test_relative_advantage(self):
        assert relative_advantage(9.35, 8.34) == pytest.approx(0.1211, abs=2e-3)
        assert relative_advantage(5.0, 5.0) == 0.0
        assert relative_advantage(10.0, 5.0) == 1.0
        with pytest.raises(ValueError):
            relative_advantage(2.0, 0.0)

    def test_swap_asap_stats(self):
        space, _ = build(4, 2, p=0.5, p_s=0.5)
        stats = policy_stats(space, swap_asap_policy(space))
        assert stats.swap_all_fraction == 1.0
        assert stats.no_swap_fraction == 0.0
        assert stats.decidable_states == space.num_decidable

    def test_three_node_optimal_swaps_everywhere(self):
        space, model = build(3, 2, p=0.5, p_s=0.5)
        _, policy = policy_iteration(space, model)
        stats = policy_stats(space, policy)
        assert stats.swap_all_fraction == 1.0
        assert stats.no_swap_fraction == 0.0

    def test_fractions_bounded(self):
        space, model = build(5, 2, p=0.9, p_s=0.5)
        _, policy = policy_iteration(space, model)
        stats = policy_stats(space, policy)
        assert 0.0 <= stats.swap_all_fraction <= 1.0
        assert 0.0 <= stats.no_swap_fraction <= 1.0
        assert stats.swap_all_fraction + stats.no_swap_fraction <= 1.0
