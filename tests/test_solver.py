from itertools import combinations

import numpy as np
import pytest
import scipy.sparse.linalg

from repeaterchain import solver
from chain_oracle import act, boundary_states, index, intermediate_states, mirror, state_from_links, valid_swap_nodes
from repeaterchain.chain import ChainParams, CodeLayout, mirror_action
from repeaterchain.mdp import TransitionModel
from repeaterchain.solver import (
    ConvergenceError,
    Policy,
    PolicyStats,
    SolverConfig,
    _greedy_choices,
    baseline_rule,
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


def build(n, t_cut, p, p_s, fold=False):
    space = enumerate_states(ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut), fold=fold)
    return space, TransitionModel.build(space)


def three_node_unit_cutoff_t0(p, ps):
    """Closed-form swap-asap delivery time of the 3-node chain with cutoff 1."""
    return (1 + 2 * p * (1 - p)) / (
        1 - (1 - p) ** 2 - p * p * (1 - ps) - 2 * p * (1 - p) * (1 - p * ps)
    )


class TestEvaluate:
    def test_deterministic_chain_delivers_in_one_slot(self):
        space, model = build(3, 1, p=1.0, p_s=1.0)
        table = evaluate_policy(model, swap_asap_policy(space))
        assert table.t0 == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_generation_halved_swap(self):
        space, model = build(3, 1, p=1.0, p_s=0.5)
        table = evaluate_policy(model, swap_asap_policy(space))
        assert table.t0 == pytest.approx(2.0, abs=1e-10)

    def test_closed_form_midpoint(self):
        space, model = build(3, 1, p=0.5, p_s=0.5)
        table = evaluate_policy(model, swap_asap_policy(space))
        assert table.t0 == pytest.approx(6.0, abs=1e-10)

    def test_terminal_value_zero_and_others_at_least_one(self):
        space, model = build(4, 2, p=0.7, p_s=0.8)
        table = evaluate_policy(model, swap_asap_policy(space))
        assert table.values[space.terminal_index] == 0.0
        others = np.delete(table.values, space.terminal_index)
        assert np.all(others >= 1.0 - 1e-12)

    def test_never_swapping_policy_is_improper(self):
        space, model = build(3, 1, p=0.5, p_s=0.5)
        never = Policy.from_actions(space, [frozenset()] * space.num_intermediate)
        with pytest.raises(ConvergenceError):
            evaluate_policy(model, never)

    def test_policy_must_be_total(self):
        space, model = build(3, 1, p=0.5, p_s=0.5)
        with pytest.raises(ValueError):
            evaluate_policy(model, Policy([0]))


def composed_matrix(monkeypatch, model, policy):
    """The transition matrix ``evaluate_policy`` builds for ``policy``, caught before its solve."""
    caught = []
    solve = solver._block_triangular_solve

    def spy(matrix, terminal):
        caught.append(matrix.copy())  # the solve overwrites its matrix
        return solve(matrix, terminal)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_block_triangular_solve", spy)
        model.evaluated.clear()
        evaluate_policy(model, policy)
    (matrix,) = caught
    return matrix


def symmetric_withheld(n):
    """An interior node set that is its own mirror image."""
    nodes = frozenset({2, n - 1})
    assert mirror_action(nodes, n) == nodes
    return nodes


class TestComposition:
    """``evaluate_policy`` composes ``P_A @ C[policy.rows]`` without gathering rows of C."""

    STRUCTURES = [(5, 3, False), (6, 2, False), (5, 3, True), (7, 2, True)]
    POINTS = [(0.3, 0.5), (0.9, 1.0), (1.0, 0.5)]

    @pytest.mark.parametrize("n,t_cut,fold", STRUCTURES)
    def test_matrix_is_the_row_gather_product_byte_for_byte(self, monkeypatch, n, t_cut, fold):
        structure = build(n, t_cut, p=0.5, p_s=0.5, fold=fold)[1]
        for p, p_s in self.POINTS:
            model = structure.respecialized(p, p_s)
            space, mat_a, choices = model.space, model.phase_a_matrix(), model.choice_table()
            if p == 1.0:  # every generation succeeds: ``_csr`` drops the zero entries of P_A
                assert mat_a.nnz < space.num_intermediate
            policies = [
                swap_asap_policy(space),
                modified_full_state_policy(space, symmetric_withheld(n)),
                policy_iteration(model)[1],
            ]
            for policy in policies:
                want = mat_a @ choices[policy.rows]  # the slower oracle
                got = composed_matrix(monkeypatch, model, policy)
                assert got.shape == want.shape
                for field in ("indptr", "indices", "data"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("fold", [False, True])
    def test_solvers_never_index_the_choice_table_by_rows(self, monkeypatch, fold):
        space, model = build(4, 2, p=0.6, p_s=0.5, fold=fold)
        choices = model.choice_table()

        def refuse(self, key):
            raise AssertionError("a sparse matrix was indexed")

        monkeypatch.setattr(type(choices), "__getitem__", refuse)
        with pytest.raises(AssertionError, match="indexed"):
            choices[swap_asap_policy(space).rows]
        evaluate_policy(model, swap_asap_policy(space))
        policy_iteration(model)
        model.evaluated.clear()
        value_iteration(model)


class TestPolicies:
    def test_swap_asap_contents(self):
        space, _ = build(5, 1, p=0.5, p_s=0.5)
        policy = swap_asap_policy(space)
        for r, action in zip(intermediate_states(space), policy.actions(space)):
            assert action == frozenset(valid_swap_nodes(r))
        full = state_from_links(
            5, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)], intermediate=True
        )
        assert act(policy.state_map(space), full, 1) == {2, 3, 4}

    def test_modified_policy_withholds_in_full_states_only(self):
        space, _ = build(5, 2, p=0.5, p_s=0.5)
        policy = modified_full_state_policy(space, {3})
        asap = swap_asap_policy(space)
        for r, action, base in zip(intermediate_states(space), policy.actions(space), asap.actions(space)):
            pairs = {(l.left, l.right) for l in r.links}
            if pairs == {(1, 2), (2, 3), (3, 4), (4, 5)}:
                assert action == {2, 4}
            else:
                assert action == base

    def test_modified_policy_with_empty_withheld_is_swap_asap(self):
        space, _ = build(4, 1, p=0.5, p_s=0.5)
        assert modified_full_state_policy(space, set()) == swap_asap_policy(space)

    def test_rows_are_a_read_only_copy(self):
        rows = np.array([0, 2, 3])
        policy = Policy(rows)
        rows[0] = 1
        assert policy.rows.dtype == np.int64
        assert policy.rows.tolist() == [0, 2, 3]
        assert not policy.rows.flags.writeable
        assert policy == Policy([0, 2, 3]) != Policy([0, 2, 4])
        assert policy != Policy([0, 2])

    def test_from_actions_rejects_a_partial_policy(self):
        space, _ = build(3, 1, p=0.5, p_s=0.5)
        actions = swap_asap_policy(space).actions(space)
        with pytest.raises(ValueError, match="every intermediate state"):
            Policy.from_actions(space, actions[:-1])
        with pytest.raises(ValueError, match="every intermediate state"):
            Policy.from_actions(space, actions + actions[:1])

    def test_modified_policy_rejects_end_nodes(self):
        space, _ = build(4, 1, p=0.5, p_s=0.5)
        with pytest.raises(ValueError):
            modified_full_state_policy(space, {1})

    def test_folded_modified_policy_rejects_asymmetric_nodes(self):
        # A folded representative would stand for a mirror image that
        # withholds node 2, not node 3: a different policy.
        space, model = build(4, 2, p=0.7, p_s=0.5)
        folded = enumerate_states(space.params, fold=True)
        with pytest.raises(ValueError, match=r"\[3\] are not mirror-symmetric"):
            modified_full_state_policy(folded, {3})
        t_full = evaluate_policy(model, modified_full_state_policy(space, {3})).t0
        assert t_full == pytest.approx(9.253330819434831, rel=1e-12)

    def test_folded_modified_policy_with_symmetric_nodes_matches_unfolded(self):
        space, model = build(4, 2, p=0.7, p_s=0.5)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        t_full = evaluate_policy(model, modified_full_state_policy(space, {2, 3})).t0
        t_folded = evaluate_policy(bmodel, modified_full_state_policy(bmodel.space, {2, 3})).t0
        assert t_folded == pytest.approx(t_full, rel=1e-12, abs=0)


class TestBaselineRule:
    def test_swap_asap_takes_the_last_action_of_every_state(self):
        space, _ = build(5, 3, p=0.5, p_s=0.5)
        rule = baseline_rule(5)
        for r, actions in zip(intermediate_states(space), space.actions):
            assert act(rule, r, 3) == actions[-1]

    def test_withholding_acts_only_where_every_interior_node_can_swap(self):
        space, _ = build(5, 3, p=0.5, p_s=0.5)
        asap, modified = baseline_rule(5), baseline_rule(5, {3})
        full_states = 0
        for r, actions in zip(intermediate_states(space), space.actions):
            if actions[-1] == {2, 3, 4}:
                full_states += 1
                assert act(modified, r, 3) == {2, 4}
            else:
                assert act(modified, r, 3) == act(asap, r, 3)
        assert full_states > 0

    def test_swap_asap_and_policy_iteration_decode_no_state(self, monkeypatch):
        space, model = build(5, 3, p=0.9, p_s=0.5)
        expected = Policy.from_actions(space, [act(baseline_rule(5), r, 3) for r in intermediate_states(space)])
        space, model = build(5, 3, p=0.9, p_s=0.5)

        def decode(*args):
            raise AssertionError("a state was decoded")

        monkeypatch.setattr(CodeLayout, "state", decode)
        assert modified_full_state_policy(space, ()) == swap_asap_policy(space) == expected
        evaluate_policy(model, swap_asap_policy(space))
        for solve in (policy_iteration, value_iteration):
            _, policy = solve(model)
            policy_stats(space, policy)
            policy.actions(space)

    @pytest.mark.parametrize("withheld", [{1}, {5}])
    def test_end_nodes_cannot_be_withheld(self, withheld):
        with pytest.raises(ValueError):
            baseline_rule(5, withheld)


def neighbour_pair_facts(states, n):
    """Each state's swap-capable nodes, and whether every neighbour pair holds a link.

    That second fact is the definition of a full state that baselines used
    before they counted actions.
    """
    neighbours = {(i, i + 1) for i in range(1, n)}
    return [
        (frozenset(valid_swap_nodes(s)), {(l.left, l.right) for l in s.links} == neighbours)
        for s in states
    ]


class TestRowCountBaseline:
    """Full states found by their action count are the states whose neighbours all hold links."""

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("t_cut", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_modified_policy_and_rule_match_the_neighbour_pair_definition(self, n, t_cut, fold):
        space = enumerate_states(ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut), fold=fold)
        states = intermediate_states(space)
        facts = neighbour_pair_facts(states, n)
        interior = range(2, n)
        subsets = [frozenset(c) for r in range(n - 1) for c in combinations(interior, r)]
        for withheld in subsets:
            if fold and mirror_action(withheld, n) != withheld:
                continue
            old = [nodes - withheld if full else nodes for nodes, full in facts]
            assert modified_full_state_policy(space, withheld) == Policy.from_actions(space, old)
        # Withholding every interior node empties the action of exactly the
        # full states, so the rules agree everywhere if they agree here.
        withheld = frozenset(interior)
        rule = baseline_rule(n, withheld)
        assert [act(rule, s, t_cut) for s in states] == [nodes - withheld if full else nodes for nodes, full in facts]
        assert sum(full for _, full in facts) > 0


class TestOptimalSolvers:
    @pytest.mark.parametrize("p,ps", [(0.2, 0.4), (0.5, 0.5), (0.8, 1.0), (1.0, 0.3)])
    def test_three_node_closed_form(self, p, ps):
        space, model = build(3, 1, p=p, p_s=ps)
        table, _ = policy_iteration(model)
        assert table.t0 == pytest.approx(three_node_unit_cutoff_t0(p, ps), rel=1e-9)

    @pytest.mark.parametrize(
        "n,t_cut,p,ps",
        [(3, 1, 0.5, 0.5), (3, 3, 0.7, 0.5), (4, 2, 0.3, 0.5), (4, 2, 0.9, 1.0)],
    )
    def test_value_and_policy_iteration_agree(self, n, t_cut, p, ps):
        space, model = build(n, t_cut, p=p, p_s=ps)
        vi_table, _ = value_iteration(model)
        pi_table, _ = policy_iteration(model)
        assert vi_table.t0 == pytest.approx(pi_table.t0, rel=1e-6)

    def test_three_node_swap_asap_stays_optimal(self):
        space, model = build(3, 2, p=0.6, p_s=0.5)
        asap = swap_asap_policy(space)
        table, policy = policy_iteration(model)
        assert policy == asap
        assert table.iterations >= 1
        base = evaluate_policy(model, asap)
        assert table.t0 == pytest.approx(base.t0, rel=1e-12)

    def test_optimal_dominates_baselines(self):
        space, model = build(5, 2, p=0.9, p_s=0.5)
        opt, _ = policy_iteration(model)
        for policy in [swap_asap_policy(space), modified_full_state_policy(space, {3})]:
            base = evaluate_policy(model, policy)
            assert np.all(opt.values <= base.values + 1e-9)

    def test_value_iteration_monotone_from_policy_values(self):
        # Initialized at a policy's exact values, minimizing sweeps can only
        # lower them.
        space, model = build(4, 2, p=0.5, p_s=0.5)
        start = evaluate_policy(model, swap_asap_policy(space)).values
        mat_a = model.phase_a_matrix()
        choices = model.choice_table()
        values = start.copy()
        for _ in range(30):
            q = choices @ values
            mins = np.minimum.reduceat(q, space.row_offsets[:-1])
            new = 1.0 + mat_a @ mins
            new[space.terminal_index] = 0.0
            assert np.all(new <= values + 1e-9)
            values = new

    def test_deterministic_repeat(self):
        space, model = build(4, 2, p=0.4, p_s=0.6)
        t1, p1 = value_iteration(model)
        t2, p2 = value_iteration(model)
        assert p1 == p2
        assert np.array_equal(t1.values, t2.values)

    def test_tables_compare_and_hash_by_identity(self):
        _, model = build(4, 2, p=0.9, p_s=0.5)
        table, again = policy_iteration(model)[0], policy_iteration(model)[0]
        assert (table == again) is False
        assert table == table
        assert len({table, again}) == 2

    def test_convergence_cap_raises(self):
        _, model = build(3, 1, p=0.3, p_s=0.3)
        cap = solver.CHECK_EVERY - 1
        message = f"value iteration did not converge in {cap} sweeps (no check ran)"
        with pytest.raises(ConvergenceError) as info:
            value_iteration(model, SolverConfig(max_iterations=cap))
        assert str(info.value) == message

    def test_sweep_cap_before_a_certificate_reports_the_smallest_gap(self):
        # The first check's greedy policy is still suboptimal here.
        _, model = build(5, 2, p=0.3, p_s=0.5)
        cap = solver.CHECK_EVERY
        with pytest.raises(ConvergenceError) as info:
            value_iteration(model, SolverConfig(max_iterations=cap))
        prefix = f"value iteration did not converge in {cap} sweeps (smallest gap "
        message = str(info.value)
        assert message.startswith(prefix) and message.endswith(")")
        assert float(message[len(prefix):-1]) > SolverConfig().epsilon

    def test_gap_below_the_optimal_policy_roundoff_raises_at_once(self):
        _, model = build(5, 2, p=0.9, p_s=0.5, fold=True)
        with pytest.raises(ConvergenceError, match="cannot certify a gap of 1.000e-300") as info:
            value_iteration(model, SolverConfig(epsilon=1e-300))
        gap = float(str(info.value).rsplit(" ", 1)[1])
        assert 0 < gap <= 1e-12 * policy_iteration(model)[0].t0

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_sweep_cap_must_allow_one_sweep(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=max_iterations)

    @pytest.mark.parametrize("max_iterations", [2.5, 40.0, True])
    def test_sweep_cap_must_be_an_integer(self, max_iterations):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            SolverConfig(max_iterations=max_iterations)

    def test_numpy_integer_sweep_cap_is_stored_as_an_int(self):
        config = SolverConfig(max_iterations=np.int64(40))
        assert type(config.max_iterations) is int and config.max_iterations == 40

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("solve", [policy_iteration, value_iteration])
    def test_policy_round_trips_through_its_actions(self, solve, fold):
        space = enumerate_states(ChainParams(n=5, p=0.9, p_s=0.5, t_cut=2), fold=fold)
        _, policy = solve(TransitionModel.build(space))
        assert Policy.from_actions(space, policy.actions(space)) == policy


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

    def test_rows_within_the_tie_gap_tie(self):
        # 1 + 1e-13 ties with 1; 1 + 1e-11 does not.
        q = np.array([1.0 + 1e-13, 1.0, 1.0 + 1e-11, 1.0])
        offsets = np.array([0, 2, 4])
        assert _greedy_choices(q, offsets).tolist() == [0, 3]


def acceptance_grid():
    """The policy-iteration points of acceptance criteria 4, 6 and 11, as (n, t_cut, p, p_s, fold)."""
    points = [(5, 6, 0.9, 0.5, True)]
    for n, t_cut, p, ps in [(3, 1, 0.5, 0.5), (3, 3, 0.7, 0.5), (4, 2, 0.3, 0.5),
                            (4, 2, 0.9, 1.0), (5, 2, 0.9, 0.5), (5, 3, 0.5, 1.0)]:
        points.append((n, t_cut, p, ps, False))
    for n, t_cut, p, ps in [(4, 2, 0.5, 0.5), (5, 2, 0.9, 0.5), (5, 3, 0.6, 1.0)]:
        points += [(n, t_cut, p, ps, False), (n, t_cut, p, ps, True)]
    for t_cut in range(2, 7):
        for ps in (0.5, 1.0):
            points += [(5, t_cut, round(0.1 * k, 1), ps, True) for k in range(3, 10)]
    return points


class TestTieRule:
    """Both solvers return the greedy policy of their values under one tie rule."""

    @pytest.mark.parametrize("fold", [False, True])
    def test_policy_and_value_iteration_return_the_same_policy(self, fold):
        _, model = build(6, 2, p=0.9, p_s=0.5, fold=fold)
        assert policy_iteration(model)[1] == value_iteration(model)[1]

    @pytest.mark.parametrize(
        "n,t_cut,p", [(4, 2, 0.6), (4, 3, 0.9), (5, 2, 0.3), (5, 3, 0.9), (6, 2, 0.6)]
    )
    def test_lu_ordering_moves_no_policy_and_no_round_count(self, monkeypatch, n, t_cut, p):
        # The multi-state blocks are factored with another column ordering.
        table, policy = policy_iteration(build(n, t_cut, p, 1.0)[1])
        original, orderings = scipy.sparse.linalg.splu, []

        def colamd(system, permc_spec):
            orderings.append(permc_spec)
            return original(system, permc_spec="COLAMD")

        # The solver imports ``splu`` where it factors, so it finds the patch.
        monkeypatch.setattr(scipy.sparse.linalg, "splu", colamd)
        colamd_table, colamd_policy = policy_iteration(build(n, t_cut, p, 1.0)[1])
        assert orderings and "COLAMD" not in orderings
        assert colamd_policy == policy
        assert colamd_table.iterations == table.iterations
        assert colamd_table.t0 == pytest.approx(table.t0, rel=1e-12)

    def test_folding_moves_no_round_count(self):
        full, _ = policy_iteration(build(5, 6, 0.3, 1.0)[1])
        folded, _ = policy_iteration(build(5, 6, 0.3, 1.0, fold=True)[1])
        assert folded.iterations == full.iterations

    def test_policy_evaluates_to_its_values_on_the_acceptance_grid(self):
        models = {}
        for n, t_cut, p, ps, fold in acceptance_grid():
            key = (n, t_cut, fold)
            if key not in models:
                models[key] = build(n, t_cut, p, ps, fold)[1]
            model = models[key].respecialized(p, ps)
            table, policy = policy_iteration(model)
            check = evaluate_policy(model, policy).values
            assert np.max(np.abs(check - table.values) / np.maximum(1.0, table.values)) <= 1e-12


class TestCertifiedValueIteration:
    """Value iteration stops on the Bellman gap of an exactly evaluated greedy policy."""

    @pytest.mark.parametrize("fold", [False, True])
    def test_gap_of_a_suboptimal_policy_brackets_the_optimum(self, fold):
        # U = T[swap-asap] and g = max(U - T U): U / (1 + g) <= T* <= U in every state.
        space, model = build(5, 2, p=0.9, p_s=0.5, fold=fold)
        upper = evaluate_policy(model, swap_asap_policy(space)).values
        _, gap = solver._bellman_gap(model, upper)
        optimal, _ = policy_iteration(model)
        assert gap > 0.01  # swap-asap is far from optimal here, so the bound has teeth
        assert np.all(upper / (1 + gap) <= optimal.values * (1 + 1e-12))
        assert np.all(optimal.values <= upper * (1 + 1e-12))
        assert np.any(upper > optimal.values * (1 + 1e-3))

    def test_certificate_on_the_acceptance_grid(self):
        epsilon = SolverConfig().epsilon
        models = {}
        for n, t_cut, p, ps, fold in acceptance_grid():
            key = (n, t_cut, fold)
            if key not in models:
                models[key] = build(n, t_cut, p, ps, fold)[1]
            model = models[key].respecialized(p, ps)
            table, policy = value_iteration(model)
            pi_table, pi_policy = policy_iteration(model)
            assert table.residual <= epsilon
            check = evaluate_policy(model, policy).values
            assert np.max(np.abs(check - table.values) / np.maximum(1.0, table.values)) <= 1e-12
            assert table.t0 == pytest.approx(pi_table.t0, rel=1e-12)
            assert policy == pi_policy

    def test_policy_iteration_brackets_tight_value_iteration_on_the_acceptance_grid(self):
        # Policy iteration's residual is the Bellman gap g of its values U,
        # so T* lies in [U / (1 + g), U]: value iteration's at a tight
        # epsilon must too.
        models = {}
        for n, t_cut, p, ps, fold in acceptance_grid():
            key = (n, t_cut, fold)
            if key not in models:
                models[key] = build(n, t_cut, p, ps, fold)[1]
            model = models[key].respecialized(p, ps)
            upper = policy_iteration(model)[0]
            tight = value_iteration(model, SolverConfig(epsilon=1e-10))[0].values
            assert 0 <= upper.residual <= 1e-10
            assert np.all(upper.values / (1 + upper.residual) <= tight * (1 + 1e-12))
            assert np.all(tight <= upper.values * (1 + 1e-12))

    def test_checked_values_never_rise(self):
        # After each check the sweeps go on from its exact values, an upper
        # bound, so every later checked policy evaluates to values no higher.
        _, model = build(5, 2, p=0.3, p_s=0.5)
        value_iteration(model)
        checked = list(model.evaluated.values())  # in check order
        assert len(checked) >= 2
        for before, after in zip(checked, checked[1:]):
            assert np.all(after <= before * (1 + 1e-12))

    def test_low_success_probability_converges_within_a_few_checks(self):
        # Delivery takes about 4e5 slots here: sweeps from zero alone would
        # need on the order of that many.
        _, model = build(6, 2, p=0.05, p_s=0.5)
        table, policy = value_iteration(
            model, SolverConfig(max_iterations=8 * solver.CHECK_EVERY)
        )
        pi_table, pi_policy = policy_iteration(model)
        assert policy == pi_policy
        assert table.t0 == pytest.approx(pi_table.t0, rel=1e-12)

    @pytest.mark.parametrize("n,t_cut,p,ps", [(6, 3, 0.9, 0.5), (5, 3, 0.6, 0.5)])
    def test_loose_certificate_returns_the_values_of_the_returned_policy(self, n, t_cut, p, ps):
        # At a loose epsilon the greedy policy of the checked values improves
        # on the checked policy, so its own values are returned.
        space, model = build(n, t_cut, p, ps)
        table, policy = value_iteration(model, SolverConfig(epsilon=1e-2))
        fresh = TransitionModel.build(space)
        assert table.values.tobytes() == evaluate_policy(fresh, policy).values.tobytes()
        optimal, _ = policy_iteration(fresh)
        assert 0 < table.residual <= 1e-2
        assert np.all(table.values / (1 + table.residual) <= optimal.values * (1 + 1e-12))
        assert np.all(optimal.values <= table.values * (1 + 1e-12))


class TestMirrorSymmetryOfValues:
    def test_values_equal_on_mirror_pairs(self):
        space, model = build(5, 2, p=0.6, p_s=0.5)
        table, _ = policy_iteration(model)
        b_index = index(boundary_states(space))
        b_map = np.array([b_index[mirror(s)] for s in boundary_states(space)])
        assert np.max(np.abs(table.values - table.values[b_map])) <= 1e-9

    def test_bunched_solve_matches_full(self):
        space, model = build(4, 2, p=0.45, p_s=0.5)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        full_table, _ = policy_iteration(model)
        btable, bpolicy = policy_iteration(bmodel)
        assert btable.t0 == pytest.approx(full_table.t0, abs=1e-9 * max(1, full_table.t0))
        expanded = expand_values(space, bmodel.space, btable)
        assert np.max(np.abs(expanded.values - full_table.values)) <= 1e-8
        policy = expand_policy(space, bmodel.space, bpolicy)
        check = evaluate_policy(model, policy)
        assert check.t0 == pytest.approx(full_table.t0, rel=1e-10)

    def test_expanded_policy_is_mirror_consistent(self):
        space, model = build(4, 2, p=0.5, p_s=0.5)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        _, bpolicy = policy_iteration(bmodel)
        policy = expand_policy(space, bmodel.space, bpolicy)
        n = space.params.n
        actions = policy.actions(space)
        i_index = index(intermediate_states(space))
        for r_idx, r in enumerate(intermediate_states(space)):
            m_idx = i_index[mirror(r)]
            mirrored = frozenset(n - k + 1 for k in actions[r_idx])
            assert actions[m_idx] == mirrored

    @pytest.mark.parametrize("n,t_cut", [(4, 2), (5, 2), (5, 3)])
    def test_folded_state_map_covers_the_unfolded_space(self, n, t_cut):
        space, _ = build(n, t_cut, p=0.7, p_s=0.5)
        bmodel = TransitionModel.build(enumerate_states(space.params, fold=True))
        _, bpolicy = policy_iteration(bmodel)
        mapping = bpolicy.state_map(bmodel.space)
        expanded = expand_policy(space, bmodel.space, bpolicy)
        unfolded = expanded.state_map(space)
        for r, action in zip(intermediate_states(space), expanded.actions(space)):
            assert act(mapping, r, t_cut) == act(unfolded, r, t_cut) == action

    @pytest.mark.parametrize("fold", [False, True], ids=["unfolded", "folded"])
    def test_state_map_is_a_lookup(self, fold):
        space = enumerate_states(ChainParams(n=4, p=0.5, p_s=0.5, t_cut=1), fold=fold)
        mapping = swap_asap_policy(space).state_map(space)
        # Two links into node 3: no state holds them, though their code is a valid number.
        with pytest.raises(KeyError):
            act(mapping, state_from_links(4, [(1, 3, 0), (2, 3, 0)], intermediate=True), 1)
        assert act(mapping, state_from_links(4, [(2, 3, 0), (3, 4, 1)], intermediate=True), 1) == {3}


def reference_policy_stats(space, policy):
    """The per-state loop ``policy_stats`` replaced: each state's action against its eligible nodes."""
    total = swap_all = no_swap = 0
    weights = space.intermediate_weights.tolist()
    for r, action, weight in zip(intermediate_states(space), policy.actions(space), weights):
        nodes = valid_swap_nodes(r)
        if not nodes:
            continue
        total += weight
        if action == nodes:
            swap_all += weight
        elif not action:
            no_swap += weight
    if total == 0:
        return PolicyStats(0.0, 0.0, 0)
    return PolicyStats(swap_all / total, no_swap / total, total)


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
        _, policy = policy_iteration(model)
        stats = policy_stats(space, policy)
        assert stats.swap_all_fraction == 1.0
        assert stats.no_swap_fraction == 0.0

    def test_fractions_bounded(self):
        space, model = build(5, 2, p=0.9, p_s=0.5)
        _, policy = policy_iteration(model)
        stats = policy_stats(space, policy)
        assert 0.0 <= stats.swap_all_fraction <= 1.0
        assert 0.0 <= stats.no_swap_fraction <= 1.0
        assert stats.swap_all_fraction + stats.no_swap_fraction <= 1.0

    @pytest.mark.parametrize("fold", [False, True])
    def test_stats_match_the_per_state_loop(self, fold):
        space = enumerate_states(ChainParams(n=5, p=0.9, p_s=0.5, t_cut=3), fold=fold)
        model = TransitionModel.build(space)
        policies = [
            swap_asap_policy(space),
            modified_full_state_policy(space, {3}),
            policy_iteration(model)[1],
        ]
        for policy in policies:
            assert policy_stats(space, policy) == reference_policy_stats(space, policy)
        # The three policies fall in different classes, so the check has teeth.
        assert len({policy_stats(space, policy) for policy in policies}) == 3
