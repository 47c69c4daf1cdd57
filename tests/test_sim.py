import pytest

from repeaterchain import sim
from repeaterchain.chain import ChainParams, state_from_links
from repeaterchain.mdp import TransitionModel
from repeaterchain.sim import CHUNK, SimConfig, TrajectoryError, _chunk_rng, _delivery_times, estimate
from repeaterchain.solver import evaluate_policy, policy_iteration, swap_asap_policy
from repeaterchain.statespace import enumerate_states


def setup(n, t_cut, p, p_s):
    params = ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut)
    space = enumerate_states(params)
    return params, space


class TestRunTrial:
    """Single trajectories, observed through the delivery times of a batch."""

    def test_deterministic_chain_delivers_first_slot(self):
        params, space = setup(3, 1, 1.0, 1.0)
        pmap = swap_asap_policy(space).state_map(space)
        result = estimate(params, pmap, SimConfig(trials=10, master_seed=42))
        assert result.histogram == {1: 10}

    def test_six_node_single_run_succeeds_deterministically(self):
        params, space = setup(6, 1, 1.0, 1.0)
        pmap = swap_asap_policy(space).state_map(space)
        result = estimate(params, pmap, SimConfig(trials=10, master_seed=7))
        assert result.histogram == {1: 10}

    def test_same_seed_same_sample(self):
        params, space = setup(3, 1, 0.5, 0.5)
        pmap = swap_asap_policy(space).state_map(space)
        a = _delivery_times(params, pmap, SimConfig(trials=200, master_seed=123))
        b = _delivery_times(params, pmap, SimConfig(trials=200, master_seed=123))
        c = _delivery_times(params, pmap, SimConfig(trials=200, master_seed=124))
        assert (a == b).all()
        assert not (a == c).all()

    def test_rng_streams_differ_across_trials(self):
        r0 = _chunk_rng(5, 0).random(8)
        r1 = _chunk_rng(5, 1).random(8)
        assert not (r0 == r1).all()
        params, space = setup(3, 1, 0.5, 0.5)
        pmap = swap_asap_policy(space).state_map(space)
        times = _delivery_times(params, pmap, SimConfig(trials=100, master_seed=5))
        assert len(set(times.tolist())) > 1

    def test_unlisted_state_raises(self):
        params, space = setup(3, 1, 0.5, 0.5)
        only_empty = {state_from_links(3, [], intermediate=True): frozenset()}
        with pytest.raises(TrajectoryError, match="outside the policy domain"):
            estimate(params, only_empty, SimConfig(trials=10, master_seed=1, max_slots=100))

    def test_slot_cap_raises(self):
        params, space = setup(3, 1, 0.5, 0.5)
        never = {r: frozenset() for r in space.intermediate_states}
        with pytest.raises(TrajectoryError, match="no delivery within 50 slots"):
            estimate(params, never, SimConfig(trials=10, master_seed=1, max_slots=50))

    def test_chunk_times_do_not_depend_on_trial_count(self):
        params, space = setup(4, 2, 0.6, 0.5)
        pmap = swap_asap_policy(space).state_map(space)
        one = _delivery_times(params, pmap, SimConfig(trials=CHUNK, master_seed=17))
        three = _delivery_times(params, pmap, SimConfig(trials=3 * CHUNK, master_seed=17))
        assert (three[:CHUNK] == one).all()
        assert not (three[CHUNK : 2 * CHUNK] == one).all()


class TestEstimate:
    def test_matches_exact_value_quickly(self):
        params, space = setup(3, 1, 0.5, 0.5)
        model = TransitionModel.build(space)
        policy = swap_asap_policy(space)
        exact = evaluate_policy(model, policy).t0
        result = estimate(params, policy.state_map(space), SimConfig(trials=20_000, master_seed=9))
        assert abs(result.mean - exact) <= 4 * result.stderr

    def test_histogram_accounts_for_every_trial(self):
        params, space = setup(4, 2, 0.6, 0.5)
        policy = swap_asap_policy(space)
        result = estimate(params, policy.state_map(space), SimConfig(trials=2_000, master_seed=3))
        assert sum(result.histogram.values()) == 2_000
        assert min(result.histogram) >= 1
        assert result.master_seed == 3

    def test_reproducible(self):
        params, space = setup(3, 2, 0.7, 0.5)
        policy = swap_asap_policy(space)
        cfg = SimConfig(trials=500, master_seed=11)
        a = estimate(params, policy.state_map(space), cfg)
        b = estimate(params, policy.state_map(space), cfg)
        assert a == b

    def test_optimal_policy_also_simulates(self):
        params, space = setup(4, 2, 0.9, 0.5)
        model = TransitionModel.build(space)
        table, policy = policy_iteration(model)
        result = estimate(
            params,
            policy.state_map(space),
            SimConfig(trials=20_000, master_seed=21),
        )
        assert abs(result.mean - table.t0) <= 4 * result.stderr

    def test_validate_mode(self, monkeypatch):
        """Every state a trajectory reaches is checked once, when it is first interned."""
        params, space = setup(3, 2, 0.8, 0.8)
        policy = swap_asap_policy(space)
        checked = []
        real_check = sim.check_state

        def spy(state, t_cut=None):
            checked.append(state)
            real_check(state, t_cut)

        monkeypatch.setattr(sim, "check_state", spy)
        result = estimate(params, policy.state_map(space), SimConfig(trials=200, master_seed=5))
        assert result.trials == 200
        assert len(checked) == len(set(checked))
        assert {s for s in checked if s.intermediate} <= set(space.intermediate_states)
        assert sum(not s.intermediate for s in checked) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(trials=10, max_slots=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_is_refused(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            SimConfig(trials=10, master_seed=seed)

    def test_largest_seed_runs(self):
        params, space = setup(3, 1, 0.5, 0.5)
        pmap = swap_asap_policy(space).state_map(space)
        result = estimate(params, pmap, SimConfig(trials=10, master_seed=2**64 - 1))
        assert result.master_seed == 2**64 - 1
