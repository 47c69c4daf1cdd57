import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeaterchain.werner import (
    FidelityParams,
    InfeasibleCutoffError,
    chain_swap_fidelity,
    decay_fidelity,
    fidelity_to_werner,
    max_cutoff,
    swap_fidelity,
    werner_to_fidelity,
    worst_case_fidelity,
)

fid = st.floats(min_value=0.25, max_value=1.0, allow_nan=False)
pos_time = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
tau_values = st.floats(min_value=0.05, max_value=100.0, allow_nan=False)


class TestDecay:
    def test_maximally_mixed_fixed_point(self):
        for dt, tau in [(0.0, 1.0), (3.5, 0.2), (100.0, 7.0)]:
            assert decay_fidelity(0.25, dt, tau) == pytest.approx(0.25, abs=1e-15)

    def test_zero_time_is_identity(self):
        for f in (0.25, 0.5, 0.8, 1.0):
            assert decay_fidelity(f, 0.0, 2.0) == f

    def test_unit_decay_value(self):
        # Oracle: direct evaluation 1/4 + 3/4 * e^-1, cross-checked by
        # composing two half-interval decays.
        expected = 0.5259095808785818
        assert decay_fidelity(1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)
        composed = decay_fidelity(decay_fidelity(1.0, 0.5, 1.0), 0.5, 1.0)
        assert composed == pytest.approx(expected, abs=1e-12)
        assert decay_fidelity(1.0, 1.0, 1.0) == pytest.approx(0.5259, abs=1e-4)

    def test_result_bounded_by_input(self):
        f = decay_fidelity(0.9, 2.0, 1.5)
        assert 0.25 <= f <= 0.9

    @given(f=fid, a=pos_time, b=pos_time, tau=tau_values)
    @settings(max_examples=200)
    def test_semigroup(self, f, a, b, tau):
        two_step = decay_fidelity(decay_fidelity(f, a, tau), b, tau)
        one_step = decay_fidelity(f, a + b, tau)
        assert two_step == pytest.approx(one_step, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            decay_fidelity(0.9, -0.1, 1.0)
        with pytest.raises(ValueError):
            decay_fidelity(0.9, 1.0, 0.0)
        with pytest.raises(ValueError):
            decay_fidelity(0.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            decay_fidelity(1.1, 1.0, 1.0)


class TestSwap:
    def test_perfect_inputs(self):
        assert swap_fidelity(1.0, 1.0) == 1.0

    def test_identity_element(self):
        for f in (0.25, 0.6, 0.93):
            assert swap_fidelity(1.0, f) == pytest.approx(f, abs=1e-15)

    def test_mixed_input_absorbs(self):
        for f in (0.3, 0.7, 1.0):
            assert swap_fidelity(0.25, f) == pytest.approx(0.25, abs=1e-15)

    def test_value_and_parameter_route_agree(self):
        # Oracle: both the fidelity formula and the multiplicative route
        # (3x^2 + 1)/4 with x = (4*0.9 - 1)/3 give the same number.
        direct = swap_fidelity(0.9, 0.9)
        x = fidelity_to_werner(0.9)
        assert direct == pytest.approx(0.8133333333333334, abs=1e-12)
        assert direct == pytest.approx(werner_to_fidelity(x * x), abs=1e-12)
        assert direct == pytest.approx(0.81333, abs=1e-5)

    @given(f1=fid, f2=fid)
    @settings(max_examples=100)
    def test_commutative(self, f1, f2):
        assert swap_fidelity(f1, f2) == pytest.approx(swap_fidelity(f2, f1), abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            swap_fidelity(0.1, 0.9)
        with pytest.raises(ValueError):
            swap_fidelity(0.9, 1.2)


class TestChainSwap:
    def test_single_link_identity(self):
        for f in (0.25, 0.5, 1.0):
            assert chain_swap_fidelity([f]) == pytest.approx(f, abs=1e-15)

    def test_perfect_links(self):
        assert chain_swap_fidelity([1.0, 1.0, 1.0]) == 1.0

    def test_three_equal_links(self):
        # Oracle: x = (4*0.9-1)/3, F = 1/4 + 3/4 * x^3.
        expected = 0.7382222222222223
        assert chain_swap_fidelity([0.9, 0.9, 0.9]) == pytest.approx(expected, abs=1e-12)

    def test_pair_matches_swap(self):
        for f1, f2 in [(0.8, 0.9), (0.5, 0.99), (0.25, 0.7)]:
            assert chain_swap_fidelity([f1, f2]) == pytest.approx(
                swap_fidelity(f1, f2), abs=1e-12
            )

    @given(fs=st.lists(fid, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_multiplicative_in_werner_parameter(self, fs):
        product = math.prod(fidelity_to_werner(f) for f in fs)
        assert fidelity_to_werner(chain_swap_fidelity(fs)) == pytest.approx(
            product, abs=1e-12
        )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chain_swap_fidelity([])


class TestWorstCase:
    def test_no_decay_perfect_links(self):
        params = FidelityParams(f_new=1.0, f_min=0.5, tau=1e12)
        assert worst_case_fidelity(params, 3, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_two_nodes_zero_cutoff_is_fresh_link(self):
        params = FidelityParams(f_new=0.87, f_min=0.5, tau=2.0)
        assert worst_case_fidelity(params, 2, 0.0) == pytest.approx(0.87, abs=1e-15)

    def test_agrees_with_chain_swap_route(self):
        params = FidelityParams(f_new=0.95, f_min=0.5, tau=1.0)
        f_old = decay_fidelity(0.95, 0.05, 1.0)
        assert worst_case_fidelity(params, 3, 0.05) == pytest.approx(
            chain_swap_fidelity([f_old, f_old]), abs=1e-12
        )

    def test_rejects_single_node(self):
        params = FidelityParams(f_new=0.9, f_min=0.5, tau=1.0)
        with pytest.raises(ValueError):
            worst_case_fidelity(params, 1, 1.0)

    def test_matches_the_fidelity_form(self):
        # The same algebra in fidelities, with two powers; its 3^(n-2)
        # overflows a float from n = 649 on.
        rng = np.random.default_rng(5)
        for f_new, tau, t_cut in rng.uniform([0.26, 0.1, 0.0], [1.0, 100.0, 20.0], (40, 3)):
            params = FidelityParams(f_new=f_new, f_min=0.5, tau=tau)
            f_old = decay_fidelity(f_new, t_cut, tau)
            for n in range(2, 51):
                expected = 0.25 * (1.0 + (4.0 * f_old - 1.0) ** (n - 1) / 3.0 ** (n - 2))
                assert worst_case_fidelity(params, n, t_cut) == pytest.approx(expected, rel=1e-15)


class TestMaxCutoff:
    def test_barely_qualifying_links_leave_no_slack(self):
        params = FidelityParams(f_new=0.9, f_min=0.9, tau=1.0)
        assert max_cutoff(params, 2) == 0.0

    def test_perfect_threshold_two_nodes(self):
        params = FidelityParams(f_new=1.0, f_min=1.0, tau=1.0)
        assert max_cutoff(params, 2) == 0.0

    def test_three_node_value(self):
        # Oracle: tau * (ln x_new - ln(x_min)/2), then the round trip below.
        params = FidelityParams(f_new=0.95, f_min=0.8, tau=1.0)
        bound = max_cutoff(params, 3)
        assert bound == pytest.approx(0.08608459266496817, abs=1e-12)
        assert bound == pytest.approx(0.0861, abs=1e-3)
        assert worst_case_fidelity(params, 3, bound) == pytest.approx(0.8, abs=1e-9)

    def test_infeasible_raises(self):
        # Two swaps degrade threshold-grade fresh links below the threshold.
        params = FidelityParams(f_new=0.8, f_min=0.8, tau=1.0)
        with pytest.raises(InfeasibleCutoffError):
            max_cutoff(params, 3)

    def test_round_trip_random_sample(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            f_min = float(rng.uniform(0.3, 0.95))
            x_min = fidelity_to_werner(f_min)
            x_new = float(rng.uniform(x_min ** (1.0 / (n - 1)), 1.0))
            f_new = min(werner_to_fidelity(x_new), 1.0)
            params = FidelityParams(f_new=f_new, f_min=f_min, tau=float(rng.uniform(0.1, 50.0)))
            bound = max_cutoff(params, n)
            assert worst_case_fidelity(params, n, bound) == pytest.approx(f_min, abs=1e-9)


class TestSwapThenWaitDominance:
    def test_strict_dominance_random_sample(self):
        # Swapping first, then storing, always beats storing first: the
        # stored pair decoheres once rather than both inputs decohering.
        rng = np.random.default_rng(905)
        for _ in range(1000):
            f1 = float(rng.uniform(0.26, 1.0))
            f2 = float(rng.uniform(0.26, 1.0))
            t_wait = float(rng.uniform(0.01, 3.0))
            tau = float(rng.uniform(0.1, 10.0))
            swap_then_wait = decay_fidelity(swap_fidelity(f1, f2), t_wait, tau)
            wait_then_swap = swap_fidelity(
                decay_fidelity(f1, t_wait, tau), decay_fidelity(f2, t_wait, tau)
            )
            assert swap_then_wait > wait_then_swap


class TestParams:
    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            FidelityParams(f_new=0.25, f_min=0.5, tau=1.0)
        with pytest.raises(ValueError):
            FidelityParams(f_new=0.9, f_min=1.01, tau=1.0)
        with pytest.raises(ValueError):
            FidelityParams(f_new=0.9, f_min=0.5, tau=0.0)
