"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module, the heavier criteria (advantage scaling, simulator
cross-validation, monotonicity grid) included, takes a few seconds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from repeaterchain.chain import ChainParams
from repeaterchain.mdp import TransitionModel
from repeaterchain.sim import SimConfig, estimate
from repeaterchain.solver import (
    evaluate_policy,
    modified_full_state_policy,
    policy_iteration,
    relative_advantage,
    swap_asap_policy,
    value_iteration,
)
from repeaterchain.statespace import (
    count_lower_bound,
    distinct_labeled_states,
    enumerate_states,
)
from repeaterchain.werner import (
    FidelityParams,
    decay_fidelity,
    fidelity_to_werner,
    max_cutoff,
    swap_fidelity,
    werner_to_fidelity,
    worst_case_fidelity,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def build(n, t_cut, p=0.5, p_s=0.5, fold=False):
    space = enumerate_states(ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut), fold=fold)
    return space, TransitionModel.build(space)


def closed_form_t0(p, ps):
    return (1 + 2 * p * (1 - p)) / (
        1 - (1 - p) ** 2 - p * p * (1 - ps) - 2 * p * (1 - p) * (1 - p * ps)
    )


def test_criterion_1_closed_form_oracle():
    with criterion("1: three-node closed form on the full probability grid (< 1 s)"):
        space, model = build(3, 1)
        start = time.perf_counter()
        grid = [round(0.1 * k, 1) for k in range(1, 11)]
        for p in grid:
            for ps in grid:
                m = model.respecialized(p=p, p_s=ps)
                table, _ = policy_iteration(m)
                expected = closed_form_t0(p, ps)
                assert abs(table.t0 - expected) <= 1e-5 * expected
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"grid took {elapsed:.2f} s"


def test_criterion_2_swap_semantics_calibration():
    with criterion("2: five-node benchmark (9.35 / 8.34 / 12.1%) under run semantics"):
        start = time.perf_counter()
        space, model = build(5, 2, p=0.9, p_s=0.5)
        t_swap = evaluate_policy(model, swap_asap_policy(space)).t0
        t_mod = evaluate_policy(model, modified_full_state_policy(space, {3})).t0
        assert t_swap == pytest.approx(9.35, abs=0.01)
        assert t_mod == pytest.approx(8.34, abs=0.01)
        gap = relative_advantage(t_swap, t_mod)
        assert gap == pytest.approx(0.121, abs=0.002)
        assert time.perf_counter() - start < 60.0


def test_criterion_3_advantage_scaling_with_chain_length():
    with criterion("3: optimal-policy advantage 1.7% / 5.9% / 12.3% for n = 4, 5, 6"):
        targets = {4: 0.017, 5: 0.059, 6: 0.123}
        for n, target in targets.items():
            space, model = build(n, 2, p=0.3, p_s=0.5)
            t_swap = evaluate_policy(model, swap_asap_policy(space)).t0
            table, _ = policy_iteration(model)
            adv = relative_advantage(t_swap, table.t0)
            assert adv == pytest.approx(target, abs=0.003), f"n={n}: {adv:.4f}"


def test_criterion_4_maximum_advantage_point():
    with criterion("4: five-node advantage 13.2% at the large-cutoff point (bunched)"):
        _, bmodel = build(5, 6, p=0.9, p_s=0.5, fold=True)
        t_swap = evaluate_policy(bmodel, swap_asap_policy(bmodel.space)).t0
        table, _ = policy_iteration(bmodel)
        adv = relative_advantage(t_swap, table.t0)
        assert adv == pytest.approx(0.132, abs=0.005), f"advantage {adv:.4f}"


def test_criterion_5_three_node_optimality_of_swap_asap():
    with criterion("5: swap-asap is optimal in every tested three-node chain"):
        for t_cut in range(1, 6):
            space, model = build(3, t_cut)
            for p in (0.25, 0.5, 0.75, 1.0):
                for ps in (0.25, 0.5, 0.75, 1.0):
                    m = model.respecialized(p=p, p_s=ps)
                    t_opt, _ = policy_iteration(m)
                    t_swap = evaluate_policy(m, swap_asap_policy(m.space))
                    assert abs(t_opt.t0 - t_swap.t0) <= 1e-6 * t_swap.t0


def test_criterion_6_solver_cross_validation():
    with criterion("6: VI = PI (1e-6 rel) and bunched = unbunched (1e-9)"):
        configs = [
            (3, 1, 0.5, 0.5),
            (3, 3, 0.7, 0.5),
            (4, 2, 0.3, 0.5),
            (4, 2, 0.9, 1.0),
            (5, 2, 0.9, 0.5),
            (5, 3, 0.5, 1.0),
        ]
        for n, t_cut, p, ps in configs:
            space, model = build(n, t_cut, p=p, p_s=ps)
            vi, _ = value_iteration(model)
            pi, _ = policy_iteration(model)
            assert abs(vi.t0 - pi.t0) <= 1e-6 * pi.t0, (n, t_cut, p, ps)
        for n, t_cut, p, ps in [(4, 2, 0.5, 0.5), (5, 2, 0.9, 0.5), (5, 3, 0.6, 1.0)]:
            space, model = build(n, t_cut, p=p, p_s=ps)
            full, _ = policy_iteration(model)
            _, bmodel = build(n, t_cut, p=p, p_s=ps, fold=True)
            folded, _ = policy_iteration(bmodel)
            assert abs(full.t0 - folded.t0) <= 1e-9 * max(1.0, full.t0), (n, t_cut, p, ps)


def test_criterion_7_simulator_cross_validation():
    with criterion("7: Monte Carlo means within 4 standard errors of the solver"):
        configs = [
            (3, 1, 0.5, 0.5, "swap-asap"),
            (3, 2, 0.9, 0.9, "optimal"),
            (4, 2, 0.5, 1.0, "swap-asap"),
            (4, 2, 0.9, 0.5, "optimal"),
            (5, 2, 0.9, 0.5, "swap-asap"),
            (5, 2, 0.9, 0.5, "modified"),
        ]
        for i, (n, t_cut, p, ps, kind) in enumerate(configs):
            params = ChainParams(n=n, p=p, p_s=ps, t_cut=t_cut)
            space = enumerate_states(params)
            model = TransitionModel.build(space)
            if kind == "swap-asap":
                policy = swap_asap_policy(space)
            elif kind == "modified":
                policy = modified_full_state_policy(space, {3})
            else:
                _, policy = policy_iteration(model)
            exact = evaluate_policy(model, policy).t0
            result = estimate(
                params, policy.state_map(space), SimConfig(trials=100_000, master_seed=1000 + i)
            )
            z = abs(result.mean - exact) / result.stderr
            assert z <= 4.0, f"{(n, t_cut, p, ps, kind)}: mean {result.mean} vs {exact} (z={z:.2f})"


def test_criterion_8_probability_conservation():
    with criterion("8: every transition row sums to 1 within 1e-12"):
        configs = [
            (3, 1, 0.5, 0.5),
            (3, 3, 0.2, 0.8),
            (4, 2, 0.9, 0.5),
            (5, 2, 0.3, 1.0),
            (5, 3, 0.7, 0.5),
        ]
        for n, t_cut, p, ps in configs:
            space, model = build(n, t_cut, p=p, p_s=ps)
            a_sums = np.asarray(model.phase_a_matrix().sum(axis=1)).ravel()
            a_sums = np.delete(a_sums, space.terminal_index)
            assert np.max(np.abs(a_sums - 1.0)) <= 1e-12, (n, t_cut)
            b_sums = np.asarray(model.choice_table().sum(axis=1)).ravel()
            assert np.max(np.abs(b_sums - 1.0)) <= 1e-12, (n, t_cut)


def test_criterion_9_state_count_bound():
    with criterion("9: enumerated labelings dominate the analytic lower bound"):
        assert count_lower_bound(3, 1) == 3
        assert count_lower_bound(4, 2) == 25
        for n, t_cut in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)]:
            space, _ = build(n, t_cut)
            assert distinct_labeled_states(space) >= count_lower_bound(n, t_cut), (n, t_cut)


def test_criterion_10_fidelity_round_trip_and_dominance():
    with criterion("10: cutoff bound round-trips and swap-then-wait dominates"):
        rng = np.random.default_rng(424242)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            f_min = float(rng.uniform(0.3, 0.95))
            x_min = fidelity_to_werner(f_min)
            x_new = float(rng.uniform(x_min ** (1.0 / (n - 1)), 1.0))
            params = FidelityParams(
                f_new=min(werner_to_fidelity(x_new), 1.0),
                f_min=f_min,
                tau=float(rng.uniform(0.1, 50.0)),
            )
            bound = max_cutoff(params, n)
            assert abs(worst_case_fidelity(params, n, bound) - f_min) <= 1e-9
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


def test_criterion_11_monotonicity_over_figure_grid():
    with criterion("11: optimal delivery time non-increasing in p, p_s and t_cut"):
        p_grid = [round(0.1 * k, 1) for k in range(3, 10)]
        ps_grid = [0.5, 1.0]
        t_grid = [2, 3, 4, 5, 6]
        values = {}
        for t_cut in t_grid:
            _, bmodel = build(5, t_cut, fold=True)
            for ps in ps_grid:
                for p in p_grid:
                    m = bmodel.respecialized(p=p, p_s=ps)
                    table, _ = policy_iteration(m)
                    values[(p, ps, t_cut)] = table.t0
        slack = 1e-9
        for ps in ps_grid:
            for t_cut in t_grid:
                for lo, hi in zip(p_grid, p_grid[1:]):
                    assert values[(hi, ps, t_cut)] <= values[(lo, ps, t_cut)] + slack
        for p in p_grid:
            for t_cut in t_grid:
                assert values[(p, 1.0, t_cut)] <= values[(p, 0.5, t_cut)] + slack
        for p in p_grid:
            for ps in ps_grid:
                for lo, hi in zip(t_grid, t_grid[1:]):
                    assert values[(p, ps, hi)] <= values[(p, ps, lo)] + slack
