"""Delivery times of an eight-node chain, beyond the acceptance grid's n <= 6.

At (n=8, t_cut=2, p=0.9, p_s=0.5) the folded and the unfolded solve must
agree, both must give the recorded optimal and swap-asap delivery times,
and a simulation of the folded optimal policy must reproduce its delivery
time.  The advantage of the optimal policy over swap-asap at p = 0.9,
t_cut = 2 must grow with the chain and as swaps get less reliable, the
paper's headline trend (about 4 s of tier-1 in all).
"""

import pytest

from repeaterchain.chain import ChainParams
from repeaterchain.mdp import TransitionModel
from repeaterchain.sim import SimConfig, estimate
from repeaterchain.solver import (
    evaluate_policy,
    policy_iteration,
    relative_advantage,
    swap_asap_policy,
)
from repeaterchain.statespace import enumerate_states

PARAMS = ChainParams(n=8, p=0.9, p_s=0.5, t_cut=2)
T_OPT = 31.546769534047193
T_SWAP_ASAP = 57.925456730848886
RTOL = 1e-12


@pytest.fixture(scope="module")
def solves():
    """(model, policy-iteration values, policy) of the unfolded and the folded space, in that order."""
    models = [TransitionModel.build(enumerate_states(PARAMS, fold=fold)) for fold in (False, True)]
    return [(model, *policy_iteration(model)) for model in models]


def test_folded_and_unfolded_solves_agree(solves):
    (_, full, _), (_, folded, _) = solves
    assert folded.t0 == pytest.approx(full.t0, rel=RTOL, abs=0)


def test_optimal_delivery_time(solves):
    for _, table, _ in solves:
        assert table.t0 == pytest.approx(T_OPT, rel=RTOL, abs=0)


def test_swap_asap_delivery_time(solves):
    for model, _, _ in solves:
        t_asap = evaluate_policy(model, swap_asap_policy(model.space)).t0
        assert t_asap == pytest.approx(T_SWAP_ASAP, rel=RTOL, abs=0)


def test_simulated_folded_optimal_policy(solves):
    # Trials and seed were fixed before the first run.
    model, _, policy = solves[1]
    result = estimate(PARAMS, policy.state_map(model.space), SimConfig(trials=25_000, master_seed=3))
    assert abs(result.mean - T_OPT) <= 4 * result.stderr


def advantage(model):
    """Relative advantage of the optimal policy over swap-asap on ``model``."""
    t_opt = policy_iteration(model)[0].t0
    return relative_advantage(evaluate_policy(model, swap_asap_policy(model.space)).t0, t_opt)


def test_advantage_grows_with_the_chain(solves):
    folded = solves[1][0]
    smaller = [
        TransitionModel.build(enumerate_states(ChainParams(n=n, p=0.9, p_s=0.5, t_cut=2), fold=True))
        for n in range(3, 8)
    ]
    got = [advantage(model) for model in [*smaller, folded]]
    assert got == pytest.approx([0, 0, 0.124, 0.325, 0.592, 0.836], abs=5e-4)
    assert got[0] <= got[1] and all(a < b for a, b in zip(got[1:], got[2:]))


def test_advantage_grows_as_swaps_fail(solves):
    folded = solves[1][0]
    got = [advantage(folded.respecialized(0.9, p_s)) for p_s in (1.0, 0.75, 0.5, 0.25)]
    assert got == pytest.approx([0.0005, 0.094, 0.836, 2.708], abs=5e-4)
    assert all(a < b for a, b in zip(got, got[1:]))
