"""Delivery times of an eight-node chain, beyond the acceptance grid's n <= 6.

At (n=8, t_cut=2, p=0.9, p_s=0.5) the folded and the unfolded solve must
agree, and both must give the recorded optimal and swap-asap delivery
times (about 2 s of tier-1 in all).
"""

import pytest

from repeaterchain.chain import ChainParams
from repeaterchain.mdp import TransitionModel
from repeaterchain.solver import evaluate_policy, policy_iteration, swap_asap_policy
from repeaterchain.statespace import enumerate_states

PARAMS = ChainParams(n=8, p=0.9, p_s=0.5, t_cut=2)
T_OPT = 31.546769534047193
T_SWAP_ASAP = 57.925456730848886
RTOL = 1e-12


@pytest.fixture(scope="module")
def solves():
    """(model, policy-iteration values) of the unfolded and the folded space, in that order."""
    models = [TransitionModel.build(enumerate_states(PARAMS, fold=fold)) for fold in (False, True)]
    return [(model, policy_iteration(model)[0]) for model in models]


def test_folded_and_unfolded_solves_agree(solves):
    (_, full), (_, folded) = solves
    assert folded.t0 == pytest.approx(full.t0, rel=RTOL, abs=0)


def test_optimal_delivery_time(solves):
    for _, table in solves:
        assert table.t0 == pytest.approx(T_OPT, rel=RTOL, abs=0)


def test_swap_asap_delivery_time(solves):
    for model, _ in solves:
        t_asap = evaluate_policy(model, swap_asap_policy(model.space)).t0
        assert t_asap == pytest.approx(T_SWAP_ASAP, rel=RTOL, abs=0)
