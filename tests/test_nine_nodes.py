"""The folded optimal policy of a nine-node chain, simulated against its solved delivery time.

At (n=9, t_cut=2, p=0.9, p_s=0.5) policy iteration on the folded space
gives T = 48.032002732129691, and 40,000 simulated trials of that policy,
every mirror image acting through ``Policy.state_map``, must average within
4 standard errors of it.
"""

import pytest

from repeaterchain.chain import ChainParams
from repeaterchain.mdp import TransitionModel
from repeaterchain.sim import SimConfig, estimate
from repeaterchain.solver import policy_iteration
from repeaterchain.statespace import enumerate_states

PARAMS = ChainParams(n=9, p=0.9, p_s=0.5, t_cut=2)
T_OPT = 48.032002732129691


def test_simulated_folded_optimal_policy():
    # Trials and seed were fixed before the first run.
    space = enumerate_states(PARAMS, fold=True)
    table, policy = policy_iteration(TransitionModel.build(space))
    assert table.t0 == pytest.approx(T_OPT, rel=1e-12, abs=0)
    result = estimate(PARAMS, policy.state_map(space), SimConfig(trials=40_000, master_seed=92_000))
    assert abs(result.mean - T_OPT) <= 4 * result.stderr
