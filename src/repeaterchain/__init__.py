"""Optimal entanglement-swapping policies for homogeneous repeater chains with cutoffs.

The package solves, exactly, for the global-knowledge swapping policy that
minimizes the expected end-to-end entanglement delivery time of a chain of
``n`` identical repeater nodes with probabilistic link generation,
probabilistic swaps and a maximum link storage age.  It also evaluates
fixed baselines (swap-asap and variants), cross-validates everything with a
Monte Carlo simulator, and translates fidelity requirements into cutoff
budgets through Werner-state algebra.
"""

from .chain import ChainParams, ChainState, Link
from .mdp import TransitionModel
from .sim import SimConfig, SimResult, estimate
from .solver import (
    ConvergenceError,
    Policy,
    SolverConfig,
    ValueTable,
    evaluate_policy,
    modified_full_state_policy,
    policy_iteration,
    policy_stats,
    relative_advantage,
    swap_asap_policy,
    value_iteration,
)
from .statespace import (
    StateSpace,
    count_lower_bound,
    distinct_labeled_states,
    enumerate_states,
)
from .werner import (
    FidelityParams,
    InfeasibleCutoffError,
    chain_swap_fidelity,
    decay_fidelity,
    max_cutoff,
    swap_fidelity,
    worst_case_fidelity,
)

__version__ = "1.0.0"

__all__ = [
    "ChainParams",
    "ChainState",
    "ConvergenceError",
    "FidelityParams",
    "InfeasibleCutoffError",
    "Link",
    "Policy",
    "SimConfig",
    "SimResult",
    "SolverConfig",
    "StateSpace",
    "TransitionModel",
    "ValueTable",
    "chain_swap_fidelity",
    "count_lower_bound",
    "decay_fidelity",
    "distinct_labeled_states",
    "enumerate_states",
    "estimate",
    "evaluate_policy",
    "max_cutoff",
    "modified_full_state_policy",
    "policy_iteration",
    "policy_stats",
    "relative_advantage",
    "swap_asap_policy",
    "swap_fidelity",
    "value_iteration",
    "worst_case_fidelity",
]
