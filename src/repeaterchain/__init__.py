"""Optimal entanglement-swapping policies for homogeneous repeater chains with cutoffs.

The package solves, exactly, for the global-knowledge swapping policy that
minimizes the expected end-to-end entanglement delivery time of a chain of
``n`` identical repeater nodes with probabilistic link generation,
probabilistic swaps and a maximum link storage age.  It also evaluates
fixed baselines (swap-asap and variants), cross-validates everything with a
Monte Carlo simulator, and translates fidelity requirements into cutoff
budgets through Werner-state algebra.
"""

from .chain import (
    ChainParams,
    ChainState,
    Link,
    age_links,
    apply_cutoff,
    apply_generation,
    canonical,
    decode_state,
    empty_state,
    encode_state,
    generation_pairs,
    is_absorbing,
    mirror,
    resolve_swaps,
    valid_swap_nodes,
)
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
    action_space,
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
    "action_space",
    "age_links",
    "apply_cutoff",
    "apply_generation",
    "canonical",
    "chain_swap_fidelity",
    "count_lower_bound",
    "decay_fidelity",
    "decode_state",
    "distinct_labeled_states",
    "empty_state",
    "encode_state",
    "enumerate_states",
    "estimate",
    "evaluate_policy",
    "generation_pairs",
    "is_absorbing",
    "max_cutoff",
    "mirror",
    "modified_full_state_policy",
    "policy_iteration",
    "policy_stats",
    "relative_advantage",
    "resolve_swaps",
    "swap_asap_policy",
    "swap_fidelity",
    "valid_swap_nodes",
    "value_iteration",
    "worst_case_fidelity",
]
