"""The smallest interesting chain, solved exactly and checked by hand.

A three-node chain with cutoff 1 is small enough to solve on paper: with
swap-asap the expected delivery time from the empty state is

    T = (1 + 2p(1-p)) / (1 - (1-p)^2 - p^2(1-ps) - 2p(1-p)(1-p*ps)).

The MDP solver reproduces this closed form everywhere, and in three-node
chains swapping immediately is always optimal: waiting cannot create new
options, it only risks the cutoff.

Run with:  python3 demos/02_three_node_exact_solution.py
"""

from repeaterchain import (
    ChainParams,
    TransitionModel,
    enumerate_states,
    evaluate_policy,
    policy_iteration,
    swap_asap_policy,
)


def closed_form(p, ps):
    return (1 + 2 * p * (1 - p)) / (
        1 - (1 - p) ** 2 - p * p * (1 - ps) - 2 * p * (1 - p) * (1 - p * ps)
    )


space = enumerate_states(ChainParams(n=3, p=0.5, p_s=0.5, t_cut=1))
model = TransitionModel.build(space)
print(f"state space: {space.num_boundary} slot-boundary states "
      f"(incl. terminal), {space.num_intermediate} decision states")
print()
print("     p    ps     solver T      closed form   |diff|")
worst = 0.0
for p in (0.2, 0.5, 0.8, 1.0):
    for ps in (0.3, 0.5, 1.0):
        # One walk serves every (p, p_s); the solver reads them off the model.
        m = model.respecialized(p=p, p_s=ps)
        table, policy = policy_iteration(m)
        exact = closed_form(p, ps)
        diff = abs(table.t0 - exact)
        worst = max(worst, diff / exact)
        print(f"  {p:4.1f}  {ps:4.1f}  {table.t0:12.6f}  {exact:12.6f}   {diff:.2e}")
print(f"\nworst relative deviation: {worst:.2e}")

table, policy = policy_iteration(model)
asap = evaluate_policy(model, swap_asap_policy(space))
print(f"\noptimal T(empty) = {table.t0:.6f}, swap-asap T(empty) = {asap.t0:.6f}")
print("swap-asap is optimal here: the solver's policy swaps wherever it can ->",
      policy == swap_asap_policy(space))
