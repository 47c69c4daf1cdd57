"""Where greedy swapping loses: full states and probabilistic swaps.

Swap-asap swaps at every node the moment both links are there.  When all
neighbour pairs hold a link ("full state") and swaps only succeed half the
time, swapping everywhere chains all links into one all-or-nothing run:
one failure destroys everything.  Withholding the middle swap splits the
chain into two independent halves and is markedly faster on average; the
exact solver finds policies better still, and the gap grows with chain
length.

Run with:  python3 demos/03_when_swap_asap_falls_behind.py  (about 1.1 s)
"""

import time

from repeaterchain import (
    ChainParams,
    TransitionModel,
    enumerate_states,
    evaluate_policy,
    modified_full_state_policy,
    policy_iteration,
    relative_advantage,
    swap_asap_policy,
)

print("Five-node chain, p = 0.9, p_s = 0.5, cutoff 2:")
params = ChainParams(n=5, p=0.9, p_s=0.5, t_cut=2)
space = enumerate_states(params)
model = TransitionModel.build(space)
t_swap = evaluate_policy(model, swap_asap_policy(space)).t0
t_nested = evaluate_policy(model, modified_full_state_policy(space, {3})).t0
t_opt, _ = policy_iteration(model)
print(f"  swap-asap everywhere:          T = {t_swap:.3f}")
print(f"  withhold node 3 in full states: T = {t_nested:.3f} "
      f"({100 * relative_advantage(t_swap, t_nested):.1f}% faster)")
print(f"  exact optimal policy:           T = {t_opt.t0:.3f} "
      f"({100 * relative_advantage(t_swap, t_opt.t0):.1f}% faster)")

print()
print("The gap grows with chain length (p = 0.3, p_s = 0.5, cutoff 2):")
print("  n    T_swap-asap      T_opt    advantage")
for n in range(3, 9):
    start = time.perf_counter()
    params = ChainParams(n=n, p=0.3, p_s=0.5, t_cut=2)
    # One state per mirror pair: both policies treat mirror images alike.
    space = enumerate_states(params, fold=True)
    model = TransitionModel.build(space)
    t_swap = evaluate_policy(model, swap_asap_policy(space)).t0
    table, _ = policy_iteration(model)
    adv = relative_advantage(t_swap, table.t0)
    print(f"  {n}   {t_swap:11.3f}  {table.t0:9.3f}   {100 * adv:7.2f}%"
          f"   ({time.perf_counter() - start:.1f} s)")

print()
print("In three-node chains the advantage is exactly zero; from four nodes up,")
print("knowing the whole chain's state starts to pay.")
