"""How big do these problems get, and what mirror symmetry buys back.

The number of reachable states grows like t_cut^(n-1); an analytic lower
bound makes that concrete.  Relabeling the chain right-to-left maps every
state to a mirror image with the same delivery time, so mirror pairs can
be folded onto one representative ("bunching"), nearly halving the state
space without changing any value.  The fold happens during enumeration, so
the unfolded space is never built for a bunched solve.

Run with:  python3 demos/05_state_space_and_bunching.py
"""

import time

from repeaterchain import (
    ChainParams,
    TransitionModel,
    count_lower_bound,
    distinct_labeled_states,
    enumerate_states,
    policy_iteration,
)

print("state-space growth (boundary + decision states, vs analytic bound):")
print("  n  t_cut   boundary   decision   labelings   lower bound")
for n, t_cut in [(3, 1), (3, 3), (4, 2), (4, 4), (5, 2), (5, 4), (6, 2)]:
    space = enumerate_states(ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut))
    print(
        f"  {n}  {t_cut:5d}   {space.num_boundary:8d}   {space.num_intermediate:8d}"
        f"   {distinct_labeled_states(space):9d}   {count_lower_bound(n, t_cut):11d}"
    )

print()
print("mirror bunching on a five-node chain with cutoff 4:")
params = ChainParams(n=5, p=0.7, p_s=0.5, t_cut=4)

start = time.perf_counter()
space = enumerate_states(params)
model = TransitionModel.build(space)
full, _ = policy_iteration(model)
full_time = time.perf_counter() - start

# The folded walk lists one state per mirror pair; a weight of 1 marks a
# state that is its own mirror image.
start = time.perf_counter()
folded_space = enumerate_states(params, fold=True)
fmodel = TransitionModel.build(folded_space)
folded, _ = policy_iteration(fmodel)
folded_time = time.perf_counter() - start

sym = int((folded_space.boundary_weights == 1).sum())
print(f"  boundary states: {space.num_boundary} total, {sym} self-mirrored, "
      f"{folded_space.num_boundary - sym} mirror pairs")
print(f"  full build + solve:   {space.num_boundary:5d} states  T = {full.t0:.12f}  ({full_time:.2f} s)")
print(f"  folded build + solve: {folded_space.num_boundary:5d} states  T = {folded.t0:.12f}  ({folded_time:.2f} s)")
print(f"  difference: {abs(full.t0 - folded.t0):.2e}")
