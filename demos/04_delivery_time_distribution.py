"""The mean is not the whole story: sampling the delivery-time distribution.

The solver gives exact expected delivery times; the Monte Carlo simulator
samples trajectories of the same slot dynamics.  Their agreement
cross-validates the transition probabilities, and the sampled histogram
shows how heavy the tail can be: a mean of ~9 slots hides runs several
times longer.

Writes the histogram to delivery_histogram.csv next to this script.

Run with:  python3 demos/04_delivery_time_distribution.py  (about a second)
"""

import csv
from pathlib import Path

from repeaterchain import (
    ChainParams,
    SimConfig,
    TransitionModel,
    enumerate_states,
    estimate,
    policy_iteration,
)

params = ChainParams(n=5, p=0.9, p_s=0.5, t_cut=2)
space = enumerate_states(params)
model = TransitionModel.build(space)
table, policy = policy_iteration(model)
print(f"exact optimal expected delivery time: {table.t0:.4f} slots")

result = estimate(params, policy.state_map(space), SimConfig(trials=100_000, master_seed=7))
z = abs(result.mean - table.t0) / result.stderr
print(f"simulated mean over {result.trials} trials: {result.mean:.4f} "
      f"+- {result.stderr:.4f} (z = {z:.2f})")

out = Path(__file__).with_name("delivery_histogram.csv")
with open(out, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["delivery_time", "count"])
    writer.writerows(result.histogram.items())
print(f"histogram written to {out.name}")

print()
print("delivery time distribution (censored at 30 slots):")
peak = max(result.histogram.values())
tail = 0
for t, count in result.histogram.items():
    if t > 30:
        tail += count
        continue
    bar = "#" * max(1, round(44 * count / peak))
    print(f"  {t:3d} {count:6d} {bar}")
print(f"  >30 {tail:6d} ({100 * tail / result.trials:.1f}% of trials in the tail)")
