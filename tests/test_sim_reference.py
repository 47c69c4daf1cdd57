"""The batched simulator against the per-trial simulator it replaced.

``sim.estimate`` steps every live trial of a chunk together through lazily
filled (state index, outcome mask) tables.  The reference below is the
earlier per-trial loop, kept here only as a test oracle: one trajectory at
a time, with per-state results memoized on ``ChainState`` keys and an
end-to-end scan over every link to detect delivery.  Instead of drawing
from a generator it reads supplied Bernoulli bits, so both simulators can
be fed the same generation and swap outcomes.
"""

import numpy as np
import pytest

from repeaterchain.chain import (
    ChainParams,
    age_links,
    apply_cutoff,
    apply_generation,
    empty_state,
    generation_pairs,
    resolve_swaps,
)
from repeaterchain.mdp import TransitionModel
from repeaterchain.sim import TrajectoryError, _run_chunk, _Tables
from repeaterchain.solver import modified_full_state_policy, policy_iteration, swap_asap_policy
from repeaterchain.statespace import enumerate_states


class ReferenceStepper:
    """Executes slots through the chain primitives, memoizing per-state results."""

    def __init__(self, params, policy_map):
        self.params = params
        self.policy_map = policy_map
        self._aged = {}
        self._generated = {}
        self._resolved = {}
        self._actions = {}

    def step(self, state, gen_bits, swap_bits):
        """One slot; bit ``b`` of each row is the outcome of the ``b``-th pair or node."""
        params = self.params
        cached = self._aged.get(state)
        if cached is None:
            aged = age_links(state)
            cached = (aged, tuple(sorted(generation_pairs(aged))))
            self._aged[state] = cached
        aged, pairs = cached

        gen_mask = 0
        for b in range(len(pairs)):
            if gen_bits[b]:
                gen_mask |= 1 << b
        key = (state, gen_mask)
        r = self._generated.get(key)
        if r is None:
            chosen = [pairs[b] for b in range(len(pairs)) if gen_mask >> b & 1]
            r = apply_generation(aged, chosen)
            self._generated[key] = r

        try:
            action = self.policy_map[r]
        except KeyError:
            raise TrajectoryError(
                f"trajectory reached a state outside the policy domain: {r}"
            ) from None
        nodes = self._actions.get(r)
        if nodes is None:
            nodes = tuple(sorted(action))
            self._actions[r] = nodes

        swap_mask = 0
        for b in range(len(nodes)):
            if swap_bits[b]:
                swap_mask |= 1 << b
        key = (r, swap_mask)
        nxt = self._resolved.get(key)
        if nxt is None:
            pattern = {k: bool(swap_mask >> b & 1) for b, k in enumerate(nodes)}
            nxt = apply_cutoff(resolve_swaps(r, nodes, pattern), params.t_cut)
            self._resolved[key] = nxt
        return nxt


def reference_run_trial(stepper, gen_bits, swap_bits):
    """Delivery time of one trajectory; row ``slot - 1`` of the bit arrays drives slot ``slot``."""
    n = stepper.params.n
    state = empty_state(n)
    for slot in range(1, len(gen_bits) + 1):
        state = stepper.step(state, gen_bits[slot - 1], swap_bits[slot - 1])
        if any(l.left == 1 and l.right == n for l in state.links):
            return slot
    raise TrajectoryError(f"no delivery within {len(gen_bits)} slots")


POINTS = [(3, 1, 0.5, 0.5), (4, 2, 0.6, 0.7), (5, 2, 0.9, 0.5)]
# modified:3 withholds node 3's swap in full states; a three-node chain has
# no node 3 (and withholding its only interior node 2 never delivers).
CASES = [
    (point, kind)
    for point in POINTS
    for kind in ("swap-asap", "optimal", "modified:3")
    if not (kind == "modified:3" and point[0] == 3)
]


def point_policy(space, model, kind):
    if kind == "swap-asap":
        return swap_asap_policy(space)
    if kind == "optimal":
        return policy_iteration(space, model)[1]
    return modified_full_state_policy(space, {3})


@pytest.mark.parametrize(
    "point,kind", CASES, ids=[f"n{pt[0]}-t{pt[1]}-{kind}" for pt, kind in CASES]
)
def test_identical_bits_give_identical_delivery_times(point, kind):
    n, t_cut, p, p_s = point
    params = ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut)
    space = enumerate_states(params)
    policy_map = point_policy(space, TransitionModel.build(space), kind).state_map(space)
    trials, max_slots = 400, 1000
    rng = np.random.default_rng(n * 100 + t_cut)
    gen_bits = rng.random((max_slots, trials, n - 1)) < p
    swap_bits = rng.random((max_slots, trials, n - 2)) < p_s

    stepper = ReferenceStepper(params, policy_map)
    expected = [
        reference_run_trial(stepper, gen_bits[:, i], swap_bits[:, i]) for i in range(trials)
    ]

    def draw(slot, live):
        return gen_bits[slot - 1, live], swap_bits[slot - 1, live]

    times = _run_chunk(_Tables(params, policy_map), trials, draw, max_slots)
    assert times.tolist() == expected
    assert len(set(expected)) > 1  # the bits exercise more than one path
