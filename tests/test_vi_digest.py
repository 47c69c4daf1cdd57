"""Value iteration's output pinned by digest.

Each entry is the sha256 of the returned values' bytes followed by the
returned policy's rows' bytes, so a faster value iteration must return the
same delivery times, bit for bit, and the same policy under the tie rule.
The points are the twelve folded (5, t_cut) points of the benchmark's
value-iteration sweep, a low success probability on an unfolded space, and
a larger folded chain.
"""

import hashlib

import pytest

from repeaterchain.chain import ChainParams
from repeaterchain.mdp import TransitionModel
from repeaterchain.solver import value_iteration
from repeaterchain.statespace import enumerate_states

# (n, t_cut, p, p_s, fold): sha256 of values.tobytes() + policy.rows.tobytes().
DIGESTS = {
    (5, 2, 0.3, 0.5, True): "3462d15e9ba76dec1be1960fbeddf1ed49abdd82731399675e276ded92dc489a",
    (5, 2, 0.3, 1.0, True): "d65e25be870000feb45ed27a88611fbfd21e209f09467f34f39b02fad8461a83",
    (5, 2, 0.6, 0.5, True): "65a7660bf51858fb9354b8cd27491e0c4f7a771d9fdfc36f6b379839721192eb",
    (5, 2, 0.6, 1.0, True): "e9660771d23bb417d71f83147311ee206ed950d50bdd5e177efd0b3fb0c0951b",
    (5, 2, 0.9, 0.5, True): "feca2bf8d781a392d318567aed296c7aac707c4def38b30fd729ef668a72cd67",
    (5, 2, 0.9, 1.0, True): "8c05c2bf03393b3a2c15863a4571d0bd26c0fa065e873a03c8a8a0b3a87c4508",
    (5, 3, 0.3, 0.5, True): "f35708d336eb72aa077c1f530ff63f2e997ab3e69b78a2ef0046806f353107cb",
    (5, 3, 0.3, 1.0, True): "f3142cb367c0d0977ad75fe73ec7274c35e12fa4ec23126044f77eac55d23c9f",
    (5, 3, 0.6, 0.5, True): "41f502995b5c55487aacba276b270abcf40e0cd045478c80d554368e54a3015f",
    (5, 3, 0.6, 1.0, True): "547b67e9861911efede805380a95fa6e2c9235c0c3892f7b3dd7d547df942362",
    (5, 3, 0.9, 0.5, True): "48d10f4eb7b1083bd02ec0524264ea9101f2ee126c33a3b6a23295c89ff96ab2",
    (5, 3, 0.9, 1.0, True): "9c9ec1f21d3df0453c6ae60e5663e78e9b9c1ddf38a5929f86869fb0fd2b8750",
    (6, 2, 0.05, 0.5, False): "3e7f6c303a576adae82636dfc0d22b962c8bed86afb3119447de7997c83e2164",
    (7, 3, 0.9, 0.5, True): "f2da1ca63286c705d76e6523e3cd029976a13c481eece0010d1dc3a74f0dd3d5",
}


@pytest.mark.parametrize(
    "n, t_cut, p, p_s, fold",
    list(DIGESTS),
    ids=[f"n{n}-t{t}-p{p}-ps{ps}-{'folded' if f else 'unfolded'}" for n, t, p, ps, f in DIGESTS],
)
def test_value_iteration_output_is_pinned(n, t_cut, p, p_s, fold):
    space = enumerate_states(ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut), fold=fold)
    table, policy = value_iteration(TransitionModel.build(space))
    digest = hashlib.sha256(table.values.tobytes() + policy.rows.tobytes()).hexdigest()
    assert digest == DIGESTS[n, t_cut, p, p_s, fold]
