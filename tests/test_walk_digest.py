"""The walk's output pinned by digest.

Each ``StateSpace`` array is pinned by the sha256 of its dtype name and
bytes, so a faster walk must list the same states in the same order, with
the same arcs, down to the integer widths.  The action lists are pinned by
the digest of their sorted node lists.  Each space is walked at the
default chunk size and at 64 parents a chunk, so that the swap tables of
the link layouts grow over many chunks.
"""

import hashlib

import pytest

from repeaterchain import statespace
from repeaterchain.chain import ChainParams
from repeaterchain.statespace import enumerate_states

ARRAY_FIELDS = (
    "boundary_codes", "intermediate_codes", "absorbing_codes", "child_offsets", "gen_successes", "gen_failures",
    "gen_mult", "row_offsets", "row_shape", "outcome_targets", "boundary_weights", "intermediate_weights",
)

DIGESTS = {
    (6, 3, False): {
        "boundary_codes": "9d14a1c67a1bd71bb6098d4ceeaf993a2ac115bbd8781092f80d16ef50604f0c",
        "intermediate_codes": "994ede9e6fa1749e98b302b57a5fc7da519422ef1d91e30684ebce805b6fd8f4",
        "absorbing_codes": "50a8c6314f7c201aa349693ce9ba7e8b15cc79dca6fbeca0f0889b2733b78018",
        "child_offsets": "aa1be4287304e547467413e8c7ccf66750c2010b7e0f76a106aab7106901b637",
        "gen_successes": "505ee3e22d2ef09d75b23e68f8e39b13eb3e3621cb6bf643ffa2adf404399313",
        "gen_failures": "696009c20b44558e16482b354a04a87f6ecc47192a34e3cd179c984a376ea840",
        "gen_mult": None,
        "row_offsets": "e6c86198f2f13ef4a398b93d40b1700b6bfa4362a3b567de7c4d86de10d7f9d9",
        "row_shape": "09d3eab5aa22c3b3205244102bfb62ea096b08a1384091f651e478c6a29768d4",
        "outcome_targets": "c19012a3dd65c015f2b3bee7c7351baa37035226e6d6cbb1e4af3d399683ce77",
        "boundary_weights": "33e00b3dddf6138aa72d5ac5afbbf0035901a7a0fa3b1f859fd9178ff6239c66",
        "intermediate_weights": "c930d776cb3084ab284c91ae0bda3268ba61968ecbd93b102299434b7837eb76",
        "actions": "7b41554feba9b34159bf7ea410b9a2650ea72536db9ac888b0541e54969cee35",
        "run_shapes": ((), (1,), (2,), (1, 1), (3,), (2, 1), (1, 2), (4,)),
        "terminal_index": 88,
    },
    (8, 2, True): {
        "boundary_codes": "635500173137ebed17e57003d88adc8ffe42ec92cf836ff6445438340f9de4bc",
        "intermediate_codes": "24c2524beadd84096ca4dec3e30fb4e4952adbccb69f902521bfb73baee5d04f",
        "absorbing_codes": "201786ddb46017ec29918062d0fbb837dda775ed645c65f3694d1fa44fccee4d",
        "child_offsets": "e073933a6d48880b3f75daf61646a6da3b2b50c232e80f0ef547301dfa27fdc4",
        "gen_successes": "006a8fde815b3ccd7f26e846dbe3115b940abaedf7f3ac67d213ea558af2adce",
        "gen_failures": "d221b7219a43b045f36e1034243084a89bfd1f1a0f97933d655efa2054a7245b",
        "gen_mult": "63cfe704dd32a6a8c8063f25824941be16e74cf31d69d315d40f9043b06c08ac",
        "row_offsets": "e45f1a2f32c2d9062544446f0e7c8b8b11d604bf8db92f20278bc190c84771d1",
        "row_shape": "f3060465306da284fadfcc92fff252ffa4c2f56f0b9a1da66df0a0e157678ec9",
        "outcome_targets": "ee4e8242fe0632dbfbae49c0147ede65122629e5c8bd7971d745e8107d4d519e",
        "boundary_weights": "66bb8f6810520b6096af7bfd65614926f4196edc778a198cf713554a47adadfe",
        "intermediate_weights": "6ee9e681fbd775113ddc8fe10d0318ee3ebed3b828cbbfcaa9f1f93804132aba",
        "actions": "96a264866ad8221c49266b6246e66d86ed5a2b3e59a4365a94e798c34b1314e9",
        "run_shapes": (
            (), (1,), (2,), (1, 1), (3,), (2, 1), (1, 2), (4,), (1, 1, 1), (3, 1), (2, 2), (1, 3), (5,),
            (2, 1, 1), (1, 2, 1), (1, 1, 2), (4, 1), (3, 2), (2, 3), (1, 4), (6,),
        ),
        "terminal_index": 321,
    },
}


def digest(space):
    out = {}
    for name in ARRAY_FIELDS:
        array = getattr(space, name)
        if array is not None:
            array = hashlib.sha256(str(array.dtype).encode() + array.tobytes()).hexdigest()
        out[name] = array
    actions = repr([sorted(map(sorted, a)) for a in space.actions]).encode()
    out["actions"] = hashlib.sha256(actions).hexdigest()
    out["run_shapes"] = space.run_shapes
    out["terminal_index"] = space.terminal_index
    return out


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("n, t_cut, fold", sorted(DIGESTS))
def test_walk_matches_its_pinned_digests(monkeypatch, n, t_cut, fold, chunk):
    if chunk is not None:
        monkeypatch.setattr(statespace, "_CHUNK", chunk)
    space = enumerate_states(ChainParams(n=n, p=0.9, p_s=0.5, t_cut=t_cut), fold=fold)
    assert digest(space) == DIGESTS[n, t_cut, fold]
