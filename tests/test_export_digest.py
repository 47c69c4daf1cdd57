"""The files ``solve`` writes, pinned by digest.

``values.csv`` and ``policy.json`` are pinned by the sha256 of their bytes,
so a faster writer must list the same states in the same order, each
mirror image right after its representative, with the same text.  Policy
and value iteration find the same optimal policy here and write the same
files; folding changes the order, not the content.
"""

import hashlib

import pytest

from repeaterchain.cli import main

# (n, t_cut, bunch): sha256 of values.csv, of policy.json; at p = 0.9, p_s = 0.5.
DIGESTS = {
    (5, 2, True): (
        "4acd88259fab81e1a73803b8f9c0e9b4c3f777d5e8aa6aabd429ecc450b1b83b",
        "0984827246892246d3a44a6610eb956122497ff22242ed293f0e43c9fe644218",
    ),
    (5, 2, False): (
        "1d5206e1d342f0d4e0ede0e55324e8850ea36e3e10c1e520b304e0ab31ed1643",
        "b05cc99bc3372dcab0b7046fff806cb65d7b7689dccce50786256c69e2abe6e9",
    ),
    (6, 3, True): (
        "c2b21c21300f958821f08bcf304ee526916f1f71e3eb40722b97027632bac129",
        "1884cb9ed7ce07ce1f95586a2bdeb65f44f55ba83ed0da91aa685a2a7db4492e",
    ),
    (6, 3, False): (
        "1a62b351b4170ff486b4d09c67c298575048a3df5e6e48243f35c2cda8287395",
        "64824b24967d3a1a686920aff129a404e7f25ab1183de4462f76c139a3bf2b6a",
    ),
}


@pytest.mark.parametrize("method", ["pi", "vi"])
@pytest.mark.parametrize(
    "n, t_cut, bunch", list(DIGESTS), ids=[f"n{n}-t{t}-{'folded' if b else 'unfolded'}" for n, t, b in DIGESTS]
)
def test_solve_writes_the_pinned_files(tmp_path, n, t_cut, bunch, method):
    flag = "--bunch" if bunch else "--no-bunch"
    argv = ["solve", "--n", n, "--p", 0.9, "--ps", 0.5, "--tcut", t_cut, "--method", method, flag, "--out", tmp_path]
    assert main([str(a) for a in argv]) == 0
    files = ("values.csv", "policy.json")
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files)
    assert digests == DIGESTS[n, t_cut, bunch]
