import ast
import pathlib
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracle import (
    action_space,
    age_links,
    apply_cutoff,
    apply_generation,
    boundary_states,
    canonical,
    decode_codes,
    empty_state,
    encode_code,
    encode_state,
    generation_pairs,
    intermediate_states,
    is_absorbing,
    mirror,
    resolve_swaps,
    state_from_links,
    swap_runs,
    valid_swap_nodes,
)
from repeaterchain.chain import (
    ChainParams,
    ChainState,
    CodeLayout,
    InvalidStateError,
    Link,
    StateCodes,
    _intern,
    _unique,
    check_state,
    mirror_action,
)
from repeaterchain.statespace import enumerate_states
from test_walk_reference import reference_swap_outcomes


def mk(n, links, intermediate=False):
    return state_from_links(n, links, intermediate)


def random_walk(seed, n, t_cut, slots=10):
    """Sample (boundary, intermediate) states by running random slots."""
    rng = np.random.default_rng(seed)
    s = empty_state(n)
    boundary, inter = [s], []
    for _ in range(slots):
        aged = age_links(s)
        pairs = sorted(generation_pairs(aged))
        chosen = [pr for pr in pairs if rng.random() < 0.6]
        r = apply_generation(aged, chosen)
        inter.append(r)
        action = sorted(k for k in valid_swap_nodes(r) if rng.random() < 0.7)
        pattern = {k: bool(rng.random() < 0.6) for k in action}
        s = apply_cutoff(resolve_swaps(r, action, pattern), t_cut)
        if is_absorbing(s):
            break
        boundary.append(s)
    return boundary, inter


class TestBasics:
    def test_empty_state(self):
        assert empty_state(3).links == ()
        assert empty_state(5).links == ()
        assert not empty_state(5).intermediate
        assert valid_swap_nodes(empty_state(5)) == set()
        assert mirror(empty_state(6)) == empty_state(6)
        with pytest.raises(ValueError):
            empty_state(2)

    def test_is_absorbing(self):
        assert not is_absorbing(empty_state(3))
        assert is_absorbing(mk(3, [(1, 3, 0)]))
        assert not is_absorbing(mk(5, [(1, 4, 1)]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("t_cut", [1, 2, 3])
    def test_is_absorbing_matches_link_scan(self, n, t_cut):
        def scan(state):
            return any(l.left == 1 and l.right == state.n for l in state.links)

        space = enumerate_states(ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut))
        states = [*boundary_states(space), *intermediate_states(space)]
        states += decode_codes(n, t_cut, space.absorbing_codes)
        hand_built = [
            mk(n, [(1, n - 1, 0), (n - 1, n, 0)]),
            mk(n, [(1, 2, 0), (2, n, 1)], intermediate=True),
            mk(n, [(2, n, 0)]),
            mk(n, [(1, n, 5)]),
        ]
        if n >= 4:
            hand_built += [
                mk(n, [(1, n, 0), (2, n - 1, 1)]),
                mk(n, [(1, n, 3), (2, 3, 0)], intermediate=True),
            ]
        for state in hand_built:
            check_state(state)
        states += hand_built
        assert sum(map(scan, states)) > 1
        for state in states:
            assert is_absorbing(state) == scan(state), state

    def test_params_validation(self):
        ChainParams(n=3, p=0.5, p_s=1.0, t_cut=1)
        with pytest.raises(ValueError):
            ChainParams(n=2, p=0.5, p_s=0.5, t_cut=1)
        with pytest.raises(ValueError):
            ChainParams(n=3, p=0.0, p_s=0.5, t_cut=1)
        with pytest.raises(ValueError):
            ChainParams(n=3, p=0.5, p_s=1.5, t_cut=1)
        with pytest.raises(ValueError):
            ChainParams(n=3, p=0.5, p_s=0.5, t_cut=0)

    def test_params_take_any_integer_type_but_bool(self):
        params = ChainParams(n=np.int64(5), p=0.9, p_s=0.5, t_cut=np.int32(2))
        assert params == ChainParams(n=5, p=0.9, p_s=0.5, t_cut=2)
        assert type(params.n) is int and type(params.t_cut) is int
        assert [ChainParams(n, 0.9, 0.5, 2).n for n in np.arange(3, 9)] == list(range(3, 9))
        with pytest.raises(ValueError):
            ChainParams(n=3, p=0.5, p_s=0.5, t_cut=True)
        with pytest.raises(ValueError):
            ChainParams(n=np.float64(5), p=0.5, p_s=0.5, t_cut=1)
        # Python ints keep the int64 overflow check exact.
        with pytest.raises(ValueError, match="do not fit in 64 bits"):
            enumerate_states(ChainParams(n=np.int64(13), p=0.5, p_s=0.5, t_cut=np.int64(7)))

    def test_links_are_normalized_sorted(self):
        s = mk(4, [(3, 4, 0), (1, 2, 2)])
        assert s.links == (Link(1, 2, 2), Link(3, 4, 0))


class TestAgeing:
    def test_empty_stays_empty(self):
        assert age_links(empty_state(3)) == empty_state(3)

    def test_single_link(self):
        assert age_links(mk(3, [(1, 2, 0)])) == mk(3, [(1, 2, 1)])

    def test_every_link_ages(self):
        s = mk(6, [(2, 3, 2), (4, 5, 1), (5, 6, 0)])
        assert age_links(s) == mk(6, [(2, 3, 3), (4, 5, 2), (5, 6, 1)])

    def test_rejects_intermediate_and_absorbing(self):
        with pytest.raises(ValueError):
            age_links(mk(3, [(1, 2, 0)], intermediate=True))
        with pytest.raises(ValueError):
            age_links(mk(3, [(1, 3, 0)]))


class TestGeneration:
    def test_all_pairs_free(self):
        assert generation_pairs(empty_state(4)) == {(1, 2), (2, 3), (3, 4)}

    def test_occupied_qubits_block(self):
        assert generation_pairs(mk(3, [(2, 3, 0)])) == {(1, 2)}

    def test_long_link_blocks_its_endpoints_only(self):
        assert generation_pairs(mk(5, [(1, 3, 0)])) == {(3, 4), (4, 5)}

    def test_interior_of_long_link_can_generate(self):
        # A link spanning (2,5) busies only node 2's right qubit and node
        # 5's left qubit; nodes 3 and 4 are free and do attempt.
        assert generation_pairs(mk(5, [(2, 5, 1)])) == {(1, 2), (3, 4)}

    def test_apply_generation(self):
        aged = empty_state(3)
        out = apply_generation(aged, [])
        assert out.links == () and out.intermediate
        both = apply_generation(aged, [(1, 2), (2, 3)])
        assert both == mk(3, [(1, 2, 0), (2, 3, 0)], intermediate=True)
        one = apply_generation(mk(3, [(1, 2, 1)]), [(2, 3)])
        assert one == mk(3, [(1, 2, 1), (2, 3, 0)], intermediate=True)

    def test_apply_generation_rejects_blocked_pair(self):
        with pytest.raises(ValueError):
            apply_generation(mk(3, [(1, 2, 0)]), [(1, 2)])


class TestSwaps:
    def test_valid_swap_nodes(self):
        assert valid_swap_nodes(mk(3, [(1, 2, 1), (2, 3, 0)])) == {2}
        full5 = mk(5, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)])
        assert valid_swap_nodes(full5) == {2, 3, 4}

    def test_runs_group_chained_links(self):
        full5 = mk(5, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)])
        runs = swap_runs(full5, {2, 3, 4})
        assert len(runs) == 1
        links, nodes = runs[0]
        assert nodes == (2, 3, 4) and len(links) == 4
        runs = swap_runs(full5, {2, 4})
        assert [nodes for _, nodes in runs] == [(2,), (4,)]

    def test_successful_swap_inherits_oldest_age(self):
        out = resolve_swaps(mk(6, [(4, 5, 2), (5, 6, 1)]), {5}, {5: True})
        assert out == mk(6, [(4, 6, 2)], intermediate=True)

    def test_failed_swap_consumes_both_links(self):
        out = resolve_swaps(mk(3, [(1, 2, 1), (2, 3, 0)]), {2}, {2: False})
        assert out.links == ()

    def test_independent_runs(self):
        full5 = mk(5, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0)])
        out = resolve_swaps(full5, {2, 4}, {2: True, 4: False})
        assert out == mk(5, [(1, 3, 0)], intermediate=True)

    def test_one_failure_destroys_whole_run(self):
        full5 = mk(5, [(1, 2, 0), (2, 3, 1), (3, 4, 0), (4, 5, 2)])
        for pattern in [{2: True, 3: True, 4: False}, {2: False, 3: True, 4: True}]:
            out = resolve_swaps(full5, {2, 3, 4}, pattern)
            assert out.links == ()
        out = resolve_swaps(full5, {2, 3, 4}, {2: True, 3: True, 4: True})
        assert out == mk(5, [(1, 5, 2)], intermediate=True)

    def test_untouched_links_pass_through(self):
        s = mk(5, [(1, 2, 0), (2, 5, 1), (3, 4, 2)])
        out = resolve_swaps(s, {2}, {2: True})
        assert out == mk(5, [(1, 5, 1), (3, 4, 2)], intermediate=True)

    def test_rejects_node_without_two_links(self):
        with pytest.raises(ValueError):
            resolve_swaps(mk(3, [(1, 2, 0)]), {2}, {2: True})


class TestCutoff:
    def test_removes_expired_only(self):
        out = apply_cutoff(mk(3, [(1, 2, 1), (2, 3, 0)], intermediate=True), 1)
        assert out == mk(3, [(2, 3, 0)])
        assert not out.intermediate

    def test_end_to_end_exempt(self):
        out = apply_cutoff(mk(3, [(1, 3, 1)], intermediate=True), 1)
        assert out == mk(3, [(1, 3, 1)])

    def test_six_node_example(self):
        out = apply_cutoff(mk(6, [(2, 3, 3), (4, 6, 2)], intermediate=True), 3)
        assert out == mk(6, [(4, 6, 2)])


def subsets(items):
    items = sorted(items)
    return [combo for size in range(len(items) + 1) for combo in combinations(items, size)]


#: Checks of the code-terms test per (n, t_cut): every generation mask of every
#: non-terminal slot-boundary state, and every node-success mask of every
#: intermediate state under every action of the walk.
CODE_TERM_CHECKS = {
    (3, 1): 26, (3, 2): 50, (3, 3): 82,
    (4, 1): 154, (4, 2): 436, (4, 3): 934,
    (5, 1): 972, (5, 2): 4_040, (5, 3): 11_340,
    (6, 1): 6_420, (6, 2): 39_232, (6, 3): 144_410,
}


@pytest.mark.parametrize("n,t_cut", CODE_TERM_CHECKS)
def test_code_terms_add_up_to_the_codes_of_the_phase_primitives(n, t_cut):
    """Every outcome mask's sum of code terms is the code of the state the primitives build.

    Exhaustive on an unfolded space: every non-terminal slot-boundary state
    under every generation mask, and every intermediate state under every
    action the walk lists for it, which must be the oracle's, and every
    node-success mask.
    """
    space = enumerate_states(ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut))
    coder = StateCodes(n, t_cut)
    checks = 0
    for s in boundary_states(space):
        if is_absorbing(s):
            continue
        ageing, terms = coder.generation_terms(coder.read(encode_code(s, t_cut))[0])
        aged_code = encode_code(s, t_cut) + ageing
        aged = age_links(s)
        pairs = sorted(generation_pairs(aged))
        assert len(terms) == len(pairs)
        for mask in range(1 << len(pairs)):
            chosen = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
            got = aged_code + sum(term for k, term in enumerate(terms) if mask >> k & 1)
            assert got == encode_code(apply_generation(aged, chosen), t_cut)
            checks += 1
    for r, actions in zip(intermediate_states(space), space.actions):
        assert actions == action_space(r)
        for action in actions:
            nodes = sorted(action)
            kept, runs = coder.swap_terms(*coder.read(encode_code(r, t_cut), True), action)
            assert len(runs) == len(swap_runs(r, action))
            for mask in range(1 << len(nodes)):
                pattern = {k: bool(mask >> b & 1) for b, k in enumerate(nodes)}
                got = kept + sum(term for run, term in runs if mask & run == run)
                assert got == encode_code(apply_cutoff(resolve_swaps(r, action, pattern), t_cut), t_cut)
                checks += 1
    assert checks == CODE_TERM_CHECKS[n, t_cut]


class TestFourSlotTrace:
    def test_reproduces_link_dynamics_figure(self):
        # Four slots of a six-node chain with cutoff 3: only (2,3) succeeds,
        # then (4,5), then (5,6) while node 5 waits, then both remaining
        # attempts fail, node 5 swaps successfully, and the oldest link is
        # discarded at the cutoff.
        t_cut = 3
        s = empty_state(6)

        r = apply_generation(age_links(s), [(2, 3)])
        s = apply_cutoff(resolve_swaps(r, [], {}), t_cut)
        assert s == mk(6, [(2, 3, 0)])

        r = apply_generation(age_links(s), [(4, 5)])
        s = apply_cutoff(resolve_swaps(r, [], {}), t_cut)
        assert s == mk(6, [(2, 3, 1), (4, 5, 0)])

        r = apply_generation(age_links(s), [(5, 6)])
        assert valid_swap_nodes(r) == {5}
        s = apply_cutoff(resolve_swaps(r, [], {}), t_cut)
        assert s == mk(6, [(2, 3, 2), (4, 5, 1), (5, 6, 0)])

        aged = age_links(s)
        assert generation_pairs(aged) == {(1, 2), (3, 4)}
        r = apply_generation(aged, [])
        s = apply_cutoff(resolve_swaps(r, {5}, {5: True}), t_cut)
        assert s == mk(6, [(4, 6, 2)])


class TestMirror:
    def test_direct_relabeling(self):
        assert mirror(mk(4, [(1, 2, 0)])) == mk(4, [(3, 4, 0)])
        assert mirror(mk(6, [(2, 5, 3)])) == mk(6, [(2, 5, 3)])

    def test_involution_and_phase_commutation(self):
        for seed in range(8):
            boundary, inter = random_walk(seed, n=6, t_cut=3)
            for s in boundary:
                assert mirror(mirror(s)) == s
                assert mirror(age_links(s)) == age_links(mirror(s))
            for r in inter:
                assert mirror(mirror(r)) == r
                assert mirror(apply_cutoff(r, 3)) == apply_cutoff(mirror(r), 3)

    def test_commutes_with_swaps(self):
        rng = np.random.default_rng(11)
        for seed in range(8):
            _, inter = random_walk(seed, n=6, t_cut=3)
            for r in inter:
                nodes = sorted(valid_swap_nodes(r))
                if not nodes:
                    continue
                action = [k for k in nodes if rng.random() < 0.7]
                pattern = {k: bool(rng.random() < 0.5) for k in action}
                mirrored_pattern = {6 - k + 1: v for k, v in pattern.items()}
                lhs = mirror(resolve_swaps(r, action, pattern))
                rhs = resolve_swaps(mirror(r), mirror_action(action, 6), mirrored_pattern)
                assert lhs == rhs

    def test_canonical_properties(self):
        sym = mk(4, [(1, 2, 1), (3, 4, 1)])
        assert canonical(sym) == sym
        assert canonical(mk(4, [(3, 4, 0)])) == mk(4, [(1, 2, 0)])
        for seed in range(8):
            boundary, inter = random_walk(seed, n=5, t_cut=2)
            for s in boundary + inter:
                assert canonical(s) == canonical(mirror(s))
                assert canonical(canonical(s)) == canonical(s)


def per_node_distribution(r, action, t_cut, ps):
    """End-of-slot distribution from the 2^|action| per-node success patterns."""
    brute: dict = {}
    for bits in range(1 << len(action)):
        pattern = {k: bool(bits >> i & 1) for i, k in enumerate(action)}
        prob = 1.0
        for ok in pattern.values():
            prob *= ps if ok else 1 - ps
        out = apply_cutoff(resolve_swaps(r, action, pattern), t_cut)
        brute[out] = brute.get(out, 0.0) + prob
    return brute


def code_digits(states, t_cut):
    """Digit rows of states under the left-endpoint code, straight from its definition."""
    digits = np.zeros((len(states), states[0].n - 1), dtype=np.int64)
    for i, state in enumerate(states):
        for l in state.links:
            digits[i, l.left - 1] = 1 + (l.right - l.left - 1) * (t_cut + 1) + l.age
    return digits


@lru_cache(maxsize=None)
def mixed_layouts(n, t_cut):
    """Intermediate states of assorted link layouts, to batch a state with."""
    return tuple(r for seed in range(3) for r in random_walk(100 + seed, n, t_cut)[1])


@lru_cache(maxsize=None)
def shared_coder(n, t_cut):
    """One coder per chain, so each link layout's tables are built once."""
    return StateCodes(n, t_cut)


def coded_outcomes(r, action, t_cut, batch=False):
    """Run sizes and ``(mask, end-of-slot state)`` per survival mask, from the walk's batch kernel.

    ``r`` is resolved alone, or, with ``batch``, in the middle of the states
    of :func:`mixed_layouts`.
    """
    coder = shared_coder(r.n, t_cut)
    others = mixed_layouts(r.n, t_cut) if batch else ()
    half = len(others) // 2
    states = [*others[:half], r, *others[half:]]
    actions, num_rows, row_shape, codes = coder.swap_outcomes(code_digits(states, t_cut))
    outcomes = [1 << len(coder.shapes[shape]) for shape in row_shape.tolist()]
    row = int(num_rows[:half].sum()) + actions[half].index(frozenset(action))
    start = sum(outcomes[:row])
    sizes = coder.shapes[row_shape[row]]
    own = codes[start : start + outcomes[row]]
    return sizes, list(enumerate(decode_codes(r.n, t_cut, own)))


def run_grouped_distribution(sizes, outcomes, ps):
    """End-of-slot distribution from the coded kernel's per-run survival masks."""
    grouped: dict = {}
    for mask, state in outcomes:
        prob = 1.0
        for b, k in enumerate(sizes):
            prob *= ps**k if mask >> b & 1 else 1 - ps**k
        grouped[state] = grouped.get(state, 0.0) + prob
    return grouped


def assert_same_distribution(r, action, t_cut):
    # The coded kernel reproduces the uncached outcome enumeration exactly,
    # alone and among states of other link layouts.
    coded = coded_outcomes(r, action, t_cut)
    assert coded == reference_swap_outcomes(r, action, t_cut)
    assert coded_outcomes(r, action, t_cut, batch=True) == coded
    for ps in (0.3, 0.75):
        brute = per_node_distribution(r, action, t_cut, ps)
        grouped = run_grouped_distribution(*coded, ps)
        assert set(brute) == set(grouped)
        for state, prob in brute.items():
            assert grouped[state] == pytest.approx(prob, abs=1e-12)
            # Decoded outcomes skip the re-sort of the public constructor;
            # their link order must still be the sorted one.
            assert state.links == tuple(sorted(state.links))


class TestSwapOutcomes:
    def test_matches_per_node_pattern_enumeration(self):
        # The run-grouped outcome enumeration must weight states exactly as
        # the 2^|action| per-node success patterns do, for every action.
        for t_cut in (1, 2, 3):
            cases = 0
            for seed in range(12):
                _, inter = random_walk(seed, n=6, t_cut=t_cut)
                for r in inter:
                    nodes = sorted(valid_swap_nodes(r))
                    for size in range(1, len(nodes) + 1):
                        for action in combinations(nodes, size):
                            cases += 1
                            assert_same_distribution(r, list(action), t_cut)
            assert cases >= 30

    def test_same_endpoints_different_ages(self):
        # Run structures are cached by link endpoints, without ages: states
        # sharing endpoints must still get their own ages, merged
        # maxima and cutoffs.  Here the untouched link (1, 2) and the merged
        # link (2, 4) fall on opposite sides of t_cut=2 in the two states, and
        # the end-to-end link of the full run stays whatever its age.
        t_cut = 2
        young = mk(5, [(1, 2, 0), (2, 3, 1), (3, 4, 0), (4, 5, 1)], intermediate=True)
        old = mk(5, [(1, 2, 2), (2, 3, 2), (3, 4, 0), (4, 5, 0)], intermediate=True)
        for action in ([3], [2, 3, 4], [2, 4]):
            assert_same_distribution(young, action, t_cut)
            assert_same_distribution(old, action, t_cut)
            assert coded_outcomes(young, action, t_cut)[1] != coded_outcomes(old, action, t_cut)[1]
        _, outcomes = coded_outcomes(old, [3], t_cut)
        assert [s.links for _, s in outcomes] == [
            (Link(4, 5, 0),),
            (Link(4, 5, 0),),
        ]
        _, outcomes = coded_outcomes(young, [3], t_cut)
        assert [s.links for _, s in outcomes] == [
            (Link(1, 2, 0), Link(4, 5, 1)),
            (Link(1, 2, 0), Link(2, 4, 1), Link(4, 5, 1)),
        ]
        assert coded_outcomes(young, [2, 3, 4], t_cut)[1][1][1].links == (Link(1, 5, 1),)
        assert coded_outcomes(old, [2, 3, 4], t_cut)[1][1][1].links == (Link(1, 5, 2),)


class TestUnique:
    """``chain._unique`` against ``np.unique``'s keys, first indices, inverse and counts, in first-occurrence order."""

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(33, 5, dtype=np.int64),
            np.array([3, -1, 3, 0, -1, 8, 3, -1], dtype=np.int64),
            np.array([-1, -1, -1], dtype=np.int64),
            np.array([2**62, 1, 2**62, 0], dtype=np.int64),
            np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max, 0], dtype=np.int64),
        ],
        ids=["empty", "single", "all-equal", "absorbing-keys", "only-absorbing", "wide", "extremes"],
    )
    def test_matches_numpy(self, values):
        self.assert_matches(values)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "low, high", [(0, 10), (0, 2**40), (-(2**62), 2**62)], ids=["small", "codes", "signed"]
    )
    def test_matches_numpy_on_random_repeats(self, seed, low, high):
        rng = np.random.default_rng(seed)
        distinct = rng.integers(low, high, size=50, dtype=np.int64)
        self.assert_matches(distinct[rng.integers(0, len(distinct), size=2000)])

    @staticmethod
    def assert_matches(values):
        got = _unique(values.copy())
        keys, first, inverse, counts = np.unique(values, return_index=True, return_inverse=True, return_counts=True)
        seen = np.argsort(first)
        rank = np.empty_like(seen)
        rank[seen] = np.arange(len(seen))
        want = keys[seen], first[seen], rank[inverse.reshape(-1)].astype(inverse.dtype), counts[seen]
        for g, w, name in zip(got, want, ("keys", "first", "inverse", "counts")):
            assert g.dtype == w.dtype and np.array_equal(g, w), name


def test_intern_numbers_new_keys_next_in_the_order_given():
    index_of = {10: 0, 4: 1}
    index, new = _intern(index_of, np.array([7, 4, 2, 10, 9], dtype=np.int64))
    assert index.tolist() == [2, 1, 3, 0, 4] and new.tolist() == [0, 2, 4]
    assert index_of == {10: 0, 4: 1, 7: 2, 2: 3, 9: 4}
    index, new = _intern(index_of, np.zeros(0, dtype=np.int64))
    assert len(index) == len(new) == 0 and len(index_of) == 5


def probed_template(n, pairs):
    """Swap tables of one layout, from ``swap_runs`` on a probe of that layout alone."""
    probe = state_from_links(n, [(l, r, l - 1) for l, r in pairs])
    runs, sizes, action_runs = {}, [], []
    for action in action_space(probe):
        found = [
            (links[0].left, links[-1].right, tuple(l.age for l in links)) for links, _ in swap_runs(probe, action)
        ]
        sizes.append(tuple(len(sources) - 1 for _, _, sources in found))
        ids = [runs.setdefault(run, len(runs)) for run in found]
        action_runs.append(ids + [-1] * ((n - 1) // 2 - len(ids)))
    sources = [list(positions) + [n - 1] * (n - len(positions) - 1) for _, _, positions in runs]
    return action_space(probe), sizes, sources, [(l, r) for l, r, _ in runs], action_runs


@pytest.mark.parametrize("n, t_cut", [(6, 3), (7, 2), (8, 1)])
def test_swap_tables_match_swap_runs_on_every_layout(n, t_cut):
    # Layouts share their actions' runs when their nodes able to swap agree
    # and so do the swapping ends of those nodes' outgoing links; every
    # layout the walk meets must still get its own runs' links.
    span = t_cut + 1
    space = enumerate_states(ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut))
    coder = StateCodes(n, t_cut)
    digits = coder.digits(space.intermediate_codes).astype(np.int64)
    layouts = np.where(digits > 0, digits - (digits - 1) % span, 0)
    _, first = np.unique(coder.codes(layouts), return_index=True)
    layouts = layouts[np.sort(first)]
    assert len(layouts) > 50
    actions, _, _, _ = coder.swap_outcomes(layouts)
    tab = coder._tables
    for p, row in enumerate(layouts.tolist()):
        pairs = [(l, l + 1 + (d - 1) // span) for l, d in enumerate(row, start=1) if d]
        want_actions, sizes, sources, ends, action_runs = probed_template(n, pairs)
        assert actions[p] == want_actions
        rows = slice(tab["row_start"][p], tab["row_start"][p] + tab["num_actions"][p])
        assert [coder.shapes[k] for k in tab["row_shape"][rows]] == sizes
        assert tab["row_run_count"][rows].tolist() == [len(k) for k in sizes]
        assert tab["row_runs"][rows].tolist() == action_runs
        runs = slice(tab["run_start"][p], tab["run_start"][p] + tab["num_runs"][p])
        assert tab["run_sources"][runs].tolist() == sources
        assert tab["run_digit"][runs].tolist() == [1 + (r - l - 1) * span for l, r in ends]
        assert tab["run_weight"][runs].tolist() == [int(coder._weight[l - 1]) for l, _ in ends]
        assert tab["run_end_to_end"][runs].tolist() == [(l, r) == (1, n) for l, r in ends]


class TestEncoding:
    def test_age_vector_layout(self):
        assert encode_state(mk(3, [(1, 2, 1), (2, 3, 0)])) == (1, -1, 0)
        assert encode_state(empty_state(3)) == (-1, -1, -1)
        assert encode_state(mk(4, [(1, 4, 2)])) == (-1, -1, 2, -1, -1, -1)

    def test_round_trip(self):
        # A state's age row reads back as its code, which decodes to the state.
        layout = CodeLayout(5, 3)
        for seed in range(6):
            boundary, inter = random_walk(seed, n=5, t_cut=3)
            for s in boundary + inter:
                code = layout.code_of_ages(encode_state(s))
                assert code == encode_code(s, 3)
                assert layout.state(code, s.intermediate) == s

    def test_code_of_ages_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3 entries for n=3, got 2"):
            CodeLayout(3, 1).code_of_ages([0, -1])

    @pytest.mark.parametrize("n, t_cut", [(3, 1), (4, 3), (5, 2), (5, 3), (6, 1), (6, 2)])
    def test_codes_encode_like_the_object_path(self, n, t_cut):
        # On every listed state, absorbing ones included, and its mirror
        # image: ``ages`` is encode_state of digit rows, and code_of_ages reads
        # each row back as its code, the oracle's.  ``state`` decodes a code
        # into the state the public constructor builds.
        space = enumerate_states(ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut))
        coder = StateCodes(n, t_cut)
        for codes, states in (
            (space.boundary_codes, boundary_states(space)),
            (space.intermediate_codes, intermediate_states(space)),
            (space.absorbing_codes, decode_codes(n, t_cut, space.absorbing_codes)),
        ):
            digits = coder.digits(codes)
            for rows, images in ((digits, states), (coder.mirror(digits), [mirror(s) for s in states])):
                ages = coder.ages(rows).tolist()
                assert ages == [list(encode_state(s)) for s in images]
                want = coder.codes(rows).tolist()
                assert [coder.code_of_ages(row) for row in ages] == want == [encode_code(s, t_cut) for s in images]
            for code, s in zip(codes.tolist(), states):
                state = coder.state(code, s.intermediate)
                assert all(type(l) is Link for l in state.links) and state.links == tuple(sorted(state.links))
                assert state == s and hash(state) == hash(s)

    @pytest.mark.parametrize(
        "links",
        [
            [(2, 3, 0), (2, 4, 0)],  # two links out of node 2: digits 1 + 3 = (2, 4) at age 1
            [(2, 4, 2)],  # past t_cut: carries into (3, 4) at age 0
            [(1, 4, 2)],  # an end-to-end link past t_cut
        ],
    )
    def test_code_of_ages_refuses_a_row_no_state_holds(self, links):
        assert StateCodes(4, 1).code_of_ages(encode_state(mk(4, links, intermediate=True))) is None


@st.composite
def age_rows(draw):
    """``(n, t_cut, row)``: an age row of a 3- to 9-node chain, ages -1 .. ``t_cut + 1``.

    Every pair may hold a link, every pair does, or each left end starts at
    most one link, so rows with and without a code are both drawn often.
    """
    n, t_cut = draw(st.integers(3, 9)), draw(st.integers(1, 3))
    pairs = list(combinations(range(1, n + 1), 2))
    kind = draw(st.sampled_from(["any", "full", "one per left end"]))
    if kind == "one per left end":
        right = {l: draw(st.integers(l, n)) for l in range(1, n)}  # l itself: no link
        return n, t_cut, [draw(st.integers(0, t_cut + 1)) if right[l] == r else -1 for l, r in pairs]
    ages = st.integers(0 if kind == "full" else -1, t_cut + 1)
    return n, t_cut, draw(st.lists(ages, min_size=len(pairs), max_size=len(pairs)))


@given(age_rows())
@settings(max_examples=500, deadline=None)
def test_code_of_ages_reads_every_row_a_code_holds_as_the_oracle_encodes_it(drawn):
    n, t_cut, row = drawn
    held = [(l, r, age) for (l, r), age in zip(combinations(range(1, n + 1), 2), row) if age >= 0]
    lefts = [l for l, _, _ in held]
    code = CodeLayout(n, t_cut).code_of_ages(row)
    if max(row) > t_cut or len(set(lefts)) < len(lefts):
        assert code is None
    else:
        assert code == encode_code(mk(n, held), t_cut)


class TestValidation:
    def test_random_walk_states_are_valid(self):
        for seed in range(10):
            boundary, inter = random_walk(seed, n=6, t_cut=3)
            for s in boundary:
                check_state(s, 3)
            for r in inter:
                check_state(r, 3)

    def test_rejects_shared_qubit(self):
        with pytest.raises(InvalidStateError):
            check_state(mk(4, [(1, 3, 0), (2, 3, 0)]))

    def test_rejects_partial_overlap(self):
        with pytest.raises(InvalidStateError):
            check_state(ChainState(n=5, links=(Link(1, 3, 0), Link(2, 4, 0))))

    def test_nested_links_are_valid(self):
        check_state(mk(5, [(2, 5, 1), (3, 4, 0)]))

    def test_age_bounds(self):
        with pytest.raises(InvalidStateError):
            check_state(mk(3, [(1, 2, 1)]), t_cut=1)
        check_state(mk(3, [(1, 2, 1)], intermediate=True), t_cut=1)
        check_state(mk(3, [(1, 3, 1)]), t_cut=1)

    @pytest.mark.parametrize(
        "state,t_cut,message",
        [
            (mk(4, [(3, 5, 0)]), None, "link Link(left=3, right=5, age=0) out of range for n=4"),
            (mk(4, [(1, 2, -1)]), None, "link Link(left=1, right=2, age=-1) has negative age"),
            (
                mk(5, [(2, 3, 0), (2, 4, 0)]),
                None,
                "per-qubit exclusivity violated in (Link(left=2, right=3, age=0), Link(left=2, right=4, age=0))",
            ),
            (
                mk(4, [(1, 3, 0), (2, 3, 0)]),
                None,
                "per-qubit exclusivity violated in (Link(left=1, right=3, age=0), Link(left=2, right=3, age=0))",
            ),
            (
                mk(5, [(1, 3, 0), (2, 4, 0)]),
                None,
                "links Link(left=1, right=3, age=0) and Link(left=2, right=4, age=0) partially overlap",
            ),
            (mk(4, [(1, 2, 2)]), 2, "link Link(left=1, right=2, age=2) exceeds age bound 1 for this slot phase"),
            # Of two faults, the first check that finds one names it.
            (mk(5, [(1, 2, -1), (3, 6, 0)]), None, "link Link(left=1, right=2, age=-1) has negative age"),
        ],
        ids=["out-of-range", "negative-age", "two-out", "two-into", "partial-overlap", "age-bound", "first-fault"],
    )
    def test_messages(self, state, t_cut, message):
        with pytest.raises(InvalidStateError) as raised:
            check_state(state, t_cut)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "links",
        [
            [(2, 5, 1), (3, 4, 0)],  # nested
            [(1, 3, 0), (3, 5, 1)],  # touching
            [(1, 5, 0), (2, 3, 1), (3, 4, 0)],  # touching links nested in a third
            [(1, 5, 9)],  # end-to-end, past the bound
        ],
    )
    def test_valid_layouts_pass(self, links):
        check_state(mk(5, links), t_cut=2)


def _check_state_one_by_one(state, t_cut=None):
    """``check_state`` without its one-scan pass: every check, in order."""
    n = state.n
    for l in state.links:
        if not 1 <= l.left < l.right <= n:
            raise InvalidStateError(f"link {l} out of range for n={n}")
        if l.age < 0:
            raise InvalidStateError(f"link {l} has negative age")
    lefts = [l.left for l in state.links]
    rights = [l.right for l in state.links]
    if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
        raise InvalidStateError(f"per-qubit exclusivity violated in {state.links}")
    for a, b in combinations(state.links, 2):
        lo, hi = (a, b) if a.left <= b.left else (b, a)
        if lo.left < hi.left < lo.right < hi.right:
            raise InvalidStateError(f"links {a} and {b} partially overlap")
    if t_cut is not None:
        limit = t_cut if state.intermediate else t_cut - 1
        for l in state.links:
            if not (l.left == 1 and l.right == n) and l.age > limit:
                raise InvalidStateError(f"link {l} exceeds age bound {limit} for this slot phase")


def _outcome(check, state, t_cut):
    try:
        check(state, t_cut)
    except InvalidStateError as error:
        return str(error)
    return None


def test_check_state_agrees_with_the_checks_one_by_one():
    """On random link sets, valid or not, the scan accepts exactly what every check accepts."""
    rng = np.random.default_rng(30)
    n, kinds = 6, set()
    faults = ("out of range", "negative age", "exclusivity", "partially overlap", "exceeds age bound")
    for _ in range(20_000):
        links = []
        for _ in range(rng.integers(0, 5)):
            left = int(rng.integers(0, n + 1))
            links.append((left, left + int(rng.integers(1, 4)), int(rng.integers(-1, 4))))
        state = mk(n, links, intermediate=bool(rng.integers(2)))
        t_cut = [None, 1, 2][rng.integers(3)]
        expected = _outcome(_check_state_one_by_one, state, t_cut)
        assert _outcome(check_state, state, t_cut) == expected, state
        kinds.add(expected and next(fault for fault in faults if fault in expected))
    # Valid link sets and every kind of fault were drawn.
    assert kinds == {None, *faults}


def test_code_checks_agree_with_check_state():
    """On random link sets a code can hold, reading the code accepts and rejects what ``check_state`` does.

    ``CodeLayout.read`` checks a layout's structure once, when its plan is
    built, and each state's ages from its digits; a refused state is named
    in ``check_state``'s words.
    """
    rng = np.random.default_rng(31)
    n, kinds = 6, set()
    faults = ("exclusivity", "partially overlap", "exceeds age bound")
    coders = {t_cut: CodeLayout(n, t_cut) for t_cut in (1, 2, 3)}

    def read(state, t_cut):
        coder = coders[t_cut]
        plan, ages = coder.read(encode_code(state, t_cut), state.intermediate)
        assert ages == [next((age for l, _, age in state.links if l == left), -1) for left in range(1, n)]
        assert plan.swappable == valid_swap_nodes(state)
        assert plan.absorbing == is_absorbing(state)

    for _ in range(20_000):
        t_cut = int(rng.integers(1, 4))
        # One link out of a node at most, in range, aged 0 .. t_cut: a code holds it.
        links = {}
        for _ in range(rng.integers(0, 5)):
            left = int(rng.integers(1, n))
            links[left] = (left, int(rng.integers(left + 1, n + 1)), int(rng.integers(0, t_cut + 1)))
        state = mk(n, list(links.values()), intermediate=bool(rng.integers(2)))
        expected = _outcome(check_state, state, t_cut)
        assert _outcome(read, state, t_cut) == expected, state
        kinds.add(expected and next(fault for fault in faults if fault in expected))
    # Valid link sets and every fault a code can hold were drawn.
    assert kinds == {None, *faults}
    # Most states met a layout whose plan (and structure check) was already built.
    assert sum(len(coder._plans) for coder in coders.values()) < 2_000


@pytest.mark.parametrize("code", [-1, 15, 10**30], ids=["negative", "past-the-last", "huge"])
def test_read_refuses_a_number_that_is_no_code(code):
    # n = 3, t_cut = 1: digit radices 5 and 3, so codes run 0 .. 14.
    with pytest.raises(InvalidStateError, match=f"{code} is no code of a valid n=3, t_cut=1 state"):
        CodeLayout(3, 1).read(code)


def test_the_package_holds_one_copy_of_the_slot_semantics():
    """The oracle's phase functions live in ``tests/chain_oracle.py`` alone.

    No module under ``src/`` defines or exports them again, or imports from
    ``tests/``, and the oracle takes nothing from ``repeaterchain.chain`` but
    the state values, so the tests check the package's code arithmetic
    against code it does not share.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    moved = {"state_from_links", "empty_state", "apply_generation", "resolve_swaps",
             "apply_cutoff", "mirror", "canonical", "encode_state",
             "age_links", "generation_pairs", "valid_swap_nodes", "action_space",
             "swap_runs", "is_absorbing", "decode_state"}
    test_modules = {"tests"} | {path.stem for path in (root / "tests").glob("*.py")}
    faults = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        path = path.relative_to(root)
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        faults += [f"{path}: defines or exports {name}" for name in sorted(names & moved)]
        for node in ast.walk(tree):
            roots = []
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [(node.module or "").split(".")[0]]
            faults += [f"{path}:{node.lineno}: imports {root} from tests/" for root in roots if root in test_modules]
    oracle = root / "tests" / "chain_oracle.py"
    shared = {"ChainState", "Link"}
    for node in ast.walk(ast.parse(oracle.read_text(), filename=str(oracle))):
        taken = []
        if isinstance(node, ast.Import):
            taken = [a.name for a in node.names if a.name.startswith("repeaterchain.chain")]
        elif isinstance(node, ast.ImportFrom) and node.module == "repeaterchain.chain":
            taken = [a.name for a in node.names if a.name not in shared]
        elif isinstance(node, ast.ImportFrom) and node.module == "repeaterchain":
            taken = [a.name for a in node.names if a.name == "chain"]
        faults += [f"tests/chain_oracle.py:{node.lineno}: imports {name} from repeaterchain.chain" for name in taken]
    assert not faults, "\n".join(faults)
