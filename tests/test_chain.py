from itertools import combinations

import numpy as np
import pytest

from repeaterchain.chain import (
    ChainParams,
    ChainState,
    InvalidStateError,
    Link,
    age_links,
    apply_cutoff,
    apply_generation,
    canonical,
    check_state,
    decode_state,
    empty_state,
    encode_state,
    generation_pairs,
    is_absorbing,
    mirror,
    mirror_action,
    resolve_swaps,
    state_from_links,
    swap_outcomes,
    swap_runs,
    valid_swap_nodes,
)
from repeaterchain.statespace import enumerate_states


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
        states = [*space.boundary_states, *space.intermediate_states]
        states += [decode_state(vec, n) for vec in space.raw_absorbing]
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


def run_grouped_distribution(r, action, t_cut, ps):
    """End-of-slot distribution from swap_outcomes' per-run survival masks."""
    sizes, outcomes = swap_outcomes(r, action, t_cut)
    grouped: dict = {}
    for mask, state in outcomes:
        prob = 1.0
        for b, k in enumerate(sizes):
            prob *= ps**k if mask >> b & 1 else 1 - ps**k
        grouped[state] = grouped.get(state, 0.0) + prob
    return grouped


def assert_same_distribution(r, action, t_cut):
    for ps in (0.3, 0.75):
        brute = per_node_distribution(r, action, t_cut, ps)
        grouped = run_grouped_distribution(r, action, t_cut, ps)
        assert set(brute) == set(grouped)
        for state, prob in brute.items():
            assert grouped[state] == pytest.approx(prob, abs=1e-12)
            # Outcomes skip the re-sort of the public constructor; their
            # link order must still be the sorted one.
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
        # Run structures are cached by link endpoints and action, without
        # ages: states sharing endpoints must still get their own ages, merged
        # maxima and cutoffs.  Here the untouched link (1, 2) and the merged
        # link (2, 4) fall on opposite sides of t_cut=2 in the two states, and
        # the end-to-end link of the full run stays whatever its age.
        t_cut = 2
        young = mk(5, [(1, 2, 0), (2, 3, 1), (3, 4, 0), (4, 5, 1)], intermediate=True)
        old = mk(5, [(1, 2, 2), (2, 3, 2), (3, 4, 0), (4, 5, 0)], intermediate=True)
        for action in ([3], [2, 3, 4], [2, 4]):
            assert_same_distribution(young, action, t_cut)
            assert_same_distribution(old, action, t_cut)
            assert swap_outcomes(young, action, t_cut)[1] != swap_outcomes(old, action, t_cut)[1]
        _, outcomes = swap_outcomes(old, [3], t_cut)
        assert [s.links for _, s in outcomes] == [
            (Link(4, 5, 0),),
            (Link(4, 5, 0),),
        ]
        _, outcomes = swap_outcomes(young, [3], t_cut)
        assert [s.links for _, s in outcomes] == [
            (Link(1, 2, 0), Link(4, 5, 1)),
            (Link(1, 2, 0), Link(2, 4, 1), Link(4, 5, 1)),
        ]
        assert swap_outcomes(young, [2, 3, 4], t_cut)[1][1][1].links == (Link(1, 5, 1),)
        assert swap_outcomes(old, [2, 3, 4], t_cut)[1][1][1].links == (Link(1, 5, 2),)


class TestEncoding:
    def test_age_vector_layout(self):
        assert encode_state(mk(3, [(1, 2, 1), (2, 3, 0)])) == (1, -1, 0)
        assert encode_state(empty_state(3)) == (-1, -1, -1)
        assert encode_state(mk(4, [(1, 4, 2)])) == (-1, -1, 2, -1, -1, -1)

    def test_round_trip(self):
        for seed in range(6):
            boundary, inter = random_walk(seed, n=5, t_cut=3)
            for s in boundary:
                assert decode_state(encode_state(s), 5) == s
            for r in inter:
                assert decode_state(encode_state(r), 5, intermediate=True) == r

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decode_state([0, -1], 3)


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
