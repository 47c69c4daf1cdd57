import hashlib

import numpy as np
import pytest

from chain_oracle import act, boundary_states, encode_code, intermediate_states, valid_swap_nodes
from repeaterchain import chain, sim
from repeaterchain.chain import ChainParams, ChainState, CodeLayout, StateCodes
from repeaterchain.mdp import TransitionModel
from repeaterchain.sim import (
    CHUNK,
    SimConfig,
    TrajectoryError,
    _chunk_rng,
    _delivery_times,
    _pack,
    _run_chunk,
    _Tables,
    estimate,
)
from repeaterchain.solver import baseline_rule, evaluate_policy, policy_iteration, swap_asap_policy
from repeaterchain.statespace import enumerate_states


def setup(n, t_cut, p, p_s):
    params = ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut)
    space = enumerate_states(params)
    return params, space


class TestRunTrial:
    """Single trajectories, observed through the delivery times of a batch."""

    def test_deterministic_chain_delivers_first_slot(self):
        params, space = setup(3, 1, 1.0, 1.0)
        pmap = swap_asap_policy(space).state_map(space)
        result = estimate(params, pmap, SimConfig(trials=10, master_seed=42))
        assert result.histogram == {1: 10}

    def test_six_node_single_run_succeeds_deterministically(self):
        params, space = setup(6, 1, 1.0, 1.0)
        pmap = swap_asap_policy(space).state_map(space)
        result = estimate(params, pmap, SimConfig(trials=10, master_seed=7))
        assert result.histogram == {1: 10}

    def test_same_seed_same_sample(self):
        params, space = setup(3, 1, 0.5, 0.5)
        pmap = swap_asap_policy(space).state_map(space)
        a = _delivery_times(params, pmap, SimConfig(trials=200, master_seed=123))
        b = _delivery_times(params, pmap, SimConfig(trials=200, master_seed=123))
        c = _delivery_times(params, pmap, SimConfig(trials=200, master_seed=124))
        assert (a == b).all()
        assert not (a == c).all()

    def test_rng_streams_differ_across_trials(self):
        r0 = _chunk_rng(5, 0).random(8)
        r1 = _chunk_rng(5, 1).random(8)
        assert not (r0 == r1).all()
        params, space = setup(3, 1, 0.5, 0.5)
        pmap = swap_asap_policy(space).state_map(space)
        times = _delivery_times(params, pmap, SimConfig(trials=100, master_seed=5))
        assert len(set(times.tolist())) > 1

    def test_unlisted_state_raises(self):
        params, space = setup(3, 1, 0.5, 0.5)
        # Policies take codes: the empty intermediate state's is 0.
        only_empty = {0: frozenset()}
        with pytest.raises(TrajectoryError, match="outside the policy domain"):
            estimate(
                params, lambda code, swappable: only_empty[code], SimConfig(trials=10, master_seed=1, max_slots=100)
            )

    def test_an_action_at_a_node_that_cannot_swap_raises(self):
        params = ChainParams(4, 0.9, 0.5, 2)
        with pytest.raises(ValueError, match=r"^node 2 does not hold two links; cannot swap$"):
            estimate(params, lambda code, swappable: frozenset({2}), SimConfig(50, 1))
        # Of several such nodes, the error names the smallest.
        taken = []

        def policy(code, swappable):
            unable = frozenset({2, 3, 4}) - swappable
            taken.append(unable if len(unable) > 1 else frozenset())
            return taken[-1]

        with pytest.raises(ValueError, match="does not hold two links; cannot swap") as raised:
            estimate(ChainParams(5, 0.5, 0.5, 2), policy, SimConfig(50, 1))
        assert str(raised.value) == f"node {min(taken[-1])} does not hold two links; cannot swap"

    def test_chain_past_int64_codes_simulates(self):
        # The tables' codes are Python ints, so a chain the walk refuses still simulates.
        with pytest.raises(ValueError, match="64 bits"):
            StateCodes(13, 7)
        params = ChainParams(n=13, p=0.9, p_s=0.9, t_cut=7)
        result = estimate(params, baseline_rule(13), SimConfig(trials=50, master_seed=1))
        assert sum(result.histogram.values()) == 50

    def test_slot_cap_raises(self):
        params, space = setup(3, 1, 0.5, 0.5)
        never = {encode_code(r, 1): frozenset() for r in intermediate_states(space)}
        with pytest.raises(TrajectoryError, match="no delivery within 50 slots"):
            estimate(params, lambda code, swappable: never[code], SimConfig(trials=10, master_seed=1, max_slots=50))

    def test_chunk_times_do_not_depend_on_trial_count(self):
        params, space = setup(4, 2, 0.6, 0.5)
        pmap = swap_asap_policy(space).state_map(space)
        one = _delivery_times(params, pmap, SimConfig(trials=CHUNK, master_seed=17))
        three = _delivery_times(params, pmap, SimConfig(trials=3 * CHUNK, master_seed=17))
        assert (three[:CHUNK] == one).all()
        assert not (three[CHUNK : 2 * CHUNK] == one).all()


class TestEstimate:
    def test_matches_exact_value_quickly(self):
        params, space = setup(3, 1, 0.5, 0.5)
        model = TransitionModel.build(space)
        policy = swap_asap_policy(space)
        exact = evaluate_policy(model, policy).t0
        result = estimate(params, policy.state_map(space), SimConfig(trials=20_000, master_seed=9))
        assert abs(result.mean - exact) <= 4 * result.stderr

    def test_histogram_accounts_for_every_trial(self):
        params, space = setup(4, 2, 0.6, 0.5)
        policy = swap_asap_policy(space)
        result = estimate(params, policy.state_map(space), SimConfig(trials=2_000, master_seed=3))
        assert sum(result.histogram.values()) == 2_000
        assert min(result.histogram) >= 1
        assert result.master_seed == 3

    def test_reproducible(self):
        params, space = setup(3, 2, 0.7, 0.5)
        policy = swap_asap_policy(space)
        cfg = SimConfig(trials=500, master_seed=11)
        a = estimate(params, policy.state_map(space), cfg)
        b = estimate(params, policy.state_map(space), cfg)
        assert a == b

    def test_optimal_policy_also_simulates(self):
        params, space = setup(4, 2, 0.9, 0.5)
        model = TransitionModel.build(space)
        table, policy = policy_iteration(model)
        result = estimate(
            params,
            policy.state_map(space),
            SimConfig(trials=20_000, master_seed=21),
        )
        assert abs(result.mean - table.t0) <= 4 * result.stderr

    def test_validate_mode(self, monkeypatch):
        """Every state a trajectory reaches passes both checks once, when it is first interned.

        A slot-boundary state's ages are checked when its code is read
        (an intermediate state's follow from its parent's), and the
        structure of each layout when its plan is built.
        """
        params, space = setup(3, 2, 0.8, 0.8)
        lookup = swap_asap_policy(space).state_map(space)
        read, asked, checked = [], [], []
        real_read, real_check = CodeLayout.read, chain.check_state

        def spy_read(coder, code, intermediate=False):
            read.append((code, intermediate))
            return real_read(coder, code, intermediate)

        def spy_check(state, t_cut=None):
            checked.append(state)
            real_check(state, t_cut)

        def policy(code, swappable):
            asked.append(code)
            return lookup(code, swappable)

        monkeypatch.setattr(CodeLayout, "read", spy_read)
        monkeypatch.setattr(chain, "check_state", spy_check)
        result = estimate(params, policy, SimConfig(trials=200, master_seed=5))
        assert result.trials == 200
        coder = CodeLayout(3, 2)
        assert not any(intermediate for _, intermediate in read)
        boundary = [coder.state(code) for code, _ in read]
        intermediate = [coder.state(code, True) for code in asked]
        for states in (boundary, intermediate, checked):
            assert len(states) == len(set(states))
        for state in boundary + intermediate:
            real_check(state, 2)
        assert set(intermediate) <= set(intermediate_states(space))
        assert len(boundary) > 1
        # The layouts checked are those of the states reached.
        layouts = {ChainState(3, tuple(link._replace(age=0) for link in s.links)) for s in boundary + intermediate}
        assert set(checked) == layouts

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(trials=10, max_slots=0)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("trials", 2.5),
            ("trials", True),
            ("trials", "10"),
            ("master_seed", 1.9),  # would be truncated into seed 1's stream
            ("master_seed", np.float64(1.0)),
            ("master_seed", False),
            ("max_slots", True),
            ("max_slots", 100.0),
        ],
    )
    def test_config_refuses_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(**{"trials": 10, name: value})

    def test_config_keeps_numpy_integers_as_python_ints(self):
        config = SimConfig(trials=np.int64(10), master_seed=np.uint64(2**64 - 1), max_slots=np.int32(50))
        assert config == SimConfig(trials=10, master_seed=2**64 - 1, max_slots=50)
        assert all(type(v) is int for v in (config.trials, config.master_seed, config.max_slots))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_is_refused(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            SimConfig(trials=10, master_seed=seed)

    def test_largest_seed_runs(self):
        params, space = setup(3, 1, 0.5, 0.5)
        pmap = swap_asap_policy(space).state_map(space)
        result = estimate(params, pmap, SimConfig(trials=10, master_seed=2**64 - 1))
        assert result.master_seed == 2**64 - 1


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_pack_matches_a_column_loop(k):
    rng = np.random.default_rng(k)
    for m in (1, 7, 300):
        bits = rng.random((m, k)) < 0.5
        expected = [sum(int(b) << j for j, b in enumerate(row)) for row in bits.tolist()]
        masks = _pack(bits)
        assert masks.dtype == np.int64
        assert masks.tolist() == expected

def _digest(times: np.ndarray) -> str:
    return hashlib.sha256(times.tobytes()).hexdigest()


def _swap_asap(n, t_cut, p, p_s):
    params, space = setup(n, t_cut, p, p_s)
    return params, swap_asap_policy(space).state_map(space)


def _folded_optimal(n, t_cut, p, p_s):
    params = ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut)
    space = enumerate_states(params, fold=True)
    _, policy = policy_iteration(TransitionModel.build(space))
    return params, policy.state_map(space)


# sha256 of the int64 delivery times, recorded before the simulator drew
# each slot's generation and swap bits in one call: a change of the random
# stream, of the slot dynamics or of the chunking shows here.
STREAM_PINS = [
    (_swap_asap, (5, 4, 0.3, 0.5), 2500, 11,
     "4ce5b5e5f47fbc0579e9c374e4ac4f6843c0c9f168cdfe6a6c0cf332666d0485"),
    (_swap_asap, (3, 1, 0.5, 0.5), 1000, 5,  # a single swapping node
     "c60287623510c00400b7dae93e5b579f98e1dbff170e5bf46da1183e956d3935"),
    (_folded_optimal, (5, 2, 0.9, 0.5), 3000, 2,
     "54e32bc67356a100065bb50332d7404c432940bda6d138fdc869de04838884e1"),
    (_swap_asap, (4, 2, 0.6, 0.5), CHUNK + 37, 17,  # a short last chunk
     "506945e0ed5e382f78bc930d8fd1b77c17a07124165c82af7fb6841c9ef5ca92"),
]


@pytest.mark.parametrize(
    "policy,point,trials,seed,expected",
    STREAM_PINS,
    ids=["swap-asap-5-4", "swap-asap-3-1", "optimal-folded-5-2", "chunk-plus-37"],
)
def test_delivery_times_are_pinned(policy, point, trials, seed, expected):
    params, policy_map = policy(*point)
    times = _delivery_times(params, policy_map, SimConfig(trials=trials, master_seed=seed))
    assert _digest(times) == expected


# Baselines past five nodes: actions of several runs, a withheld-middle
# baseline, a chain whose codes pass int64, which the walk refuses, and a
# 16-node chain whose dense table rows are large (mean delivery time
# 2920.4 slots).  sha256 of the delivery times, the first three recorded
# while each state still worked out its own slot terms, before the tables
# shared them through slot plans, the last while every table row was dense.
WIDE_PINS = [
    ((9, 2, 0.9, 0.5), (), 2000, 9, "b34da78a5370d78f0ca9cb11a6af1588158f3be586f8e26d415fb3216552c07b"),
    ((9, 2, 0.9, 0.5), (5,), 2000, 9, "4209dd044b5d7b3c1ae0f3b8ca3110b96b3b50105dcb21b58229db5b76028b5e"),
    ((13, 7, 0.9, 0.9), (), 50, 1, "bf0f12435db08fa36c9fb4e9c41f4b00893f803c5bc104c5be38189a0905370d"),
    ((16, 3, 0.9, 0.5), (), 5, 7, "17241b98d9f50753a8fdbb0fd7374c973e6c2e22b63b09783908c37b7f0ba7c3"),
]


@pytest.mark.parametrize(
    "point,withheld,trials,seed,expected",
    WIDE_PINS,
    ids=["swap-asap-9-2", "modified-5-9-2", "swap-asap-13-7", "swap-asap-16-3"],
)
def test_baseline_delivery_times_past_five_nodes_are_pinned(point, withheld, trials, seed, expected):
    n, t_cut, p, p_s = point
    params = ChainParams(n=n, p=p, p_s=p_s, t_cut=t_cut)
    times = _delivery_times(params, baseline_rule(n, withheld), SimConfig(trials=trials, master_seed=seed))
    assert _digest(times) == expected


def test_states_of_one_layout_share_a_slot_plan():
    """Plans belong to one set of tables: they are built as its states need them and shared by layout."""
    params = ChainParams(n=5, p=0.3, p_s=0.5, t_cut=4)
    tables = _Tables(params, baseline_rule(5))
    plans = tables.coder._plans
    # Fresh tables hold the empty state's plan alone, whatever ran before.
    assert list(plans) == [0] and not plans[0].swaps
    states = np.zeros(2500, dtype=np.int64)
    rng = _chunk_rng(11, 0)
    while not tables.absorbing[states].all():
        states = states[~tables.absorbing[states]]
        uniforms = rng.random((states.size, 7))
        states = tables.step(states, uniforms[:, :4] < params.p, uniforms[:, 4:] < params.p_s)
    boundary = len(tables.aged) - int(tables.absorbing.sum())
    generating = {
        tables.coder.read(code)[0].layout for code, b in tables.boundary_index.items() if not tables.absorbing[b]
    }
    assert 0 < len(generating) < boundary / 4
    assert 0 < sum(len(plan.swaps) for plan in plans.values()) < len(tables.intermediate) / 4


def test_a_baseline_takes_its_nodes_from_the_tables_plans(monkeypatch):
    """A baseline reads no intermediate code: its nodes are the swappable set of the plan the tables hold."""
    params = ChainParams(n=5, p=0.3, p_s=0.5, t_cut=4)
    reads, asked = [], []
    real_read, rule = CodeLayout.read, baseline_rule(5, {3})

    def spy_read(coder, code, intermediate=False):
        reads.append(intermediate)
        return real_read(coder, code, intermediate)

    def policy(code, swappable):
        asked.append((code, swappable))
        return rule(code, swappable)

    monkeypatch.setattr(CodeLayout, "read", spy_read)
    tables = _Tables(params, policy)
    _run_chunk(tables, 500, sim._bernoulli_draws(params, _chunk_rng(5, 0).bit_generator.random_raw), 1000)
    assert reads and not any(reads)
    for code, swappable in asked:
        state = tables.coder.state(code, True)
        assert swappable == valid_swap_nodes(state)
        assert rule(code, swappable) == act(rule, state, params.t_cut)
    assert len(asked) == len(tables.intermediate) > 100


def test_the_simulator_never_lists_every_action_of_a_layout(monkeypatch):
    """The simulator plans the actions its trials take, one at a time, never all of a layout's, as the walk does."""
    params = ChainParams(n=6, p=0.9, p_s=0.5, t_cut=2)
    space = enumerate_states(params, fold=True)
    _, optimal = policy_iteration(TransitionModel.build(space))
    policies = [baseline_rule(6), optimal.state_map(space)]
    config = SimConfig(trials=2_000, master_seed=4)
    expected = [estimate(params, policy, config) for policy in policies]

    def refuse(*args):
        raise AssertionError("the simulator listed every action of a link layout")

    monkeypatch.setattr(chain, "_action_runs", refuse)
    monkeypatch.setattr(chain, "_swap_template", refuse)
    assert [estimate(params, policy, config) for policy in policies] == expected


@pytest.mark.parametrize("n,t_cut", [(4, 2), (5, 3), (6, 2)])
def test_intermediate_states_follow_from_their_parent(n, t_cut):
    """The layout and ages the tables derive for an intermediate state are those its code's digits hold."""
    params = ChainParams(n=n, p=0.5, p_s=0.5, t_cut=t_cut)
    tables = _Tables(params, baseline_rule(n))
    coder = CodeLayout(n, t_cut)
    children = 0
    for s in boundary_states(enumerate_states(params)):
        derived = tables.aged[tables._boundary_id(encode_code(s, t_cut))]
        if derived is None:
            continue
        aged, layout, fresh, ages = derived
        for mask in range(1 << len(fresh)):
            added = sum(term for k, term in enumerate(fresh) if mask >> k & 1)
            plan, held = coder.read(aged + added, True)
            assert plan.layout == layout + added
            assert [age for age, h in zip(ages, held) if h >= 0] == [h for h in held if h >= 0]
            children += 1
    assert children > 50


def _float_draws(params, rng, m):
    """A slot's generation and swap bits as the simulator once drew them: ``random() < q``."""
    pairs, nodes = params.n - 1, params.n - 2
    uniforms = rng.random(m * (pairs + nodes))
    return uniforms[: m * pairs].reshape(m, pairs) < params.p, uniforms[m * pairs :].reshape(m, nodes) < params.p_s


def _float_success(word: int, q: float) -> bool:
    """``Generator.random() < q`` for a Philox generator whose next raw word is ``word``."""
    return (word >> 11) * 2.0**-53 < q


_K = 3_000_001
DRAW_PROBABILITIES = [
    1.0,
    2.0**-53,
    0.5,
    _K * 2.0**-53,
    float(np.nextafter(_K * 2.0**-53, 1.0)),
    float(np.nextafter(_K * 2.0**-53, 0.0)),
    0.3,
    0.9,
]


@pytest.mark.parametrize("q", DRAW_PROBABILITIES)
def test_raw_word_draws_decide_as_float_draws(q):
    """On one stream, the simulator's raw-word outcomes are the float draws' ``random() < q``."""
    params = ChainParams(n=5, p=q, p_s=0.9 if q == 0.3 else q, t_cut=2)
    draw = sim._bernoulli_draws(params, _chunk_rng(11, 2).bit_generator.random_raw)
    floats = _chunk_rng(11, 2)
    for slot, m in enumerate((1, 7, 300, CHUNK, 2), start=1):
        for got, want in zip(draw(slot, np.arange(m)), _float_draws(params, floats, m)):
            assert got.dtype == bool and (got == want).all()


@pytest.mark.parametrize("q", DRAW_PROBABILITIES)
def test_raw_word_limit_decides_its_edge_words(q):
    """A random stream all but never draws the words next to a limit, so they are fed in directly."""
    limit = int(sim._word_limit(q))
    assert (limit >> 11) * 2.0**-53 < q
    if limit + 1 < 2**64:
        assert ((limit + 1) >> 11) * 2.0**-53 >= q
    edges = [w for w in (limit - 1, limit, limit + 1, 0, 2**64 - 1) if 0 <= w < 2**64]
    params = ChainParams(n=3, p=q, p_s=q, t_cut=1)
    # Two pairs and one node: each live trial takes three words, and the
    # generation bits take the first two thirds of a slot's words.
    words = np.array(edges * 3, dtype=np.uint64)
    draw = sim._bernoulli_draws(params, lambda k: words[:k])
    gen, swap = draw(1, np.arange(len(edges)))
    decided = np.concatenate((gen.ravel(), swap.ravel())).tolist()
    assert decided == [_float_success(w, q) for w in words.tolist()]


def refuse_slot_growth(monkeypatch, error):
    """Make every growth of a table's slot array fail with ``error``, as an allocation too large would."""
    grown = sim._grown

    def refuse(array, size, fill):
        if fill == -1 and size > array.size:
            raise error
        return grown(array, size, fill)

    monkeypatch.setattr(sim, "_grown", refuse)


@pytest.mark.parametrize(
    "error",
    [MemoryError("Unable to allocate 2.00 GiB"), ValueError("array is too big; `arr.size * arr.dtype.itemsize` ...")],
)
def test_slots_that_cannot_be_allocated_name_the_chain_and_the_slots(monkeypatch, error):
    table = sim._Table(24)
    table.add_row(3)  # fits the initial slot array
    refuse_slot_growth(monkeypatch, error)
    with pytest.raises(ValueError, match=r"^n=24 is too wide to simulate: .* 1,048,584 slots ") as raised:
        table.add_row(20)
    assert raised.value.__cause__ is None and raised.value.__suppress_context__
    assert (table.num_rows, table.size) == (1, 8)


def refuse_trial_times(monkeypatch, trials, error):
    """Make the allocation of ``trials`` delivery times fail with ``error``, as a count too large would."""
    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if shape == trials:
            raise error
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(sim.np, "empty", refuse)


@pytest.mark.parametrize(
    "error",
    [MemoryError("Unable to allocate 7.28 TiB"), ValueError("array is too big; `arr.size * arr.dtype.itemsize` ...")],
)
def test_trial_times_that_cannot_be_allocated_name_the_trial_count(monkeypatch, error):
    refuse_trial_times(monkeypatch, 4321, error)
    params = ChainParams(n=4, p=0.5, p_s=0.5, t_cut=2)
    with pytest.raises(ValueError, match=r"^trials=4321 is too many to simulate: .* 4,321 slots of 8 bytes") as raised:
        _delivery_times(params, baseline_rule(4), SimConfig(trials=4321, master_seed=1))
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


def test_too_wide_a_chain_is_refused_before_any_table_is_allocated(monkeypatch):
    def allocate(self):
        raise AssertionError("a table was allocated")

    monkeypatch.setattr(sim._Table, "__init__", allocate)
    assert sim.MAX_NODES == sim._BIT_VALUES.size + 1
    params = ChainParams(n=sim.MAX_NODES + 1, p=0.9, p_s=0.5, t_cut=2)
    with pytest.raises(ValueError, match=rf"^n={sim.MAX_NODES + 1} is too wide .* at most n={sim.MAX_NODES} nodes "):
        _Tables(params, baseline_rule(params.n))
