"""Block-triangular policy evaluation against the whole-system LU it replaced.

``solver.evaluate_policy`` splits a policy's transition matrix into its
strongly connected components, factors the multi-state ones and solves every
other state by back-substitution.  :func:`whole_system_solve` is the earlier
evaluator, kept here only as a test oracle: one sparse LU of ``I - P`` over
every non-terminal state.  Where delivery times reach 1e4 the two are compared
by their residuals instead of their values: conditioning alone separates the
values there (by up to 3e-11 relative at (6,2, p = 0.1, p_s = 0.25)), while
both residuals stay at roundoff.
"""

import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from repeaterchain import solver
from repeaterchain.solver import ConvergenceError, Policy, evaluate_policy, policy_iteration, swap_asap_policy
from test_solver import acceptance_grid, build


def whole_system_solve(matrix, terminal):
    """Delivery times by one sparse LU of the whole non-terminal system.

    ``matrix`` is a policy's boundary-to-boundary transition matrix, as
    ``solver._block_triangular_solve`` takes it.
    """
    keep = np.arange(matrix.shape[0]) != terminal
    sub = matrix[keep][:, keep]
    system = sp.identity(sub.shape[0], format="csr") - sub
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            t_sub = spsolve(system.tocsc(), np.ones(sub.shape[0]))
        except MatrixRankWarning:
            raise ConvergenceError("linear system is singular") from None
    if not np.all(np.isfinite(t_sub)):
        raise ConvergenceError("non-finite delivery times")
    values = np.zeros(matrix.shape[0])
    values[keep] = t_sub
    return values


def transitions(model, rows):
    return (model.phase_a_matrix() @ model.choice_table()[rows]).tocsr()


def relative_residual(matrix, values, terminal):
    """``|x - P x - b| / |x|`` in the max norm, ``b`` one but zero at ``terminal``."""
    b = np.ones(len(values))
    b[terminal] = 0.0
    return np.max(np.abs(values - matrix @ values - b)) / np.max(np.abs(values))


def assert_matches_oracle(model, rows):
    values = evaluate_policy(model, Policy(rows)).values
    matrix, terminal = transitions(model, rows), model.space.terminal_index
    reference = whole_system_solve(matrix, terminal)
    if np.max(reference) < 1e4:
        assert np.max(np.abs(values - reference) / np.maximum(1.0, reference)) <= 1e-12
    else:
        assert relative_residual(matrix, values, terminal) <= 1e-14
        assert relative_residual(matrix, reference, terminal) <= 1e-14


def assert_policies_match_oracle(model):
    _, policy = policy_iteration(model)
    for rows in (swap_asap_policy(model.space).rows, policy.rows):
        assert_matches_oracle(model, rows)


def test_acceptance_grid_optimal_and_swap_asap():
    models = {}
    for n, t_cut, p, ps, fold in acceptance_grid():
        key = (n, t_cut, fold)
        if key not in models:
            models[key] = build(n, t_cut, p, ps, fold)[1]
        assert_policies_match_oracle(models[key].respecialized(p, ps))


@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize(
    "n,t_cut,p,ps", [(6, 3, 0.9, 0.5), (7, 2, 0.9, 0.5), (6, 2, 0.1, 0.25)]
)
def test_larger_and_ill_conditioned_models(n, t_cut, p, ps, fold):
    _, model = build(n, t_cut, p, ps, fold)
    assert_policies_match_oracle(model)


def test_policy_iteration_with_the_oracle_moves_no_policy_and_no_round_count(monkeypatch):
    models = {}
    for n, t_cut, p, ps, fold in acceptance_grid():
        key = (n, t_cut, fold)
        if key not in models:
            models[key] = build(n, t_cut, p, ps, fold)[1]
        table, policy = policy_iteration(models[key].respecialized(p, ps))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_block_triangular_solve", whole_system_solve)
            lu_table, lu_policy = policy_iteration(models[key].respecialized(p, ps))
        assert policy == lu_policy
        assert table.iterations == lu_table.iterations
        assert table.t0 == pytest.approx(lu_table.t0, rel=1e-12)


def multi_state_components(matrix):
    _, labels = connected_components(matrix, directed=True, connection="strong")
    return int(np.count_nonzero(np.bincount(labels) > 1))


def delivers_from_everywhere(matrix, terminal):
    reaching = breadth_first_order(matrix.T.tocsr(), terminal, return_predecessors=False)
    return len(reaching) == matrix.shape[0]


@pytest.mark.parametrize(
    "n,t_cut,p,ps,fold",
    [(4, 2, 1.0, 0.5, False), (4, 3, 1.0, 0.5, True), (5, 3, 0.3, 1.0, False),
     (5, 2, 0.9, 0.5, False), (4, 3, 0.9, 0.5, True)],
)
def test_random_policies(n, t_cut, p, ps, fold):
    """Proper policies agree with the oracle; improper ones raise.

    Some policies are pushed towards never swapping, which makes states that
    never deliver.  Where the oracle does not raise for those, its LU met a
    roundoff-sized pivot instead of an exact zero, and its values exceed 1e12
    in size.
    """
    space, model = build(n, t_cut, p, ps, fold)
    rng = np.random.default_rng(1)
    lo, hi = space.row_offsets[:-1], space.row_offsets[1:]
    improper = several_blocks = 0
    for _ in range(60):
        rows = lo + (rng.random(len(lo)) * (hi - lo)).astype(np.int64)
        rows = np.where(rng.random(len(lo)) < rng.random(), lo, rows)
        matrix = transitions(model, rows)
        if delivers_from_everywhere(matrix, space.terminal_index):
            several_blocks += multi_state_components(matrix) > 1
            assert_matches_oracle(model, rows)
            continue
        improper += 1
        with pytest.raises(ConvergenceError):
            evaluate_policy(model, Policy(rows))
        try:
            assert np.max(np.abs(whole_system_solve(matrix, space.terminal_index))) > 1e12
        except ConvergenceError:
            pass
    assert improper
    if p == 1.0 and not fold:
        assert several_blocks  # more than one multi-state block, factored together


def stub_model(matrix, terminal):
    """A model whose policy moves by ``matrix`` between its states (one row each)."""
    size = matrix.shape[0]
    to_self = sp.diags(np.where(np.arange(size) == terminal, 0.0, 1.0), format="csr")
    return SimpleNamespace(
        space=SimpleNamespace(terminal_index=terminal, num_intermediate=size),
        phase_a_matrix=lambda: to_self,
        choice_table=lambda: sp.csr_matrix(matrix),
        evaluated={},
    )


def solve_stub(entries, size, terminal):
    rows, cols, probs = zip(*entries)
    matrix = sp.csr_matrix((probs, (rows, cols)), shape=(size, size))
    return evaluate_policy(stub_model(matrix, terminal), Policy(np.arange(size))).values


def test_stub_solves_like_the_closed_form():
    # 0 -> 1 with 1/2 or stay; 1 <-> 2 with 1/4 each way, 2 delivers with 1/2.
    entries = [(0, 0, 0.5), (0, 1, 0.5), (1, 1, 0.75), (1, 2, 0.25),
               (2, 1, 0.25), (2, 2, 0.25), (2, 3, 0.5)]
    values = solve_stub(entries, 4, terminal=3)
    # T2 = 1 + T1/4 + T2/4 and T1 = 1 + 3 T1/4 + T2/4, so T1 = 8; T0 = 2 + T1.
    assert values.tolist() == pytest.approx([10.0, 8.0, 4.0, 0.0], rel=1e-14)


@pytest.mark.parametrize("last", ["stays", "nan"])
def test_improper_single_state_fails_fast(last):
    # A path of many single states ends in a state that never leaves, or that
    # delivers with a NaN probability; sweeping once per component would take
    # minutes.
    size = 200_001
    path = [(i, i + 1, 1.0) for i in range(size - 2)]
    end = (size - 2, size - 2, 1.0) if last == "stays" else (size - 2, size - 1, np.nan)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        solve_stub(path + [end], size, terminal=size - 1)
    assert time.perf_counter() - start < 5.0


def test_closed_multi_state_block_raises():
    # 1 <-> 2 with certainty: the block is singular and never delivers.
    entries = [(0, 1, 0.5), (0, 3, 0.5), (1, 2, 1.0), (2, 1, 1.0)]
    with pytest.raises(ConvergenceError, match="never reaches delivery"):
        solve_stub(entries, 4, terminal=3)


def test_singular_multi_state_block_raises():
    # Entries leave the block, but I - P is singular on it: LU finds a zero pivot.
    entries = [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 0.5)]
    with pytest.raises(ConvergenceError, match="singular"):
        solve_stub(entries, 4, terminal=3)
