"""Exact two-phase transition probabilities of the chain Markov decision process.

Each time slot factorizes into two stochastic phases:

* phase A (no decision): ages increase, then every free neighbour pair
  generates a link independently with probability ``p``.  This maps a
  slot-boundary state to a distribution over intermediate states.
* phase B (decision): the chosen swaps are measured, each run surviving
  independently (a run with ``k`` swaps survives with probability
  ``p_s ** k``), then cutoffs are applied.  This maps an (intermediate
  state, action) pair to a distribution over slot-boundary states.

Enumeration records the arcs in the state space, with probabilities stored
structurally as success/failure exponents, so a model can be materialized
exactly for any ``(p, p_s)`` without re-walking the dynamics.  A model over
a folded space (mirror pairs enumerated as one representative) is built the
same way; its arcs already carry the folded multiplicities.  The arcs are
listed row by row, so both matrices are built in CSR form directly.

A model holds its space, and the space's ``params`` give the ``(p, p_s)``
the matrices are built at, so the solvers take the model alone.

scipy is imported at the first matrix build, so commands that build none
never load it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .statespace import StateSpace

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["TransitionModel"]


def _powers(base: float, exponents: np.ndarray) -> np.ndarray:
    """``base ** e`` for every exponent, looked up in a table of Python powers."""
    table = np.array([base**e for e in range(int(exponents.max(initial=0)) + 1)])
    return table[exponents]


def _csr(data: np.ndarray, indices: np.ndarray, offsets: np.ndarray, width: int) -> sp.csr_matrix:
    """CSR matrix of the entries ``offsets[i] : offsets[i + 1]`` in row ``i``.

    Drops zeros and sums repeated columns of a row; copies ``indices`` first.
    """
    import scipy.sparse as sp

    keep = data > 0.0
    if keep.all():
        indices = indices.copy()
    else:
        data, indices = data[keep], indices[keep]
        offsets = np.concatenate(([0], np.cumsum(keep)))[offsets]
    matrix = sp.csr_matrix((data, indices, offsets), shape=(len(offsets) - 1, width))
    matrix.sum_duplicates()
    return matrix


class TransitionModel:
    """Sparse exact transition probabilities over an enumerated state space."""

    def __init__(self, space: StateSpace):
        self.space = space
        self._mat_a: sp.csr_matrix | None = None
        self._choices: sp.csr_matrix | None = None
        #: Delivery times of the policies evaluated on this model, keyed by
        #: the bytes of their int64 choice rows; ``solver.evaluate_policy`` fills it.
        self.evaluated: dict[bytes, np.ndarray] = {}

    @classmethod
    def build(cls, space: StateSpace) -> "TransitionModel":
        """Model over the arcs that enumeration recorded in ``space``."""
        return cls(space)

    def respecialized(self, p: float, p_s: float) -> "TransitionModel":
        """Same dynamics with different success probabilities.

        The states and arcs depend only on (n, t_cut), so the copy's space
        shares their read-only arrays with this one.  P_A depends on ``p``
        alone and the choice table on ``p_s`` alone: the copy shares this
        model's built P_A when ``p`` is unchanged and its built choice table
        when ``p_s`` is unchanged, and builds any other when first asked.
        Shared matrices are the same objects, so neither model may modify
        them.  ``evaluated`` depends on both and starts empty.  Parameter
        sweeps respecialize each point from the one before, taking a
        structure's points p_s-major, so they build the choice table once
        per ``p_s`` of a structure's grid.
        """
        old = self.space.params
        model = TransitionModel(replace(self.space, params=replace(old, p=p, p_s=p_s)))
        new = model.space.params
        if new.p == old.p:
            model._mat_a = self._mat_a
        if new.p_s == old.p_s:
            model._choices = self._choices
        return model

    def phase_a_matrix(self) -> sp.csr_matrix:
        """P_A as a (boundary x intermediate) CSR matrix; terminal row is zero."""
        if self._mat_a is None:
            space, p = self.space, self.space.params.p
            # Multiplied in the order mult * p**k * (1-p)**m.
            data = _powers(p, space.gen_successes)
            if space.gen_mult is not None:
                data = space.gen_mult * data
            data = data * _powers(1.0 - p, space.gen_failures)
            self._mat_a = _csr(
                data, np.arange(space.num_intermediate), space.child_offsets, space.num_intermediate
            )
        return self._mat_a

    def choice_table(self) -> sp.csr_matrix:
        """P_B for every (intermediate, action) pair as one stacked CSR matrix.

        Rows ``space.row_offsets[r] : space.row_offsets[r + 1]`` belong to
        intermediate state ``r``, in the action order of ``space.actions[r]``.
        """
        if self._choices is None:
            space, ps = self.space, self.space.params.p_s
            # The probability of each survival mask of each run shape, as a
            # left-to-right product over the runs.
            probs: list[float] = []
            starts = []
            for sizes in space.run_shapes:
                starts.append(len(probs))
                survive = [ps**k for k in sizes]
                for mask in range(1 << len(sizes)):
                    prob = 1.0
                    for b, q in enumerate(survive):
                        prob *= q if mask >> b & 1 else 1.0 - q
                    probs.append(prob)
            # Row j's outcomes follow row j - 1's, one per survival mask:
            # outcome i has mask i - offsets[j].  Large temporaries are dropped.
            counts = np.array([1 << len(sizes) for sizes in space.run_shapes])[space.row_shape]
            offsets = np.concatenate(([0], np.cumsum(counts)))
            index = np.repeat(np.array(starts, dtype=np.int64)[space.row_shape] - offsets[:-1], counts)
            index += np.arange(offsets[-1])
            data = np.array(probs)[index]
            del index
            self._choices = _csr(data, space.outcome_targets, offsets, space.num_boundary)
        return self._choices
