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
same way; its arcs already carry the folded multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .statespace import StateSpace

__all__ = [
    "ChoiceTable",
    "TransitionModel",
]

@dataclass(frozen=True)
class ChoiceTable:
    """Flattened phase-B matrix with one row per (intermediate, action) pair.

    ``offsets[r] : offsets[r + 1]`` are the rows of intermediate state ``r``,
    in the action order of ``StateSpace.actions[r]``.
    """

    matrix: sp.csr_matrix
    offsets: np.ndarray


def _csr_row(matrix: sp.csr_matrix, row: int) -> dict[int, float]:
    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
    return dict(zip(matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist()))


class TransitionModel:
    """Sparse exact transition probabilities over an enumerated state space."""

    def __init__(self, space: StateSpace):
        self.space = space
        self.params = space.params
        self._mat_a: sp.csr_matrix | None = None
        self._choices: ChoiceTable | None = None

    @classmethod
    def build(cls, space: StateSpace) -> "TransitionModel":
        """Model over the arcs that enumeration recorded in ``space``."""
        return cls(space)

    def respecialized(self, p: float, p_s: float) -> "TransitionModel":
        """Same dynamics with different success probabilities.

        The structural arcs depend only on (n, t_cut) and are shared; only
        the numeric matrices are rebuilt.  Used by parameter sweeps.
        """
        return TransitionModel(self.space.respecialized(p, p_s))

    # -- per-state views of the matrices ------------------------------------------

    def phase_a(self, s_idx: int) -> dict[int, float]:
        """P_A(. | s): distribution over intermediate-state indices."""
        if s_idx == self.space.terminal_index:
            raise ValueError("the terminal state has no outgoing transitions")
        return _csr_row(self.phase_a_matrix(), s_idx)

    def phase_b(self, r_idx: int, action: Iterable[int]) -> dict[int, float]:
        """P_B(. | r, a): distribution over slot-boundary state indices."""
        action = frozenset(action)
        try:
            a_idx = self.space.actions[r_idx].index(action)
        except ValueError:
            raise ValueError(f"action {sorted(action)} invalid in intermediate state {r_idx}")
        choices = self.choice_table()
        return _csr_row(choices.matrix, int(choices.offsets[r_idx]) + a_idx)

    # -- matrix views --------------------------------------------------------------

    def phase_a_matrix(self) -> sp.csr_matrix:
        """P_A as a (boundary x intermediate) CSR matrix; terminal row is zero."""
        if self._mat_a is None:
            p = self.params.p
            rows, cols, data = [], [], []
            for s_idx, arcs in enumerate(self.space.a_arcs):
                for r_idx, k, m, mult in arcs:
                    prob = mult * p**k * (1.0 - p) ** m
                    if prob > 0.0:
                        rows.append(s_idx)
                        cols.append(r_idx)
                        data.append(prob)
            self._mat_a = sp.coo_matrix(
                (data, (rows, cols)),
                shape=(self.space.num_boundary, self.space.num_intermediate),
            ).tocsr()
        return self._mat_a

    def choice_table(self) -> ChoiceTable:
        """P_B for every (intermediate, action) pair as one stacked CSR matrix."""
        if self._choices is None:
            ps = self.params.p_s
            offsets = np.zeros(self.space.num_intermediate + 1, dtype=np.int64)
            rows, cols, data = [], [], []
            row = 0
            for r_idx, tables in enumerate(self.space.b_arcs):
                offsets[r_idx] = row
                for table in tables:
                    survive = [ps**k for k in table.run_sizes]
                    for mask, s_idx in table.outcomes:
                        prob = 1.0
                        for b, q in enumerate(survive):
                            prob *= q if mask >> b & 1 else 1.0 - q
                        if prob > 0.0:
                            rows.append(row)
                            cols.append(s_idx)
                            data.append(prob)
                    row += 1
            offsets[-1] = row
            matrix = sp.coo_matrix(
                (data, (rows, cols)), shape=(row, self.space.num_boundary)
            ).tocsr()
            self._choices = ChoiceTable(matrix=matrix, offsets=offsets)
        return self._choices

