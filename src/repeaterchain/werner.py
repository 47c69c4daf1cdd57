"""Scalar fidelity algebra for Werner-form entangled pairs.

A Werner pair is fully described by its fidelity ``F`` with respect to a
maximally entangled state, with ``F`` in ``[1/4, 1]`` and ``F = 1/4`` the
maximally mixed point.  Storage decay and entanglement swapping both stay
inside this family, so everything here is closed-form scalar arithmetic.
The multiplicative parametrization ``x = (4F - 1) / 3`` turns swap
composition into a plain product and is used internally where it is the
simpler route.

These functions feed the chain model only through the cutoff budget: the
Markov model tracks link ages, and :func:`max_cutoff` translates a fidelity
requirement into the maximum storage age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MIN_FIDELITY",
    "FidelityParams",
    "InfeasibleCutoffError",
    "chain_swap_fidelity",
    "decay_fidelity",
    "fidelity_to_werner",
    "max_cutoff",
    "swap_fidelity",
    "werner_to_fidelity",
    "worst_case_fidelity",
]

#: Fidelity of the maximally mixed two-qubit state; the fixed point of decay.
MIN_FIDELITY = 0.25


class InfeasibleCutoffError(ValueError):
    """No nonnegative storage time can meet the requested end-to-end fidelity."""


def _check_fidelity(f: float, name: str = "fidelity") -> float:
    f = float(f)
    if not MIN_FIDELITY <= f <= 1.0:
        raise ValueError(f"{name} must lie in [1/4, 1], got {f!r}")
    return f


@dataclass(frozen=True)
class FidelityParams:
    """Fidelity budget of a chain: fresh links, application threshold, decay time.

    Attributes
    ----------
    f_new:
        Fidelity of a newly generated elementary link, in (1/4, 1].
    f_min:
        Minimum acceptable end-to-end fidelity, in (1/4, 1].
    tau:
        Memory decay constant, in the same time units as the storage
        intervals passed to :func:`decay_fidelity`.  Must be positive and
        finite.
    """

    f_new: float
    f_min: float
    tau: float

    def __post_init__(self) -> None:
        if not MIN_FIDELITY < self.f_new <= 1.0:
            raise ValueError(f"f_new must lie in (1/4, 1], got {self.f_new!r}")
        if not MIN_FIDELITY < self.f_min <= 1.0:
            raise ValueError(f"f_min must lie in (1/4, 1], got {self.f_min!r}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")


def fidelity_to_werner(f: float) -> float:
    """Map a fidelity in [1/4, 1] to the multiplicative parameter x = (4F-1)/3."""
    return (4.0 * _check_fidelity(f) - 1.0) / 3.0


def werner_to_fidelity(x: float) -> float:
    """Inverse of :func:`fidelity_to_werner`: F = (3x+1)/4 for x in [0, 1]."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {x!r}")
    return (3.0 * x + 1.0) / 4.0


def decay_fidelity(f: float, dt: float, tau: float) -> float:
    """Fidelity after storing a Werner pair for a time ``dt``.

    The pair relaxes exponentially towards the maximally mixed point:
    ``1/4 + (f - 1/4) * exp(-dt / tau)``.  Storage times compose:
    decaying for ``a`` then ``b`` equals decaying for ``a + b``.

    Parameters
    ----------
    f:
        Fidelity at the start of the interval, in [1/4, 1].
    dt:
        Nonnegative storage time.
    tau:
        Positive decay constant, same units as ``dt``.
    """
    f = _check_fidelity(f)
    if dt < 0:
        raise ValueError(f"storage time must be nonnegative, got {dt!r}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    return MIN_FIDELITY + (f - MIN_FIDELITY) * math.exp(-dt / tau)


def swap_fidelity(f1: float, f2: float) -> float:
    """Fidelity of the pair produced by swapping two Werner pairs.

    Equals ``f1 * f2 + (1 - f1) * (1 - f2) / 3``; commutative, with 1 as
    identity and 1/4 as absorbing element.  In the multiplicative
    parametrization this is a plain product.
    """
    f1 = _check_fidelity(f1, "f1")
    f2 = _check_fidelity(f2, "f2")
    return f1 * f2 + (1.0 - f1) * (1.0 - f2) / 3.0


def chain_swap_fidelity(fidelities) -> float:
    """Fidelity after fusing a sequence of Werner pairs with simultaneous swaps.

    For inputs F_1..F_m the result is ``1/4 + (3/4) * prod_i (4 F_i - 1)/3``;
    with a single input it is the identity, and for two inputs it reduces to
    :func:`swap_fidelity`.
    """
    fs = list(fidelities)
    if not fs:
        raise ValueError("need at least one input fidelity")
    x = 1.0
    for f in fs:
        x *= fidelity_to_werner(f)
    return MIN_FIDELITY + 0.75 * x


def worst_case_fidelity(params: FidelityParams, n: int, t_cut: float) -> float:
    """Lowest end-to-end fidelity an n-node chain can deliver under a cutoff.

    The worst sequence of events generates all ``n - 1`` elementary links
    simultaneously and fuses them only once every link has been stored for
    the full window ``t_cut``.  Each link has then decayed to
    ``F_old = 1/4 + (f_new - 1/4) * exp(-t_cut / tau)`` and the fused pair has
    fidelity ``1/4 + (3/4) * x_old^(n-1)``, with ``x_old = (4 F_old - 1)/3``.

    ``t_cut`` is a real storage time here; discretization into slots is a
    modelling layer above this function.
    """
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n!r}")
    if t_cut < 0:
        raise ValueError(f"cutoff must be nonnegative, got {t_cut!r}")
    f_old = decay_fidelity(params.f_new, t_cut, params.tau)
    return MIN_FIDELITY + 0.75 * fidelity_to_werner(f_old) ** (n - 1)


def max_cutoff(params: FidelityParams, n: int) -> float:
    """Largest cutoff for which the chain still meets the fidelity threshold.

    Solves ``worst_case_fidelity(params, n, t) == f_min`` for ``t``:

    ``t = tau * (ln x_new - ln(x_min) / (n - 1))``

    with ``x = (4F - 1)/3``.  Raises :class:`InfeasibleCutoffError` when the
    bound is negative, i.e. the threshold is unreachable even with
    instantaneous swaps.  A bound of exactly zero is returned as ``0.0``
    (fresh links barely qualify, leaving no storage slack).
    """
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n!r}")
    x_new = fidelity_to_werner(params.f_new)
    x_min = fidelity_to_werner(params.f_min)
    bound = params.tau * (math.log(x_new) - math.log(x_min) / (n - 1))
    if bound < -1e-12 * params.tau:
        raise InfeasibleCutoffError(
            f"threshold f_min={params.f_min} unreachable for n={n} with "
            f"f_new={params.f_new}: even fresh links fall short after swapping"
        )
    return max(bound, 0.0)
