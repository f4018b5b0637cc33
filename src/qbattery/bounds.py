"""Inequalities constraining charging power and energy variance.

The central chain, checked at every trajectory step, is

    P(t)^2 <= var(H_B) * I_E <= (producibility cap) * I_E

together with the Heisenberg comparison P^2 <= 4 var(H_B) var(H_C) and the
dephasing relation I_E <= 4 var(H_C).  Every inequality check in the package
applies one rule, ``within_tolerance``: lhs <= rhs (1 + 1e-8) + 1e-12, and every
ratio lhs / rhs one guard, ``bound_ratio``.  The scalar reports here are the
reference for the series certifier in ``verification``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

RELATIVE_TOL = 1e-8
ABSOLUTE_FLOOR = 1e-12
WITNESS_SLACK = 1e-9
WITNESS_PHYSICAL_SLACK = 1e-6


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: lhs <= rhs up to tolerance."""

    t: float
    lhs: float
    rhs: float
    satisfied: bool
    label: str = ""

    @property
    def ratio(self) -> float:
        return bound_ratio(self.lhs, self.rhs)


def within_tolerance(lhs, rhs):
    """The tolerance rule, elementwise on scalars or arrays; NaN fails it."""
    return lhs <= rhs * (1 + RELATIVE_TOL) + ABSOLUTE_FLOOR


def bound_ratio(lhs, rhs):
    """lhs / rhs, elementwise on scalars or arrays; NaN where rhs <= ABSOLUTE_FLOOR."""
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
    out = np.full(rhs.shape, np.nan)
    np.divide(lhs, rhs, out=out, where=rhs > ABSOLUTE_FLOOR)
    return out if out.ndim else float(out)


def check_inequality(t: float, lhs: float, rhs: float, label: str = "") -> BoundReport:
    ok = bool(within_tolerance(lhs, rhs))
    return BoundReport(t=t, lhs=lhs, rhs=rhs, satisfied=ok, label=label)


def moment_rate_bound(t: float, level_energies: np.ndarray, p: np.ndarray, p_dot: np.ndarray, m: int) -> BoundReport:
    """Rate bound for the m-th moment of a levelled observable.

    lhs = (d<O^m>/dt)^2 = (sum_k O_k^m pdot_k)^2, rhs = var(O^m) * I_O with
    the centered var(O^m) = sum_k p_k (O_k^m - <O^m>)^2 (the raw <O^2m> -
    <O^m>^2 cancels near a saturated peak) and I_O = sum_k pdot_k^2 / p_k,
    all evaluated on the same level structure.  The Fisher factor keeps every
    occupied level (p > 0); truncating it weakens the rhs and can break
    saturated checks.
    """
    if m < 1:
        raise ValidationError("moment order m must be >= 1")
    powers = level_energies**m
    rate = np.sum(powers * p_dot)
    var_m = np.sum(p * (powers - np.sum(p * powers)) ** 2)
    fisher = np.sum(np.divide(p_dot**2, p, out=np.zeros_like(p), where=p > 0.0))
    return check_inequality(t, float(rate**2), float(var_m * fisher), label=f"moment_rate_m{m}")


def moment_rate_series(level_energies: np.ndarray, p: np.ndarray, p_dot: np.ndarray, m: int, fisher):
    """(lhs, rhs) of ``moment_rate_bound`` at every time: each column of (levels x
    times) ``p`` and ``p_dot`` reduced over the levels, against ``fisher``, the
    untruncated I_E of the same columns (``observables.fisher_sum`` at floor 0)."""
    powers = (level_energies**m)[:, None]
    rate = np.sum(powers * p_dot, axis=0)
    var_m = np.sum(p * (powers - np.sum(p * powers, axis=0)) ** 2, axis=0)
    return rate**2, var_m * fisher


def fisher_power_bound(t: float, power_value: float, var_battery: float, fisher: float) -> BoundReport:
    """P^2 <= var(H_B) * I_E."""
    return check_inequality(t, power_value**2, var_battery * fisher, label="fisher_power")


def heisenberg_power_bound(t: float, power_value: float, var_battery: float, var_charger: float) -> BoundReport:
    """P^2 <= 4 var(H_B) var(H_C), from the uncertainty relation."""
    return check_inequality(
        t, power_value**2, 4.0 * var_battery * var_charger, label="heisenberg_power"
    )


def producibility_variance_cap(n_cells: int, k: int) -> float:
    """Largest battery variance a k-producible N-qubit state can reach.

    Equals (r k^2 + (N - r k)^2) / 4 with r = floor(N/k); saturated only by
    products of GHZ blocks of size k (plus one remainder block).
    """
    if not 1 <= k <= n_cells:
        raise ValidationError(f"block size k = {k} outside 1..{n_cells}")
    r = n_cells // k
    return (r * k**2 + (n_cells - r * k) ** 2) / 4.0


def witness_entangled_block_size(var_battery: float, n_cells: int) -> int:
    """Smallest block size k whose producibility cap admits the given variance.

    A state whose variance exceeds the cap for k-1 must contain a k-qubit
    entangled block, so the returned k is a certified lower bound on the
    entanglement block size.
    """
    if var_battery < 0:
        raise ValidationError("variance must be nonnegative")
    top = n_cells**2 / 4.0
    if var_battery > top * (1 + WITNESS_PHYSICAL_SLACK):
        raise ValidationError(
            f"variance {var_battery!r} exceeds the N-qubit maximum {top!r}"
        )
    for k in range(1, n_cells + 1):
        if var_battery <= producibility_variance_cap(n_cells, k) * (1 + WITNESS_SLACK):
            return k
    return n_cells


def witness_block_sizes(var_battery: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """``witness_entangled_block_size`` and its producibility cap at every step, by a
    binary search of the N caps; raises as the scalar does on the first bad variance.
    The caps grow with k (a k-producible state is also (k + 1)-producible), so the
    first cap that admits a variance is the search's; NaN, or a variance above every
    cap, gets N."""
    var = np.asarray(var_battery, dtype=float)
    bad = (var < 0) | (var > n_cells**2 / 4.0 * (1 + WITNESS_PHYSICAL_SLACK))
    if bad.any():
        witness_entangled_block_size(float(var[np.argmax(bad)]), n_cells)
    caps = np.array([producibility_variance_cap(n_cells, k) for k in range(1, n_cells + 1)])
    k = np.minimum(np.searchsorted(caps * (1 + WITNESS_SLACK), var) + 1, n_cells)
    return k, caps[k - 1]


def entanglement_power_bound(n_cells: int, k: int, fisher: float) -> float:
    """Cap on P^2 for a state with at most k-qubit entanglement.

    Returns producibility cap times I_E; when k divides N this is
    (k N / 4) * I_E.
    """
    return producibility_variance_cap(n_cells, k) * fisher

