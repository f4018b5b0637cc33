"""Per-state measurements: energy, power, variances, populations, Fisher
information in the battery-energy eigenspace, state-space Fisher information,
and the local/correlation variance split.

Fisher information in energy space uses the natural-log form
``sum_k pdot_k^2 / p_k``, the one for which the power bound chain
``P^2 <= var(H_B) * I_E <= 4 var(H_B) var(H_C)`` is an exact inequality;
:func:`fisher_sum` is that series on whole (levels x times) grids.
Entropies are reported in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    Basis,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    eigendecompose,
    group_levels,
    von_neumann_entropy,
)

POPULATION_FLOOR = 1e-12
COS_THETA_DENOM_FLOOR = 1e-12
QFI_PAIR_FLOOR = 1e-14


@dataclass(frozen=True)
class PopulationRecord:
    """Battery-level occupations and their analytic rates at one instant."""

    t: float
    p: np.ndarray
    p_dot: np.ndarray

    def __post_init__(self):
        check_distributions(self.p, self.p_dot)


def check_distributions(p: np.ndarray, p_dot: np.ndarray) -> None:
    """Raise ValidationError unless each column (axis 0: levels) of p sums to 1
    within 1e-10 with no entry below -1e-12, and of p_dot to 0 within 1e-9
    times the column's sum of |p_dot| where that exceeds 1 (the rates scale
    with the charging frequency, and their sum's rounding with them); a NaN
    fails."""
    total, rate = np.atleast_1d(p.sum(axis=0)), np.atleast_1d(p_dot.sum(axis=0))
    worst = float(total[np.argmax(np.abs(total - 1.0))])  # argmax picks a NaN first
    if not abs(worst - 1.0) <= 1e-10:
        raise ValidationError(f"populations sum to {worst!r}")
    excess = np.abs(rate) / np.maximum(np.atleast_1d(np.abs(p_dot).sum(axis=0)), 1.0)
    worst = np.argmax(excess)
    if not excess[worst] <= 1e-9:
        raise ValidationError(f"population rates sum to {float(rate[worst])!r}")
    if p.min() < -1e-12:
        raise ValidationError(f"negative population {p.min():.3e}")


def expectation(psi: StateVector, op: HermitianOperator) -> float:
    if op.basis != psi.basis:
        raise ValidationError("operator and state bases do not match")
    return float(np.vdot(psi.amplitudes, op.apply(psi.amplitudes)).real)


def stored_energy(psi: StateVector, battery: HermitianOperator, psi0: StateVector) -> float:
    """Energy of ``psi`` relative to the reference state ``psi0``."""
    return expectation(psi, battery) - expectation(psi0, battery)


def power(psi: StateVector, battery: HermitianOperator, charger: HermitianOperator) -> float:
    """Instantaneous d<H_B>/dt = i<[H_C, H_B]> under the charging dynamics."""
    if battery.basis != psi.basis or charger.basis != psi.basis:
        raise ValidationError("operator and state bases do not match")
    b_psi = battery.apply(psi.amplitudes)
    c_psi = charger.apply(psi.amplitudes)
    return float(2.0 * np.vdot(b_psi, c_psi).imag)


def variance(psi: StateVector, op: HermitianOperator, m: int = 1) -> float:
    """Variance of the m-th power of ``op``, via its eigendecomposition."""
    if m < 1:
        raise ValidationError("moment order m must be >= 1")
    op = eigendecompose(op)
    if op.basis != psi.basis:
        raise ValidationError("operator and state bases do not match")
    weights = np.abs(op.to_eigenbasis(psi.amplitudes)) ** 2
    mean_m = float(weights @ op.eigenvalues**m)
    mean_2m = float(weights @ op.eigenvalues ** (2 * m))
    return mean_2m - mean_m**2


def populations_and_rates(
    psi: StateVector, battery: HermitianOperator, charger: HermitianOperator, t: float = 0.0
) -> PopulationRecord:
    """Occupations p_k = <psi|P_k|psi> of the battery's degenerate levels
    (:func:`group_levels` of its spectrum) and their analytic rates.

    For unitary dynamics generated by ``charger`` the rate is
    pdot_k = 2 Im <psi|P_k H_C|psi>; no finite differences are involved.
    """
    if battery.basis != psi.basis or charger.basis != psi.basis:
        raise ValidationError("battery, charger, and state bases do not match")
    battery = eigendecompose(battery)
    levels = group_levels(battery.eigenvalues)
    overlaps = battery.to_eigenbasis(psi.amplitudes)
    driven = battery.to_eigenbasis(charger.apply(psi.amplitudes))
    p = np.add.reduceat(np.abs(overlaps) ** 2, levels.starts[:-1])
    p_dot = 2.0 * np.add.reduceat((overlaps.conj() * driven).imag, levels.starts[:-1])
    return PopulationRecord(t=t, p=p, p_dot=p_dot)


def fisher_sum(p: np.ndarray, p_dot: np.ndarray, floor: float) -> np.ndarray:
    """sum_k pdot_k^2 / p_k along axis 0 (the levels) over the levels with
    p_k > floor; an excluded level adds +0.0."""
    keep = p > floor
    return (np.where(keep, p_dot, 0.0) ** 2 / np.where(keep, p, 1.0)).sum(axis=0)


def qfi(rho: DensityMatrix, drive: HermitianOperator) -> float:
    """State-space Fisher information of a unitary family generated by ``drive``.

    I_Q = 2 sum_{i != j} (p_i - p_j)^2 / (p_i + p_j) |<i|H|j>|^2 over the
    eigenbasis of rho; equals 4 * variance(psi, H) for a pure state.  Pairs
    with p_i + p_j below 1e-14 are skipped.
    """
    if rho.basis != drive.basis:
        raise ValidationError("state and drive bases do not match")
    probs, vecs = np.linalg.eigh(rho.matrix)
    probs = np.clip(probs, 0.0, None)
    h_eig = vecs.conj().T @ drive.matrix @ vecs
    psum = probs[:, None] + probs[None, :]
    pdiff = probs[:, None] - probs[None, :]
    weight = np.zeros_like(psum)
    mask = psum > QFI_PAIR_FLOOR
    weight[mask] = pdiff[mask] ** 2 / psum[mask]
    np.fill_diagonal(weight, 0.0)
    return float(2.0 * (weight * np.abs(h_eig) ** 2).sum())


def variance_decomposition(
    psi: StateVector, cell_terms: list[np.ndarray]
) -> tuple[float, float]:
    """Split the battery variance into single-cell and cross-cell parts.

    ``cell_terms`` are the diagonals of the commuting single-cell terms h_i
    (``models.battery_cell_terms``).  Returns (local, correlation) with
    local = sum_i (<h_i^2> - <h_i>^2) and correlation = sum_{i != j}
    (<h_i h_j> - <h_i><h_j>); the two add up to the full variance of sum_i h_i.
    """
    amp = psi.amplitudes
    driven = np.stack(cell_terms) * amp  # (N, dim)
    means = (driven @ amp.conj()).real
    cross = (driven.conj() @ driven.T).real  # <h_i h_j>, real for commuting h_i
    local = float(np.diag(cross).sum() - (means**2).sum())
    off = cross - np.outer(means, means)
    correlation = float(off.sum() - np.diag(off).sum())
    return local, correlation


def cos_theta_power(power_value, var_battery, fisher):
    """Saturation angle P / sqrt(var(H_B) * I_E), elementwise on scalars or arrays; NaN
    where var(H_B) * I_E <= COS_THETA_DENOM_FLOOR**2 (a missing value downstream)."""
    power_value, denom_sq = np.broadcast_arrays(
        np.asarray(power_value, dtype=float), np.multiply(var_battery, fisher)
    )
    out = np.full(denom_sq.shape, np.nan)
    defined = denom_sq > COS_THETA_DENOM_FLOOR**2
    out[defined] = power_value[defined] / np.sqrt(denom_sq[defined])
    return out if out.ndim else float(out)


def time_average(series: np.ndarray, dt: float) -> float:
    """Trapezoidal mean of a uniformly sampled series."""
    series = np.asarray(series, dtype=float)
    if series.size < 2:
        raise ValidationError("need at least two samples for a time average")
    span = dt * (series.size - 1)
    return float(np.trapezoid(series, dx=dt) / span)


def reduced_battery_state(psi: StateVector) -> DensityMatrix:
    """Battery (collective-spin) reduced state of a spin-Fock pure state."""
    if psi.basis.kind != "spin_fock":
        raise ValidationError(f"expected spin_fock basis, got {psi.basis.kind}")
    n_spin = psi.basis.n_cells + 1
    n_fock = psi.basis.n_max + 1
    block = psi.amplitudes.reshape(n_spin, n_fock)
    return DensityMatrix(block @ block.conj().T, Basis("collective_spin", psi.basis.n_cells))


def battery_entanglement_entropy(psi: StateVector) -> float:
    """Entropy of the battery reduced state, normalized to [0, 1] by log2(N+1)."""
    reduced = reduced_battery_state(psi)
    return von_neumann_entropy(reduced) / np.log2(psi.basis.n_cells + 1)
