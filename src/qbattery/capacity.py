"""Energy-entropy diagram: thermal boundary, entropy-constrained energy
extrema, and the storable/extractable energy caps they imply.

Entropies on the diagram are in bits; ``beta`` is the physical inverse
temperature of the Gibbs weight exp(-beta E), so the boundary slope satisfies
dS_bits/dE = beta / ln 2.  Negative beta points describe population-inverted
(completely active) states that maximize energy at fixed entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ABSOLUTE_FLOOR, within_tolerance
from .errors import ValidationError
from .linalg import LEVEL_REL_TOL, HermitianOperator, eigendecompose

BISECTION_RESIDUAL = 1e-10
BETA_BRACKET_LOW = 1e-12
BETA_BRACKET_HIGH = 1e4
BETA_BRACKET_CAP = 1e16


@dataclass(frozen=True)
class DiagramPoint:
    """One point (E, S) of the diagram; beta may be +-inf at the extremes."""

    energy: float
    entropy_bits: float
    beta: float


@dataclass(frozen=True)
class EnergyAmplitudeReport:
    """Trajectory extremes of the stored energy against the diagram caps."""

    stored_max: float
    storage_cap: float
    extracted_max: float
    extraction_cap: float
    stored_fraction: float
    satisfied: bool


def _extreme_group(eigenvalues: np.ndarray, top: bool, rel_tol: float) -> np.ndarray:
    span = float(eigenvalues[-1] - eigenvalues[0])
    gap = rel_tol * span
    if top:
        return np.flatnonzero(eigenvalues >= eigenvalues[-1] - gap)
    return np.flatnonzero(eigenvalues <= eigenvalues[0] + gap)


def gibbs(eigenvalues: np.ndarray, beta: float, rel_tol: float = LEVEL_REL_TOL) -> np.ndarray:
    """Thermal occupation p_i proportional to exp(-beta E_i), overflow-safe.

    beta = +inf / -inf yield the uniform mixture over the (degenerate)
    ground / top level.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if math.isinf(beta):
        group = _extreme_group(eigenvalues, top=beta < 0, rel_tol=rel_tol)
        p = np.zeros_like(eigenvalues)
        p[group] = 1.0 / len(group)
        return p
    weights = -beta * eigenvalues
    weights -= weights.max()
    p = np.exp(weights)
    return p / p.sum()


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def thermal_point(eigenvalues: np.ndarray, beta: float) -> DiagramPoint:
    p = gibbs(eigenvalues, beta)
    return DiagramPoint(
        energy=float(p @ eigenvalues), entropy_bits=_entropy_bits(p), beta=beta
    )


def thermal_curve(op: HermitianOperator, betas: np.ndarray) -> list[DiagramPoint]:
    """Thermal boundary points for each beta in the grid."""
    op = eigendecompose(op)
    return [thermal_point(op.eigenvalues, float(b)) for b in betas]


def _solve_positive_branch(eigenvalues: np.ndarray, s_target: float) -> DiagramPoint:
    """Bisect beta >= 0 so that S(beta) hits the target entropy (bits)."""
    dim = len(eigenvalues)
    s_max = math.log2(dim)
    ground = _extreme_group(eigenvalues, top=False, rel_tol=LEVEL_REL_TOL)
    s_floor = math.log2(len(ground))
    if s_target > s_max + 1e-12:
        raise ValidationError(f"target entropy {s_target} exceeds log2(dim) = {s_max}")
    if s_target < s_floor - 1e-12:
        raise ValidationError(
            f"target entropy {s_target} lies below the ground-level entropy "
            f"log2({len(ground)}) = {s_floor}; unreachable on the thermal branch"
        )
    if abs(s_target - s_max) <= 1e-12:
        return thermal_point(eigenvalues, 0.0)

    def entropy_at(beta: float) -> float:
        return _entropy_bits(gibbs(eigenvalues, beta))

    lo, hi = BETA_BRACKET_LOW, BETA_BRACKET_HIGH
    while entropy_at(hi) > s_target + BISECTION_RESIDUAL:
        hi *= 10.0
        if hi > BETA_BRACKET_CAP:
            raise ValidationError(
                f"target entropy {s_target} not reachable below beta = {BETA_BRACKET_CAP}"
            )
    if entropy_at(lo) < s_target - BISECTION_RESIDUAL:
        # Target sits between beta = 0 and the smallest bracket value.
        return thermal_point(eigenvalues, lo)
    beta = lo
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        s_beta = entropy_at(beta)
        if abs(s_beta - s_target) < BISECTION_RESIDUAL:
            break
        if s_beta > s_target:
            lo = beta
        else:
            hi = beta
    point = thermal_point(eigenvalues, beta)
    if abs(point.entropy_bits - s_target) > BISECTION_RESIDUAL:
        raise ValidationError(
            f"bisection stalled at |S - target| = {abs(point.entropy_bits - s_target):.2e}"
        )
    return point


def solve_beta_for_entropy(
    op: HermitianOperator, s_target_bits: float, branch: str
) -> DiagramPoint:
    """Thermal state with the requested entropy on one branch of the boundary.

    branch "positive_beta" returns the energy-minimizing (completely passive)
    point, "negative_beta" the energy-maximizing (completely active) one.
    """
    op = eigendecompose(op)
    if branch == "positive_beta":
        return _solve_positive_branch(op.eigenvalues, s_target_bits)
    if branch == "negative_beta":
        mirrored = _solve_positive_branch(-op.eigenvalues[::-1], s_target_bits)
        return DiagramPoint(
            energy=-mirrored.energy,
            entropy_bits=mirrored.entropy_bits,
            beta=-mirrored.beta,
        )
    raise ValidationError(f"unknown branch {branch!r}")


def capacity_at_entropy(op: HermitianOperator, s_bits: float) -> float:
    """Energetic amplitude E_max(S) - E_min(S) at fixed entropy."""
    op = eigendecompose(op)
    s_max = math.log2(op.dim)
    if not -1e-12 <= s_bits <= s_max + 1e-12:
        raise ValidationError(f"entropy {s_bits} outside [0, log2(dim) = {s_max}]")
    if s_bits <= 0.0:
        return float(op.eigenvalues[-1] - op.eigenvalues[0])
    high = solve_beta_for_entropy(op, s_bits, "negative_beta")
    low = solve_beta_for_entropy(op, s_bits, "positive_beta")
    return high.energy - low.energy


def energy_amplitude_check(
    stored_energy_series: np.ndarray, battery: HermitianOperator, initial_energy: float
) -> EnergyAmplitudeReport:
    """Check a pure-state trajectory against the zero-entropy diagram caps.

    ``stored_energy_series`` is E(t) relative to the initial state, whose
    absolute battery energy is ``initial_energy``.  The storage cap is
    E_top - E(0), the extraction cap E(0) - E_bottom, both checked under
    ``bounds.within_tolerance``, and the reported fraction is the stored
    maximum over the storage cap.
    """
    battery = eigendecompose(battery)
    series = np.asarray(stored_energy_series, dtype=float)
    stored_max = float(series.max(initial=0.0))
    extracted_max = float(-series.min(initial=0.0))
    storage_cap = float(battery.eigenvalues[-1] - initial_energy)
    extraction_cap = float(initial_energy - battery.eigenvalues[0])
    ok = within_tolerance(stored_max, storage_cap) and within_tolerance(extracted_max, extraction_cap)
    fraction = stored_max / storage_cap if storage_cap > ABSOLUTE_FLOOR else float("nan")
    return EnergyAmplitudeReport(
        stored_max=stored_max,
        storage_cap=storage_cap,
        extracted_max=extracted_max,
        extraction_cap=extraction_cap,
        stored_fraction=fraction,
        satisfied=bool(ok),
    )
