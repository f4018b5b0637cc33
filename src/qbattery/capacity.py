"""Energy-entropy diagram: thermal boundary, entropy-constrained energy
extrema, and the storable/extractable energy caps they imply.

The diagram depends on the battery's level spectrum alone: the ascending
level energies E_k and the natural log of each level's multiplicity g_k.
Every function takes such an (energies, log multiplicities) pair, as
``models.register_spectrum`` gives for N cells, or a HermitianOperator,
reduced once per call to its degenerate levels by ``linalg.group_levels``
from its eigenvalues alone.
Level weights stay in log space, log P_k = log g_k - beta E_k - log Z, so
binomial multiplicities beyond float range cost nothing.

Entropies on the diagram are in bits; ``beta`` is the physical inverse
temperature of the Gibbs weight exp(-beta E), so the boundary slope satisfies
dS_bits/dE = beta / ln 2.  Negative beta points describe population-inverted
(completely active) states that maximize energy at fixed entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bound_ratio, within_tolerance
from .errors import ValidationError
from .linalg import HermitianOperator, eigendecompose, group_levels

BISECTION_RESIDUAL = 1e-10
BETA_BRACKET_LOW = 1e-12
BETA_BRACKET_HIGH = 1e4
BETA_BRACKET_CAP = 1e16
# Entropies this close to a bound, relative to log2(dim) and at least 1e-12
# bits, count as on it: at N = 10^4 cells one ulp of log2(dim) is 1.8e-12.
ENTROPY_RTOL = 1e-12
LN2 = math.log(2.0)


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


def _level_spectrum(battery) -> tuple[np.ndarray, np.ndarray]:
    """(level energies, log multiplicities) of a battery given as that pair
    or as an operator."""
    if isinstance(battery, HermitianOperator):
        levels = group_levels(eigendecompose(battery).eigenvalues)
        return levels.energies, np.log(levels.multiplicities)
    energies, log_multiplicities = battery
    return np.asarray(energies, dtype=float), np.asarray(log_multiplicities, dtype=float)


def _gibbs(spectrum, beta: float) -> tuple[np.ndarray, int, float]:
    """Thermal level weights P_k = g_k exp(-beta E_k) / Z, the heaviest level
    m and ln(Z / w_m).  The exponents are taken relative to level m, so they
    stay small wherever the weight is and the rounding of the large ln g_k
    and beta E_k does not reach P_k.  beta = +inf / -inf put all the weight
    on the ground / top level."""
    energies, log_multiplicities = spectrum
    if math.isinf(beta):
        m = len(energies) - 1 if beta < 0 else 0
        p = np.zeros(len(energies))
        p[m] = 1.0
        return p, m, 0.0
    m = int(np.argmax(log_multiplicities - beta * energies))
    # ln(w_k / w_m) <= 0, with equality at m: the sum lies in [1, levels].
    w = np.exp((log_multiplicities - log_multiplicities[m]) - beta * (energies - energies[m]))
    z = w.sum()
    return w / z, m, math.log(z)


def gibbs(battery, beta: float) -> np.ndarray:
    """Thermal level weights P_k = g_k exp(-beta E_k) / Z, each shared evenly
    by the g_k states of its level."""
    return _gibbs(_level_spectrum(battery), beta)[0]


def _entropy_range(spectrum) -> tuple[float, float]:
    """The entropy of the maximally mixed state, log2 of the summed
    multiplicities, and the slack of ENTROPY_RTOL around it."""
    top = spectrum[1].max()
    s_max = (top + math.log(np.exp(spectrum[1] - top).sum())) / LN2
    return s_max, ENTROPY_RTOL * max(s_max, 1.0)


def thermal_point(spectrum, beta: float) -> DiagramPoint:
    """Energy and entropy of the Gibbs state of a level spectrum at one beta.

    S = -sum_k P_k ln(P_k / g_k) = ln g_m + ln(Z / w_m) + beta <E - E_m> in
    nats, a sum of terms of the size of S itself.
    """
    energies, log_multiplicities = spectrum
    p, m, log_z = _gibbs(spectrum, beta)
    offset = float(p @ (energies - energies[m]))
    spread = 0.0 if math.isinf(beta) else beta * offset
    entropy = (log_multiplicities[m] + log_z + spread) / LN2
    return DiagramPoint(energy=float(p @ energies), entropy_bits=float(entropy), beta=beta)


def thermal_curve(battery, betas: np.ndarray) -> list[DiagramPoint]:
    """Thermal boundary points for each beta in the grid."""
    spectrum = _level_spectrum(battery)
    return [thermal_point(spectrum, float(b)) for b in betas]


def _solve_positive_branch(spectrum, s_target: float) -> DiagramPoint:
    """Bisect beta >= 0 so that S(beta) hits the target entropy (bits)."""
    s_max, slack = _entropy_range(spectrum)
    s_floor = spectrum[1][0] / LN2
    if s_target > s_max + slack:
        raise ValidationError(f"target entropy {s_target} exceeds log2(dim) = {s_max}")
    if s_target < s_floor - slack:
        raise ValidationError(
            f"target entropy {s_target} lies below the ground-level entropy "
            f"log2({math.exp(spectrum[1][0]):.6g}) = {s_floor}; unreachable on the thermal branch"
        )
    if abs(s_target - s_max) <= slack:
        return thermal_point(spectrum, 0.0)

    def entropy_at(beta: float) -> float:
        return thermal_point(spectrum, beta).entropy_bits

    lo, hi = BETA_BRACKET_LOW, BETA_BRACKET_HIGH
    while entropy_at(hi) > s_target + BISECTION_RESIDUAL:
        hi *= 10.0
        if hi > BETA_BRACKET_CAP:
            raise ValidationError(
                f"target entropy {s_target} not reachable below beta = {BETA_BRACKET_CAP}"
            )
    if entropy_at(lo) < s_target - BISECTION_RESIDUAL:
        # Target sits between beta = 0 and the smallest bracket value.
        return thermal_point(spectrum, lo)
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
    point = thermal_point(spectrum, beta)
    if abs(point.entropy_bits - s_target) > BISECTION_RESIDUAL:
        raise ValidationError(
            f"bisection stalled at |S - target| = {abs(point.entropy_bits - s_target):.2e}"
        )
    return point


def solve_beta_for_entropy(battery, s_target_bits: float, branch: str) -> DiagramPoint:
    """Thermal state with the requested entropy on one branch of the boundary.

    branch "positive_beta" returns the energy-minimizing (completely passive)
    point, "negative_beta" the energy-maximizing (completely active) one.
    """
    spectrum = _level_spectrum(battery)
    if branch == "positive_beta":
        return _solve_positive_branch(spectrum, s_target_bits)
    if branch == "negative_beta":
        energies, log_multiplicities = spectrum
        mirrored = _solve_positive_branch(
            (-energies[::-1], log_multiplicities[::-1]), s_target_bits
        )
        return DiagramPoint(
            energy=-mirrored.energy,
            entropy_bits=mirrored.entropy_bits,
            beta=-mirrored.beta,
        )
    raise ValidationError(f"unknown branch {branch!r}")


def capacity_at_entropy(battery, s_bits: float) -> float:
    """Energetic amplitude E_max(S) - E_min(S) at fixed entropy."""
    spectrum = _level_spectrum(battery)
    s_max, slack = _entropy_range(spectrum)
    if not -slack <= s_bits <= s_max + slack:
        raise ValidationError(f"entropy {s_bits} outside [0, log2(dim) = {s_max}]")
    if s_bits <= 0.0:
        return float(spectrum[0][-1] - spectrum[0][0])
    high = solve_beta_for_entropy(spectrum, s_bits, "negative_beta")
    low = solve_beta_for_entropy(spectrum, s_bits, "positive_beta")
    return high.energy - low.energy


def energy_amplitude_check(
    stored_energy_series: np.ndarray, level_energies: np.ndarray, initial_energy: float
) -> EnergyAmplitudeReport:
    """Check a pure-state trajectory against the zero-entropy diagram caps.

    ``stored_energy_series`` is E(t) relative to the initial state, whose
    absolute battery energy is ``initial_energy``; ``level_energies`` are the
    battery's ascending levels (the ladder k - N/2 of a run).  The storage
    cap is E_top - E(0), the extraction cap E(0) - E_bottom, both checked
    under ``bounds.within_tolerance``, and the reported fraction is the
    stored maximum over the storage cap.
    """
    series = np.asarray(stored_energy_series, dtype=float)
    stored_max = float(series.max(initial=0.0))
    extracted_max = float(-series.min(initial=0.0))
    storage_cap = float(level_energies[-1] - initial_energy)
    extraction_cap = float(initial_energy - level_energies[0])
    ok = within_tolerance(stored_max, storage_cap) and within_tolerance(extracted_max, extraction_cap)
    return EnergyAmplitudeReport(
        stored_max=stored_max,
        storage_cap=storage_cap,
        extracted_max=extracted_max,
        extraction_cap=extraction_cap,
        stored_fraction=bound_ratio(stored_max, storage_cap),
        satisfied=bool(ok),
    )
