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

Every thermal point comes from one kernel, :func:`_thermal_points`, over
chunks of betas that share the Gibbs weights' argmax, exp and sum; a point
has the same bits in any chunk.  An entropy target's beta is the one that
bisection to |S - target| < BISECTION_RESIDUAL finds, located first by
Newton steps on the exact slope -beta Var_beta(E) / ln 2, so that the
bisection evaluates S only beside the target.
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
# The most Newton steps that locate a target's beta, and how many residuals
# from it, on the slope there, the two points that bound its band lie.
BETA_LOCATE_STEPS = 12
BAND_PROBE = 1.5
# The most (beta x level) cells that one pass of the thermal kernel holds:
# 128 KB per array at any N, where 401 betas x 10^4 levels hold 32 MB.
THERMAL_CHUNK_CELLS = 2**14
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


def _gibbs(spectrum, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thermal level weights P_k = g_k exp(-beta E_k) / Z, one row per beta,
    each row's heaviest level m and Z / w_m.  The exponents are taken
    relative to level m, so they stay small wherever the weight is and the
    rounding of the large ln g_k and beta E_k does not reach P_k; each
    element is the one that beta alone gives.  beta = +inf / -inf put all
    the weight on the ground / top level."""
    energies, log_multiplicities = spectrum
    infinite = np.isinf(betas)
    finite = np.where(infinite, 0.0, betas)[:, None]
    m = np.argmax(log_multiplicities - finite * energies, axis=1)
    # ln(w_k / w_m) <= 0, with equality at m: each row sums to [1, levels].
    w = np.exp(
        (log_multiplicities - log_multiplicities[m][:, None])
        - finite * (energies - energies[m][:, None])
    )
    z = w.sum(axis=1)
    w /= z[:, None]
    if infinite.any():
        m[infinite] = np.where(betas[infinite] < 0, len(energies) - 1, 0)
        w[infinite] = 0.0
        w[infinite, m[infinite]] = 1.0
        z[infinite] = 1.0
    return w, m, z


def gibbs(battery, beta: float) -> np.ndarray:
    """Thermal level weights P_k = g_k exp(-beta E_k) / Z, each shared evenly
    by the g_k states of its level."""
    return _gibbs(_level_spectrum(battery), np.array([float(beta)]))[0][0]


def _entropy_range(spectrum) -> tuple[float, float]:
    """The entropy of the maximally mixed state, log2 of the summed
    multiplicities, and the slack of ENTROPY_RTOL around it."""
    top = spectrum[1].max()
    s_max = (top + math.log(np.exp(spectrum[1] - top).sum())) / LN2
    return s_max, ENTROPY_RTOL * max(s_max, 1.0)


def _thermal_points(spectrum, betas, variances: bool = False):
    """The Gibbs state's diagram point at each beta, and with ``variances``
    also Var_beta(E) at each, so that dS_bits/dbeta = -beta Var_beta(E) / ln 2.

    S = -sum_k P_k ln(P_k / g_k) = ln g_m + ln(Z / w_m) + beta <E - E_m> in
    nats, a sum of terms of the size of S itself.  The betas go through
    :func:`_gibbs` in chunks of at most THERMAL_CHUNK_CELLS (beta, level)
    cells, which share its argmax, exp and sum; each row keeps its own dots
    and log, so each point has the bits of a chunk of one.
    """
    energies, log_multiplicities = spectrum
    betas = np.asarray(betas, dtype=float).reshape(-1)
    points, variance = [], []
    rows = max(THERMAL_CHUNK_CELLS // len(energies), 1)
    for start in range(0, len(betas), rows):
        chunk = betas[start : start + rows]
        weights, heaviest, sums = _gibbs(spectrum, chunk)
        for beta, p, m, z in zip(chunk.tolist(), weights, heaviest.tolist(), sums.tolist()):
            offsets = energies - energies[m]
            offset = float(p @ offsets)
            spread = 0.0 if math.isinf(beta) else beta * offset
            entropy = (log_multiplicities[m] + math.log(z) + spread) / LN2
            points.append(DiagramPoint(energy=float(p @ energies), entropy_bits=float(entropy), beta=beta))
            if variances:
                variance.append(float(p @ (offsets * offsets)) - offset * offset)
    return (points, variance) if variances else points


def thermal_point(spectrum, beta: float) -> DiagramPoint:
    """Energy and entropy of the Gibbs state of a level spectrum at one beta."""
    return _thermal_points(spectrum, [beta])[0]


def thermal_curve(battery, betas: np.ndarray) -> list[DiagramPoint]:
    """Thermal boundary points for each beta in the grid, in one pass of the
    chunked thermal kernel (:func:`_thermal_points`)."""
    return _thermal_points(_level_spectrum(battery), betas)


def _locate_beta(evaluate, s_target: float, s_floor: float, lo: float, hi: float, start: float):
    """(beta, dS_bits/dbeta there) at S = s_target in (lo, hi), by Newton
    steps from ``start`` on ln(S - s_floor), whose slope is the exact
    -beta Var_beta(E) / ((S - s_floor) ln 2), until |S - target| <
    BISECTION_RESIDUAL, and one more without an evaluation.  S - s_floor
    falls about exponentially at low temperature, so its log is nearly
    straight there.  A step that leaves the bracket of the points so far is
    replaced by its midpoint, geometric where it spans more than a factor
    4.  ``evaluate`` returns (point, Var) at a beta.  None after
    BETA_LOCATE_STEPS steps."""
    x = start
    for _ in range(BETA_LOCATE_STEPS):
        if not lo < x < hi:
            x = math.sqrt(lo * hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        point, var_x = evaluate(x)
        residual = point.entropy_bits - s_target
        slope = -x * var_x / LN2
        if not slope < 0.0:
            return None
        lo, hi = (x, hi) if residual > 0.0 else (lo, x)
        if abs(residual) < BISECTION_RESIDUAL:
            x_next = x - residual / slope
            return (x_next if lo <= x_next <= hi else x), slope
        height = point.entropy_bits - s_floor
        x = x - math.log(height / (s_target - s_floor)) * height / slope if height > 0.0 else math.nan
    return None


def _solve_positive_branch(spectrum, s_target: float) -> DiagramPoint:
    """The beta >= 0 at which S(beta) hits the target entropy (bits), as
    bisection finds it: the midpoint of [lo, hi], halved on the side of the
    target until |S - target| < BISECTION_RESIDUAL.

    The bracket grows from [BETA_BRACKET_LOW, BETA_BRACKET_HIGH] as always.
    Then :func:`_locate_beta` finds the target's beta by Newton steps, and
    two more points bound the band |S - target| < BISECTION_RESIDUAL
    around it, BAND_PROBE residuals away on the linear slope there.  S falls
    monotonically in beta, so a midpoint at or below an evaluated point with
    S >= target + residual has S above the band, and one at or above a
    point with S <= target - residual is below it: the bisection evaluates
    only the midpoints between the two nearest such points, and each of its
    decisions is the one that evaluating S would give.
    """
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

    above, below = -math.inf, math.inf  # the nearest betas known above / below the band

    def evaluate(beta: float) -> tuple[DiagramPoint, float]:
        nonlocal above, below
        (point,), (var,) = _thermal_points(spectrum, [beta], variances=True)
        if point.entropy_bits - s_target >= BISECTION_RESIDUAL:
            above = max(above, beta)
        elif s_target - point.entropy_bits >= BISECTION_RESIDUAL:
            below = min(below, beta)
        return point, var

    lo, hi = BETA_BRACKET_LOW, BETA_BRACKET_HIGH
    while (s_hi := evaluate(hi)[0].entropy_bits) > s_target + BISECTION_RESIDUAL:
        hi *= 10.0
        if hi > BETA_BRACKET_CAP:
            raise ValidationError(
                f"target entropy {s_target} not reachable below beta = {BETA_BRACKET_CAP}"
            )
    bottom, var_lo = evaluate(lo)
    s_lo = bottom.entropy_bits
    if s_lo < s_target - BISECTION_RESIDUAL:
        # Target sits between beta = 0 and the smallest bracket value.
        return bottom
    if s_lo > s_target > s_hi and s_target > s_floor and var_lo > 0.0:
        # High-temperature start: S = s_max - beta^2 Var / (2 ln 2) + O(beta^4).
        start = math.sqrt(2.0 * LN2 * (s_lo - s_target) / var_lo)
        located = _locate_beta(evaluate, s_target, s_floor, lo, hi, start)
        if located is not None:
            beta_star, slope = located
            half_width = BAND_PROBE * BISECTION_RESIDUAL / -slope
            for probe in (beta_star - half_width, beta_star + half_width):
                if lo < probe < hi:
                    evaluate(probe)
    for _ in range(200):
        beta, point = 0.5 * (lo + hi), None
        if beta <= above:
            lo = beta
        elif beta >= below:
            hi = beta
        else:
            point = evaluate(beta)[0]
            if abs(point.entropy_bits - s_target) < BISECTION_RESIDUAL:
                break
            if point.entropy_bits > s_target:
                lo = beta
            else:
                hi = beta
    if point is None:
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


def capacity_from_points(battery, s_bits: float, low, high) -> float:
    """E_max(S) - E_min(S) at entropy ``s_bits`` from the boundary points
    solved there, ``low`` (positive beta) and ``high`` (negative beta); at
    s_bits <= 0, the spectral range exactly, with the points unread."""
    if s_bits <= 0.0:
        energies = _level_spectrum(battery)[0]
        return float(energies[-1] - energies[0])
    return high.energy - low.energy


def capacity_at_entropy(battery, s_bits: float) -> float:
    """Energetic amplitude E_max(S) - E_min(S) at fixed entropy."""
    spectrum = _level_spectrum(battery)
    s_max, slack = _entropy_range(spectrum)
    if not -slack <= s_bits <= s_max + slack:
        raise ValidationError(f"entropy {s_bits} outside [0, log2(dim) = {s_max}]")
    if s_bits <= 0.0:
        return capacity_from_points(spectrum, s_bits, None, None)
    high = solve_beta_for_entropy(spectrum, s_bits, "negative_beta")
    low = solve_beta_for_entropy(spectrum, s_bits, "positive_beta")
    return capacity_from_points(spectrum, s_bits, low, high)


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
