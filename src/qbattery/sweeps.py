"""Parameter sweeps and log-log scaling fits.

Quantities are time averages over the charging window [0, t_f], with t_f the
refined time of maximal stored energy inside the configured grid.  Even-N
chains are evaluated through the free-fermion path unless the sweep asks for
the dense one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bounds import bound_ratio
from .errors import CapacityLimitError, ValidationError
from .freefermion import check_even_chain, dispersion, fisher_energy_series, observables_on_grid
from .models import ModelSpec, check_dense_size, power_law_couplings
from .observables import battery_entanglement_entropy, cos_theta_power, time_average
from .trajectory import (
    DEFAULT_STEPS,
    PeakResult,
    Trajectory,
    find_peak_time,
    find_tf,
    run_trajectory,
    time_grid,
)

SWEEP_PATHS = ("auto", "dense", "analytic")
SWEEP_QUANTITIES = (
    "energy_at_tf",
    "avg_power",
    "avg_var_battery",
    "avg_fisher_energy",
    "rel_final_std",
    "cos_theta_timeavg",
    "cos_theta_timeavg_heis",
    "initial_var_charger",
    "final_battery_entropy",
)


@dataclass(frozen=True)
class ScalingResult:
    """Least-squares exponent of value ~ N^a from a log-log fit."""

    quantity: str
    n_values: tuple[int, ...]
    values: tuple[float, ...]
    exponent: float
    residual: float  # RMS residual of the log-log fit
    excluded: tuple[int, ...] = ()


def fit_exponent(n_values, values, quantity: str = "") -> ScalingResult:
    """Slope of log(value) vs log(N), dropping nonpositive entries.

    The smallest N is excluded (repeatedly, keeping at least 4 points) when
    doing so shrinks the RMS residual by more than a factor of 2; exclusions
    are recorded on the result.
    """
    n_values = [int(n) for n in n_values]
    values = [float(v) for v in values]
    usable = [(n, v) for n, v in zip(n_values, values) if v > 0 and np.isfinite(v)]
    if len(usable) < 3:
        raise ValidationError(
            f"need at least 3 positive values for a scaling fit, got {len(usable)}"
        )
    excluded = [n for n, v in zip(n_values, values) if not (v > 0 and np.isfinite(v))]

    def fit(points):
        log_n = np.log([n for n, _ in points])
        log_v = np.log([v for _, v in points])
        slope, intercept = np.polyfit(log_n, log_v, 1)
        res = float(np.sqrt(np.mean((log_v - (slope * log_n + intercept)) ** 2)))
        return float(slope), res

    points = list(usable)
    slope, res = fit(points)
    while len(points) > 4:
        slope_trim, res_trim = fit(points[1:])
        if res_trim < res / 2:
            excluded.append(points[0][0])
            points = points[1:]
            slope, res = slope_trim, res_trim
        else:
            break
    return ScalingResult(
        quantity=quantity,
        n_values=tuple(n for n, _ in usable),
        values=tuple(v for _, v in usable),
        exponent=slope,
        residual=res,
        excluded=tuple(excluded),
    )


def _window(times: np.ndarray, t_f: float) -> int:
    """Index of the last grid point inside the charging window (>= 1)."""
    return max(int(np.searchsorted(times, t_f, side="right")), 2)


def _window_quantities(
    times: np.ndarray, peak: PeakResult, energy: np.ndarray, var_battery: np.ndarray,
    fisher: np.ndarray, avg_var_charger: float, initial_var_charger: float,
) -> dict[str, float]:
    """Sweep quantities from series on a uniform time grid and its energy peak;
    averages run over the window [0, t_f], which is all ``fisher`` must cover."""
    stop = _window(times, peak.t_f)
    dt = float(times[1] - times[0])
    avg_var = time_average(var_battery[:stop], dt)
    avg_fisher = time_average(fisher[:stop], dt)
    avg_power = peak.energy_max / peak.t_f if peak.t_f > 0 else 0.0
    idx = int(np.argmin(np.abs(times - peak.t_f)))
    return {
        "energy_at_tf": peak.energy_max,
        "avg_power": avg_power,
        "avg_var_battery": avg_var,
        "avg_fisher_energy": avg_fisher,
        "rel_final_std": bound_ratio(np.sqrt(max(var_battery[idx], 0.0)), energy[idx]),
        "cos_theta_timeavg": cos_theta_power(avg_power, avg_var, avg_fisher),
        "cos_theta_timeavg_heis": cos_theta_power(avg_power, avg_var * 4.0, avg_var_charger),
        "initial_var_charger": initial_var_charger,
        "t_f": peak.t_f,
        "t_f_at_boundary": float(peak.at_boundary),
    }


def trajectory_quantities(traj: Trajectory, peak: PeakResult | None = None) -> dict[str, float]:
    """All sweep quantities derivable from one dense trajectory."""
    peak = peak or find_tf(traj)
    stop = _window(traj.times, peak.t_f)
    out = _window_quantities(
        traj.times, peak, traj.energy, traj.var_battery, traj.fisher_energy,
        time_average(traj.var_charger[:stop], traj.dt), float(traj.var_charger[0]),
    )
    if traj.spec.family == "dicke":
        idx = min(stop - 1, traj.n_steps - 1)
        out["final_battery_entropy"] = float(
            battery_entanglement_entropy(traj.state_at(idx))
        )
    return out


def chain_analytic_quantities(
    spec: ModelSpec, lam_t_max: float | None = None, steps: int = DEFAULT_STEPS
) -> dict[str, float]:
    """Sweep quantities for a chain through the free-fermion path (any even N)."""
    modes = dispersion(spec)
    times = time_grid(spec, lam_t_max, steps)
    series = observables_on_grid(modes, times)

    peak = find_peak_time(
        times, series["energy"], lambda t: observables_on_grid(modes, np.array([t]))["energy"][0]
    )
    fisher = fisher_energy_series(modes, times[: _window(times, peak.t_f)])
    return _window_quantities(
        times, peak, series["energy"], series["var_battery"], fisher,
        modes.var_charger, modes.var_charger,
    )


def _check_path(spec: ModelSpec, path: str) -> None:
    if path not in SWEEP_PATHS:
        raise ValidationError(
            f"sweep.path: unknown evaluation path {path!r} (expected one of {SWEEP_PATHS})"
        )
    if path == "analytic" and spec.family != "jw_chain":
        raise ValidationError(f"sweep.path: 'analytic' exists only for jw_chain, not {spec.family}")


def _analytic(spec: ModelSpec, path: str) -> bool:
    """Whether a point goes to the free-fermion path rather than the dense one."""
    return spec.family == "jw_chain" and (
        path == "analytic" or (path == "auto" and spec.n_cells % 2 == 0)
    )


def quantities_for(
    spec: ModelSpec, lam_t_max: float | None = None, steps: int = DEFAULT_STEPS, path: str = "auto"
) -> dict[str, float]:
    """Dispatch between dense and analytic evaluation of the sweep quantities."""
    _check_path(spec, path)
    if _analytic(spec, path):
        return chain_analytic_quantities(spec, lam_t_max, steps)
    return trajectory_quantities(run_trajectory(spec, lam_t_max, steps))


def check_sweep(
    spec: ModelSpec, parameter: str, values, quantity: str, path: str, steps: int = DEFAULT_STEPS
) -> None:
    """Raise ValidationError, naming the config key, unless the sweep is well formed
    and each point can be specified and passes its path's size rule over ``steps``
    times (CapacityLimitError for a gamma sweep's base spec); no point runs."""
    if parameter not in ("N", "gamma"):
        raise ValidationError(f"sweep.parameter: expected 'N' or 'gamma', got {parameter!r}")
    if parameter == "gamma" and spec.family != "lmg":
        raise ValidationError(
            f"sweep.parameter: 'gamma' is an lmg parameter, not a {spec.family} one"
        )
    if quantity not in SWEEP_QUANTITIES:
        raise ValidationError(
            f"sweep.quantity: unknown quantity {quantity!r} (expected one of {SWEEP_QUANTITIES})"
        )
    _check_path(spec, path)
    values = list(values)
    if parameter == "gamma":
        if not values:
            raise ValidationError("sweep.values: a gamma sweep needs at least one value")
        check_dense_size(spec, steps)
        return
    if values != sorted(set(values)):
        raise ValidationError("sweep.values: N list must be strictly increasing")
    if len(values) < 4:
        raise ValidationError(f"sweep.values: an N sweep needs at least 4 values, got {len(values)}")
    for n in values:
        try:  # the size rule of the path that evaluates the point
            point = _respecify(spec, int(n))
            if _analytic(point, path):
                check_even_chain(point.n_cells)
            else:
                check_dense_size(point, steps)
        except (ValidationError, CapacityLimitError) as exc:
            raise ValidationError(f"sweep.values: N = {n}: {exc}") from exc


def sweep(
    spec: ModelSpec, parameter: str, values, lam_t_max: float | None = None,
    steps: int = DEFAULT_STEPS, path: str = "auto",
) -> list[dict[str, float]]:
    """The sweep quantities at each value of ``parameter`` ("N" or "gamma"), one
    dictionary per value, evaluated one after another; the dense points
    already spread over the BLAS threads."""
    specs = [
        _respecify(spec, int(v)) if parameter == "N" else replace(spec, gamma=float(v))
        for v in values
    ]
    return [quantities_for(s, lam_t_max, steps, path) for s in specs]


def sweep_scaling(
    base_spec: ModelSpec, n_values, quantity: str, lam_t_max: float | None = None,
    steps: int = DEFAULT_STEPS, path: str = "auto",
) -> tuple[ScalingResult, list[dict[str, float]]]:
    """Evaluate one quantity over an N sweep and fit its scaling exponent;
    returns the fit plus the per-N quantity dictionaries (one CSV row each)."""
    n_values = [int(n) for n in n_values]
    check_sweep(base_spec, "N", n_values, quantity, path, steps)
    rows = sweep(base_spec, "N", n_values, lam_t_max, steps, path)
    return fit_exponent(n_values, [row[quantity] for row in rows], quantity), rows


def _respecify(spec: ModelSpec, n: int) -> ModelSpec:
    """Copy a model spec at a different cell count, rescaling layout fields."""
    if spec.family == "hybrid":
        if n % spec.r != 0:
            raise ValidationError(f"hybrid block size r = {spec.r} does not divide N")
        return replace(spec, n_cells=n, q=n // spec.r)
    if spec.family == "jw_chain" and len(spec.lambdas) > 1:
        # Recognized coupling laws are re-extended to the new size; anything
        # else has no defined N dependence.
        for kind in ("xx", "xy"):
            if (spec.lambdas, spec.gammas) == power_law_couplings(spec.n_cells, kind):
                lambdas, gammas = power_law_couplings(n, kind)
                return replace(spec, n_cells=n, lambdas=lambdas, gammas=gammas)
        raise ValidationError("a multi-range chain with custom couplings has no N dependence")
    return replace(spec, n_cells=n)
