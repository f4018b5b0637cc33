"""Certification of trajectories against every implemented inequality, one
column-wise certifier for in-memory runs and emitted CSVs, the closed-form
benchmark table for the three reference chargers, and the numerical oracle
cross-checks behind the ``validate`` command."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bounds, freefermion, observables
from .capacity import EnergyAmplitudeReport, energy_amplitude_check
from .linalg import RECONSTRUCTION_ATOL, StateVector, eigendecompose, evolve
from .models import (
    CHAIN_VARIANTS,
    ModelSpec,
    build_charger_paradigmatic,
    chain_spec,
    battery_cell_terms,
)
from .trajectory import Trajectory, find_tf, run_trajectory


@dataclass(frozen=True)
class Violation:
    label: str
    t: float
    lhs: float
    rhs: float


# Every inequality as (lhs, rhs) over named trajectory columns; in memory I_E
# is the untruncated Fisher sum.  The CSV path has no rates or N, so it cannot
# re-check the moment-rate or producibility bounds, and its I_E column is
# floored (a lower bound), so it checks the power bounds from the emitted
# ratio columns, with rhs = P^2 / ratio.
INEQUALITIES = {
    "fisher_power": lambda c: (c["P"] ** 2, c["var_HB"] * c["I_E"]),
    "fisher_power_ratio": lambda c: (c["P"] ** 2, c["P"] ** 2 / c["bound_ratio_cor1"]),
    "moment_rate_m1": lambda c: bounds.moment_rate_series(c["levels"], c["p"], c["p_dot"], 1),
    "moment_rate_m2": lambda c: bounds.moment_rate_series(c["levels"], c["p"], c["p_dot"], 2),
    "heisenberg_power": lambda c: (c["P"] ** 2, 4.0 * c["var_HB"] * c["var_HC"]),
    "heisenberg_ratio": lambda c: (c["P"] ** 2, c["P"] ** 2 / c["bound_ratio_heis"]),
    "dephasing_fisher": lambda c: (c["I_E"], 4.0 * c["var_HC"]),
    "fisher_vs_state": lambda c: (c["I_E"], c["I_Q"]),
    "entanglement_power": lambda c: (c["P"] ** 2, c["producibility_cap"] * c["I_E"]),
    "cos_theta_range": lambda c: (np.abs(c["cos_theta_P"]), np.full_like(c["t"], 1.0 + 1e-6)),
}
MEMORY_BOUNDS = ("fisher_power", "moment_rate_m1", "moment_rate_m2", "heisenberg_power",
                 "dephasing_fisher", "fisher_vs_state", "entanglement_power")
CSV_BOUNDS = ("fisher_power_ratio", "heisenberg_ratio", "heisenberg_power",
              "dephasing_fisher", "fisher_vs_state", "cos_theta_range")


@dataclass
class CertificationReport:
    """Outcome of checking trajectory columns: per inequality its violated steps
    (``masks``), its check and violation counts and its worst ratio, the largest
    finite ``bounds.bound_ratio`` or 0 (``per_bound``).  The
    amplitude and witness are known only in memory."""

    n_steps: int
    n_checks: int
    violations: list[Violation]  # ordered by step, then by inequality
    masks: dict[str, np.ndarray]
    per_bound: dict[str, dict]
    amplitude: EnergyAmplitudeReport | None = None
    witness_block_max: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and (self.amplitude is None or self.amplitude.satisfied)

    @property
    def max_ratio_fisher_power(self) -> float:
        return self.per_bound["fisher_power"]["worst_ratio"]

    @property
    def max_ratio_heisenberg(self) -> float:
        return self.per_bound["heisenberg_power"]["worst_ratio"]

    def to_dict(self) -> dict:
        out = {"ok": self.ok, "n_steps": self.n_steps, "n_checks": self.n_checks,
               "violations": [asdict(v) for v in self.violations], "bounds": self.per_bound}
        if self.amplitude is not None:
            out.update(stored_fraction=self.amplitude.stored_fraction,
                       amplitude_satisfied=self.amplitude.satisfied,
                       max_ratio_fisher_power=self.max_ratio_fisher_power,
                       max_ratio_heisenberg=self.max_ratio_heisenberg,
                       witness_block_max=self.witness_block_max)
        return out


def certify_series(
    columns: dict[str, np.ndarray], labels: tuple[str, ...], undefined_fails: bool
) -> CertificationReport:
    """Check each labelled inequality at every step under bounds.within_tolerance.
    A NaN on either side is a violation with ``undefined_fails`` (computed
    series), else a skipped, uncounted step (an empty CSV field)."""
    t = columns["t"]
    masks, per_bound, found = {}, {}, []
    for j, label in enumerate(labels):
        with np.errstate(divide="ignore", invalid="ignore"):
            lhs, rhs = INEQUALITIES[label](columns)
        defined = np.ones(len(t), bool) if undefined_fails else ~(np.isnan(lhs) | np.isnan(rhs))
        masks[label] = bad = defined & ~bounds.within_tolerance(lhs, rhs)
        found += [(i, j, Violation(label, float(t[i]), float(lhs[i]), float(rhs[i])))
                  for i in np.flatnonzero(bad)]
        ratios = bounds.bound_ratio(lhs, rhs)
        worst = float(ratios[np.isfinite(ratios)].max(initial=0.0))
        per_bound[label] = {"checks": int(defined.sum()), "violations": int(bad.sum()), "worst_ratio": worst}
    n_checks = sum(b["checks"] for b in per_bound.values())
    return CertificationReport(len(t), n_checks, [v for *_, v in sorted(found)], masks, per_bound)


def certify_trajectory(traj: Trajectory) -> CertificationReport:
    """Check the full inequality set at each step of a trajectory.

    Per step: the power bound P^2 <= var(H_B) I_E, the moment-rate bounds for
    m = 1 and m = 2, the Heisenberg comparison, the dephasing relation
    I_E <= 4 var(H_C), I_E <= I_Q, and the producibility power cap with the
    block size certified from the same state's variance, all as whole columns.
    The stored-energy amplitude is checked against the diagram caps once.
    """
    k, cap = bounds.witness_block_sizes(traj.var_battery, traj.spec.n_cells)
    columns = {
        "t": traj.times, "P": traj.power, "var_HB": traj.var_battery, "var_HC": traj.var_charger,
        "I_E": traj.fisher_energy_full, "I_Q": traj.fisher_state, "producibility_cap": cap,
        "levels": traj.levels.energies, "p": np.ascontiguousarray(traj.populations.T),
        "p_dot": np.ascontiguousarray(traj.population_rates.T),
    }
    report = certify_series(columns, MEMORY_BOUNDS, undefined_fails=True)
    report.amplitude = energy_amplitude_check(
        traj.energy, traj.levels.energies, traj.initial_energy
    )
    report.witness_block_max = int(k.max())
    return report


# ---------------------------------------------------------------------------
# Closed-form benchmark table for the parallel / global / hybrid chargers.
# Every analytic entry (operator norm, peak time, charger variance, Fisher
# information, stored energy, battery variance, its correlation part, the
# certified entanglement block, and power-bound saturation) is compared
# against simulation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellCheck:
    family: str
    n_cells: int
    q: int | None
    r: int | None
    cell: str
    expected: float
    actual: float
    passed: bool


@dataclass
class TableReport:
    cells: list[CellCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def failed(self) -> list[CellCheck]:
        return [c for c in self.cells if not c.passed]


def _rel_close(actual: float, expected: float, tol: float) -> bool:
    return abs(actual - expected) <= tol * abs(expected) + 1e-10


def _divisor_pairs(n: int) -> list[tuple[int, int]]:
    return [(q, n // q) for q in range(1, n + 1) if n % q == 0]


def benchmark_specs(n: int, lam: float) -> list[ModelSpec]:
    specs = [
        ModelSpec(family="parallel", n_cells=n, lam=lam),
        ModelSpec(family="global", n_cells=n, lam=lam),
    ]
    specs += [
        ModelSpec(family="hybrid", n_cells=n, lam=lam, q=q, r=r)
        for q, r in _divisor_pairs(n)
    ]
    return specs


def _expected_entries(spec: ModelSpec) -> dict[str, float]:
    n, lam = spec.n_cells, spec.lam
    if spec.family == "parallel":
        blocks, block_size = n, 1
    elif spec.family == "global":
        blocks, block_size = 1, n
    else:
        blocks, block_size = spec.q, spec.r
    return {
        "charger_norm": blocks * lam,
        "var_charger": blocks * lam**2,
        "fisher_energy": 4 * blocks * lam**2,
        "witness_block": block_size,
        "var_prefactor": n * block_size,  # var(H_B) = N r p (1-p)
        "corr_prefactor": n * (block_size - 1),  # correlation part
    }


def verify_benchmark_table(
    n_values=(2, 4, 6, 8),
    lam: float = 1.0,
    seed: int = 0,
    rel_tol: float = 1e-8,
    n_times: int = 20,
) -> TableReport:
    """Check every closed-form table entry against simulation.

    Time-dependent rows are checked at ``n_times`` seeded random times inside
    the charging window; the peak-time row checks that the stored energy at
    lam*t = pi/2 equals N and that the refined peak agrees with pi/2 at the
    peak search's own resolution (function-value maximization cannot localize
    a smooth peak beyond ~sqrt(machine epsilon)).
    """
    rng = np.random.default_rng(seed)
    report = TableReport()
    for n in n_values:
        for spec in benchmark_specs(n, lam):
            _verify_one_model(spec, rng, rel_tol, n_times, report)
    return report


def _verify_one_model(spec, rng, rel_tol, n_times, report: TableReport):
    n, lam = spec.n_cells, spec.lam
    expected = _expected_entries(spec)
    cells = []

    def add(cell, exp, act, tol=rel_tol):
        cells.append(
            CellCheck(
                family=spec.family,
                n_cells=n,
                q=spec.q,
                r=spec.r,
                cell=cell,
                expected=float(exp),
                actual=float(act),
                passed=_rel_close(float(act), float(exp), tol),
            )
        )

    traj = run_trajectory(spec, steps=400)
    charger = traj.charger
    battery = eigendecompose(traj.battery)
    add("charger_norm", expected["charger_norm"], charger.norm())
    add("var_charger_t0", expected["var_charger"], traj.var_charger[0])

    # Peak-time row: E at the analytic peak time equals the full capacity N.
    t_star = math.pi / (2 * lam)
    add("energy_at_peak", n, traj.stored_energy_at(t_star))
    peak = find_tf(traj)
    add("lam_t_peak", math.pi / 2, lam * peak.t_f, tol=1e-5)

    times = (0.02 + 0.96 * rng.random(n_times)) * t_star
    cell_terms = battery_cell_terms(n)
    keys = ("energy", "var_battery", "fisher_energy", "corr", "power_ratio")
    worst = {key: (0.0, 1.0, -1.0) for key in keys}  # (expected, actual, margin)
    for t in times:
        psi = evolve(charger, traj.psi0, t)
        p_exc = math.sin(lam * t) ** 2
        rec = observables.populations_and_rates(psi, battery, charger, t)
        measured = {
            "energy": observables.stored_energy(psi, battery, traj.psi0),
            "var_battery": observables.variance(psi, battery),
            "fisher_energy": observables.fisher_energy(rec),
        }
        expected_t = {
            "energy": n * p_exc,
            "var_battery": expected["var_prefactor"] * p_exc * (1 - p_exc),
            "fisher_energy": expected["fisher_energy"],
        }
        _, corr = observables.variance_decomposition(psi, cell_terms)
        measured["corr"] = corr
        expected_t["corr"] = expected["corr_prefactor"] * p_exc * (1 - p_exc)
        pw = observables.power(psi, battery, charger)
        measured["power_ratio"] = pw**2 / (
            measured["var_battery"] * measured["fisher_energy"]
        )
        expected_t["power_ratio"] = 1.0
        for key in keys:
            exp_k, act_k = expected_t[key], measured[key]
            margin = abs(act_k - exp_k) - (rel_tol * abs(exp_k) + 1e-10)
            if margin > worst[key][2]:
                worst[key] = (exp_k, act_k, margin)
    for key in keys:
        exp_k, act_k, _ = worst[key]
        add(key + "_sampled", exp_k, act_k)

    # Entanglement witness at the half-charged point, where the blocks are GHZ.
    psi_half = evolve(charger, traj.psi0, math.pi / (4 * lam))
    var_half = observables.variance(psi_half, battery)
    k = bounds.witness_entangled_block_size(var_half, n)
    add("witness_block", expected["witness_block"], k, tol=0.0)

    report.cells.extend(cells)


# ---------------------------------------------------------------------------
# Oracle cross-checks (shared by the `validate` command and the test suite).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    detail: str


def rk4_evolve(matrix: np.ndarray, amplitudes: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Fixed-step classical Runge-Kutta integration of the Schrodinger equation."""
    h = t / steps
    psi = amplitudes.astype(complex)

    def rhs(v):
        return -1j * (matrix @ v)

    for _ in range(steps):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * h * k1)
        k3 = rhs(psi + 0.5 * h * k2)
        k4 = rhs(psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psi


def rk4_evolve_adaptive(matrix: np.ndarray, amplitudes: np.ndarray, t: float, tol: float = 1e-10) -> np.ndarray:
    """Step-halving Runge-Kutta reference: refine until successive grids agree."""
    steps = 64
    prev = rk4_evolve(matrix, amplitudes, t, steps)
    for _ in range(12):
        steps *= 2
        cur = rk4_evolve(matrix, amplitudes, t, steps)
        if np.abs(cur - prev).max() < tol:
            return cur
        prev = cur
    return prev


def chain_oracle_comparison(
    n_cells: int, variant: str, n_times: int = 50, lam_t_max: float = 10.0
) -> dict[str, float]:
    """Max deviation between the free-fermion path and dense diagonalization.

    Compares stored energy, power, battery variance, the even particle-number
    distribution and its rate, and the Fisher information on a shared grid;
    also checks that odd particle numbers stay unpopulated in the dense run.
    """
    spec = chain_spec(variant, n_cells)
    traj = run_trajectory(spec, lam_t_max=lam_t_max, steps=n_times)
    modes = freefermion.dispersion(spec)
    series = freefermion.observables_on_grid(modes, traj.times)
    worst = {k: 0.0 for k in ("energy", "power", "var_battery", "p", "p_dot", "fisher", "odd_p")}
    for key, dense in (("energy", traj.energy), ("power", traj.power), ("var_battery", traj.var_battery)):
        worst[key] = float(np.abs(series[key] - dense).max())
    for i, t in enumerate(traj.times):
        dist = freefermion.pair_distribution(modes, float(t))
        fisher = freefermion.fisher_energy_analytic(dist)
        p_levels = traj.populations[:, i]
        pdot_levels = traj.population_rates[:, i]
        worst["p"] = max(worst["p"], np.abs(p_levels[::2] - dist.p).max())
        worst["p_dot"] = max(worst["p_dot"], np.abs(pdot_levels[::2] - dist.p_dot).max())
        worst["odd_p"] = max(worst["odd_p"], np.abs(p_levels[1::2]).max())
        worst["fisher"] = max(worst["fisher"], abs(fisher - traj.fisher_energy[i]))
    return worst


def run_oracle_checks(seed: int = 1) -> list[OracleCheck]:
    """The full independent-oracle battery behind the ``validate`` command."""
    from .linalg import random_hermitian

    checks = []
    rng = np.random.default_rng(seed)

    op = eigendecompose(random_hermitian(6, rng))
    recon = (op.eigenvectors * op.eigenvalues) @ op.eigenvectors.conj().T
    dev = np.abs(recon - op.matrix).max()
    ok = dev < RECONSTRUCTION_ATOL
    checks.append(OracleCheck("eigendecomposition_reconstruction", ok, f"max dev {dev:.2e}"))

    amp = rng.normal(size=6) + 1j * rng.normal(size=6)
    amp /= np.linalg.norm(amp)
    psi0 = StateVector(amp, op.basis)
    spectral = evolve(op, psi0, 0.7).amplitudes
    stepped = rk4_evolve_adaptive(op.matrix, amp, 0.7)
    dev = np.abs(spectral - stepped).max()
    checks.append(OracleCheck("spectral_vs_runge_kutta", dev < 1e-8, f"max dev {dev:.2e}"))

    spec = chain_spec("xx_nn", 6)
    traj = run_trajectory(spec, steps=40)
    h = 1e-5
    dev = 0.0
    for t in traj.times[5:35:6]:
        fd = (traj.stored_energy_at(t + h) - traj.stored_energy_at(t - h)) / (2 * h)
        psi = evolve(traj.charger, traj.psi0, float(t))
        dev = max(dev, abs(fd - observables.power(psi, traj.battery, traj.charger)))
    checks.append(OracleCheck("power_vs_finite_difference", dev < 1e-6, f"max dev {dev:.2e}"))

    lmg = ModelSpec(family="lmg", n_cells=10, lam=5.0, gamma=-1.0)
    traj = run_trajectory(lmg, steps=60)
    dev = 0.0
    for t in traj.times[4:56:7]:
        t = float(t)
        recs = [
            observables.populations_and_rates(
                evolve(traj.charger, traj.psi0, t + s * h), traj.battery, traj.charger
            )
            for s in (-1, 1)
        ]
        fd = (recs[1].p - recs[0].p) / (2 * h)
        exact = observables.populations_and_rates(
            evolve(traj.charger, traj.psi0, t), traj.battery, traj.charger
        ).p_dot
        dev = max(dev, np.abs(fd - exact).max())
    checks.append(OracleCheck("population_rate_vs_finite_difference", dev < 1e-7, f"max dev {dev:.2e}"))

    worst_all = 0.0
    for variant in CHAIN_VARIANTS:
        for n in (4, 6, 8, 10):
            worst = chain_oracle_comparison(n, variant)
            worst_all = max(worst_all, max(worst.values()))
    checks.append(
        OracleCheck("chain_analytic_vs_dense", worst_all < 1e-6, f"max dev {worst_all:.2e}")
    )

    spec = ModelSpec(family="hybrid", n_cells=6, lam=1.0, q=3, r=2)
    charger = eigendecompose(build_charger_paradigmatic(spec))
    from .models import build_battery, initial_state

    battery = eigendecompose(build_battery(6))
    psi = evolve(charger, initial_state(spec), 0.6)
    local, corr = observables.variance_decomposition(psi, battery_cell_terms(6))
    total = observables.variance(psi, battery)
    dev = abs(local + corr - total)
    checks.append(OracleCheck("variance_decomposition_closure", dev < 1e-9, f"dev {dev:.2e}"))

    return checks
