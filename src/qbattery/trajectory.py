"""Exact trajectory runs: batch propagation plus vectorized observables.

A trajectory holds the full time grid of states and the derived series
(stored energy, power, variances, level populations and rates, Fisher
informations, bound saturation ratio).  Scalar observables are computed from
the battery level populations, so bound checks and reported values share one
arithmetic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import (
    Basis,
    HermitianOperator,
    LevelStructure,
    StateVector,
    eigendecompose,
    evolve_batch,
)
from .models import (
    ModelSpec,
    build_battery_for,
    build_charger_for,
    excitation_counts,
    initial_state,
    model_basis,
)
from .observables import POPULATION_FLOOR, cos_theta_power, fisher_sum

DEFAULT_STEPS = 2000
DEFAULT_LAM_T_MAX = {
    "parallel": 1.2 * math.pi / 2,
    "global": 1.2 * math.pi / 2,
    "hybrid": 1.2 * math.pi / 2,
    "jw_chain": 10.0,
    "lmg": 6.0,
    "dicke": 20.0,
}
FOCK_LEAK_TOL = 1e-8
MAX_FOCK_DOUBLINGS = 4
FOCK_SCREEN_STRIDE = 10


@dataclass
class Trajectory:
    """Uniform-grid charging run with per-step derived series; ``spec`` is the
    spec that ran, with the Fock cutoff a cavity run used."""

    spec: ModelSpec
    times: np.ndarray
    states: np.ndarray  # (dim, T), column per grid time
    battery_order: np.ndarray  # basis indices in stable ladder order, level by level
    charger: HermitianOperator
    levels: LevelStructure
    psi0: StateVector
    charger_amplitudes: np.ndarray  # V^dag psi0 on the charger eigenvectors, taken once
    initial_energy: float  # absolute <H_B> at t = 0
    populations: np.ndarray  # (L, T)
    population_rates: np.ndarray  # (L, T)
    energy: np.ndarray  # stored energy, relative to t = 0
    power: np.ndarray
    var_battery: np.ndarray
    var_charger: np.ndarray
    fisher_energy: np.ndarray
    fisher_energy_full: np.ndarray  # untruncated, used by bound certification
    fisher_state: np.ndarray
    cos_theta: np.ndarray
    fock_edge_population: float = 0.0

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return len(self.times)

    def state_at(self, index: int) -> StateVector:
        return StateVector(self.states[:, index], self.psi0.basis)

    @cached_property
    def battery(self) -> HermitianOperator:
        """The battery in the run's basis, built on first use; no step of the
        run reads it, only the independent oracles do."""
        return build_battery_for(self.spec)

    def stored_energy_at(self, t: float) -> float:
        """Exact stored energy at an arbitrary (off-grid) time."""
        psi = evolve_batch(self.charger, self.charger_amplitudes, np.array([t]))[:, 0]
        overlaps = psi[self.battery_order]
        energies = np.repeat(self.levels.energies, self.levels.multiplicities)
        return float(np.abs(overlaps) ** 2 @ energies - self.initial_energy)


def time_grid(spec: ModelSpec, lam_t_max: float | None = None, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Uniform grid over [0, t_max] with t_max given in units of 1/lam."""
    if steps < 2:
        raise ValidationError("time grid needs at least 2 steps")
    if not spec.lam > 0:
        raise ValidationError(f"the charging frequency lam must be positive, got {spec.lam}")
    if lam_t_max is None:
        lam_t_max = DEFAULT_LAM_T_MAX[spec.family]
    if lam_t_max <= 0:
        raise ValidationError("lam_t_max must be positive")
    return np.linspace(0.0, lam_t_max / spec.lam, steps)


def _fock_edge_population(states: np.ndarray, basis: Basis) -> float:
    blocks = states.reshape(basis.n_cells + 1, basis.n_max + 1, -1)
    edge = np.abs(blocks[:, basis.n_max - 1 :, :]) ** 2
    return float(edge.sum(axis=(0, 1)).max())


def _run_fixed(
    spec: ModelSpec, times: np.ndarray, charger: HermitianOperator, psi0: StateVector,
    amplitudes: np.ndarray,
) -> Trajectory:
    """The run on the grid under an eigendecomposed charger, in its basis,
    from psi0's ``amplitudes`` on the charger eigenvectors."""
    states = evolve_batch(charger, amplitudes, times)

    # The battery is an excitation ladder: level k, at energy k - N/2, holds
    # the basis states with k excited cells.  Its eigenbasis is a row gather
    # of the basis in stable level order, not a permutation-matrix product.
    n = spec.n_cells
    counts = excitation_counts(charger.basis)
    order = np.argsort(counts, kind="stable")
    levels = LevelStructure(
        energies=np.arange(n + 1) - n / 2,
        starts=np.concatenate(([0], np.cumsum(np.bincount(counts, minlength=n + 1)))),
    )
    overlaps = states[order]
    driven = (charger.matrix @ states)[order]
    starts = levels.starts[:-1]
    populations = np.add.reduceat(np.abs(overlaps) ** 2, starts, axis=0)
    rates = 2.0 * np.add.reduceat((overlaps.conj() * driven).imag, starts, axis=0)

    e_levels = levels.energies
    energy_abs = e_levels @ populations
    initial_energy = float(energy_abs[0])
    energy = energy_abs - initial_energy
    power = e_levels @ rates
    var_battery = e_levels**2 @ populations - energy_abs**2

    # H_C is conserved, so its eigenbasis weights are those of psi0 at all times.
    charger_weights = np.abs(amplitudes) ** 2
    mean_c = charger.eigenvalues @ charger_weights
    var_charger = np.full(len(times), charger_weights @ (charger.eigenvalues - mean_c) ** 2)

    fisher_energy = fisher_sum(populations, rates, POPULATION_FLOOR)
    # Untruncated sum for bound certification: the floor drops a real Fisher
    # share (up to ~1e-7 of the total near full charge), which would break
    # saturated inequality checks at the 1e-8 tolerance.  Exact zeros are
    # masked; symmetry-protected zeros contribute only noise^2 terms.
    fisher_energy_full = fisher_sum(populations, rates, 0.0)
    fisher_state = 4.0 * var_charger  # pure-state trajectories

    return Trajectory(
        spec=spec,
        times=times,
        states=states,
        battery_order=order,
        charger=charger,
        levels=levels,
        psi0=psi0,
        charger_amplitudes=amplitudes,
        initial_energy=initial_energy,
        populations=populations,
        population_rates=rates,
        energy=energy,
        power=power,
        var_battery=np.maximum(var_battery, 0.0),
        var_charger=var_charger,
        fisher_energy=fisher_energy,
        fisher_energy_full=fisher_energy_full,
        fisher_state=fisher_state,
        cos_theta=cos_theta_power(power, var_battery, fisher_energy),
    )


def _charger_and_state(spec: ModelSpec):
    """The eigendecomposed charger, the initial state and its amplitudes on
    the charger eigenvectors, for a spec."""
    charger, psi0 = eigendecompose(build_charger_for(spec)), initial_state(spec)
    return charger, psi0, charger.to_eigenbasis(psi0.amplitudes)


def _screen_times(times: np.ndarray) -> np.ndarray:
    """Every FOCK_SCREEN_STRIDE-th grid time, counted back from the last."""
    return times[::-FOCK_SCREEN_STRIDE][::-1]


def run_trajectory(
    spec: ModelSpec, lam_t_max: float | None = None, steps: int = DEFAULT_STEPS
) -> Trajectory:
    """Charge from the model's initial state over a uniform grid.

    For the cavity model with no explicit n_max, the Fock cutoff starts at
    the default of :func:`models.model_basis` and doubles until the
    population within one level of the cutoff stays below 1e-8 over the
    whole window; each cutoff runs as the spec with that n_max, and the one
    that converges is the trajectory's spec.  Each cutoff is screened first
    on a strided subset of the grid: the subset's leak is at most the whole
    grid's, so a cutoff that fails the screen would fail the full run too,
    and only a cutoff that passes it is run (and checked) on the whole grid.
    """
    times = time_grid(spec, lam_t_max, steps)
    if spec.family != "dicke" or spec.n_max is not None:
        traj = _run_fixed(spec, times, *_charger_and_state(spec))
        if spec.family == "dicke":
            traj.fock_edge_population = _fock_edge_population(traj.states, traj.psi0.basis)
        return traj

    screen = _screen_times(times)
    cutoffs = [model_basis(spec).n_max * 2**k for k in range(MAX_FOCK_DOUBLINGS + 1)]
    for n_max in cutoffs:
        cutoff = replace(spec, n_max=n_max)
        charger, psi0, amplitudes = _charger_and_state(cutoff)
        if _fock_edge_population(evolve_batch(charger, amplitudes, screen), psi0.basis) < FOCK_LEAK_TOL:
            traj = _run_fixed(cutoff, times, charger, psi0, amplitudes)
            traj.fock_edge_population = _fock_edge_population(traj.states, psi0.basis)
            if traj.fock_edge_population < FOCK_LEAK_TOL:
                return traj
    raise ValidationError(
        f"Fock cutoff did not converge below leakage {FOCK_LEAK_TOL} "
        f"after {MAX_FOCK_DOUBLINGS} doublings (tried n_max = {', '.join(map(str, cutoffs))})"
    )


@dataclass(frozen=True)
class PeakResult:
    t_f: float
    energy_max: float
    at_boundary: bool


def _golden_maximize(f, a: float, b: float, rel_tol: float) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    scale = max(abs(a), abs(b), 1e-12)
    while (b - a) > rel_tol * scale:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def find_peak_time(
    times: np.ndarray,
    energies: np.ndarray,
    evaluator,
    rel_tol: float = 1e-6,
) -> PeakResult:
    """Grid argmax of the stored energy refined by golden-section search.

    ``evaluator(t)`` must return the exact stored energy at arbitrary t.  The
    refined value never falls below the grid maximum; a peak sitting on the
    final grid point is flagged instead of refined.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if len(times) < 3:
        raise ValidationError("need at least 3 grid points to locate a peak")
    idx = int(np.argmax(energies))
    if idx == len(times) - 1:
        return PeakResult(t_f=float(times[idx]), energy_max=float(energies[idx]), at_boundary=True)
    if idx == 0:
        return PeakResult(t_f=float(times[0]), energy_max=float(energies[0]), at_boundary=False)
    t_ref, e_ref = _golden_maximize(evaluator, times[idx - 1], times[idx + 1], rel_tol)
    if e_ref < energies[idx]:
        t_ref, e_ref = float(times[idx]), float(energies[idx])
    return PeakResult(t_f=float(t_ref), energy_max=float(e_ref), at_boundary=False)


def find_tf(traj: Trajectory, rel_tol: float = 1e-6) -> PeakResult:
    """Refined time of maximal stored energy for a computed trajectory."""
    return find_peak_time(traj.times, traj.energy, traj.stored_energy_at, rel_tol)
