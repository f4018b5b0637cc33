"""Charging runs: one record of per-step series from either of two backends.

A :class:`Trajectory` holds the time grid and the series a run computes
(stored energy, power, battery variance, level populations and rates, Fisher
informations, bound saturation ratio), the conserved charger variance and an
``energy_at(t)`` callable for off-grid peak refinement; certification, the CSV
writer, the peak search and the sweeps read only that.  One builder,
:func:`_record`, derives the Fisher series and cos theta for both backends.
The dense backend propagates the state vector in the model's basis, one
TIME_CHUNK block of times at a time, and keeps the charger and psi0, not the
states: ``state_at`` re-propagates the block that holds a time.  The free-fermion
backend builds a ``jw_chain`` run of any N from its mode set
(:mod:`freefermion`), with no state vector.  Scalar observables are
computed from the battery level populations, so bound checks and reported
values share one arithmetic path.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .freefermion import (
    check_chain_size,
    dispersion,
    distribution_blocks,
    observables_on_grid,
)
from .linalg import (
    Basis,
    HermitianOperator,
    StateVector,
    eigendecompose,
    evolve_batch,
)
from .models import (
    TIME_CHUNK,
    ModelSpec,
    build_battery_for,
    build_charger_for,
    check_dense_size,
    excitation_counts,
    initial_state,
    model_basis,
    register_spectrum,
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
PATHS = ("auto", "dense", "analytic")
PEAK_MIN_POINTS = 3  # a grid peak needs a neighbour on each side to be refined
PEAK_REL_TOL = 1e-6  # golden-section bracket width, relative to its scale


@dataclass
class Trajectory:
    """Uniform-grid charging run: what a run computes, built by :func:`_record`
    for both backends.  ``spec`` is the spec that ran, with the Fock cutoff a
    cavity run used; the battery levels are those of its N cells,
    ``models.register_spectrum(spec.n_cells)``.  H_C is conserved, so its
    variance is one number (and I_Q = 4 var(H_C) for these pure-state runs).
    The last two fields belong to the dense backend and are None on a
    free-fermion run; no backend keeps the states."""

    spec: ModelSpec
    times: np.ndarray
    initial_energy: float  # absolute <H_B> at t = 0
    populations: np.ndarray  # (N + 1, T), level k at energy k - N/2
    population_rates: np.ndarray  # (N + 1, T)
    energy: np.ndarray  # stored energy, relative to t = 0
    power: np.ndarray
    var_battery: np.ndarray
    var_charger: float
    fisher_energy: np.ndarray
    fisher_energy_full: np.ndarray  # untruncated, used by bound certification
    cos_theta: np.ndarray
    energy_at: Callable[[float], float]  # exact stored energy at an arbitrary (off-grid) time
    fock_edge_population: float = 0.0  # max population within one level of a Fock cutoff
    charger: HermitianOperator | None = None
    psi0: StateVector | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def backend(self) -> str:
        return "dense" if self.charger is not None else "free-fermion"

    def _require_dense(self, what: str) -> None:
        if self.charger is None:
            raise ValidationError(
                f"a free-fermion run holds no {what}; run the chain with path='dense'"
            )

    def state_at(self, index: int) -> StateVector:
        """The run's state at grid time ``index``, bit for bit: the block of
        times that holds it, propagated again as the run propagated it."""
        self._require_dense("states")
        index = range(self.n_steps)[index]
        block = next(b for b in _time_blocks(self.n_steps) if index < b.stop)
        amplitudes = self.charger.to_eigenbasis(self.psi0.amplitudes)
        states = evolve_batch(self.charger, amplitudes, self.times[block])
        return StateVector(states[:, index - block.start], self.psi0.basis)

    @cached_property
    def battery(self) -> HermitianOperator:
        """The battery in the run's basis, built on first use; no step of the
        run reads it, only the independent oracles do."""
        self._require_dense("dense battery")
        return build_battery_for(self.spec)


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


def _time_blocks(n_steps: int) -> list[slice]:
    """The grid in TIME_CHUNK-long blocks of times.  A last time alone joins
    the block before: one time propagates by a matrix-vector product, whose
    rounding differs from a column of the matrix product."""
    edges = [*range(0, n_steps - 1, TIME_CHUNK), n_steps]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _fock_edge_population(states: np.ndarray, basis: Basis) -> float:
    blocks = states.reshape(basis.n_cells + 1, basis.n_max + 1, -1)
    edge = np.abs(blocks[:, basis.n_max - 1 :, :]) ** 2
    return float(edge.sum(axis=(0, 1)).max())


def _record(
    spec: ModelSpec, times: np.ndarray, initial_energy: float, populations: np.ndarray,
    rates: np.ndarray, energy: np.ndarray, power: np.ndarray, var_battery: np.ndarray,
    var_charger: float, energy_at: Callable[[float], float], **dense,
) -> Trajectory:
    """The run record from what a backend computed: the level populations and
    their rates on the whole grid, E, P, var(H_B) and var(H_C).  Both Fisher
    series, cos theta and the clipped var(H_B) are derived here for either
    backend; ``dense`` holds the dense backend's own fields."""
    # Both Fisher series are summed in TIME_CHUNK blocks of columns, so that
    # fisher_sum's (levels x times) temporaries stay one block wide; each
    # column's sum is the whole grid's, bit for bit.  The untruncated series
    # is for bound certification: the floor drops a real Fisher share (up to
    # 0.128 absolute, 1.9% of I_E, on the shipped jw_xx_pow_n8), which would
    # break saturated inequality checks at the 1e-8 tolerance.  Exact zeros
    # are masked; symmetry-protected zeros contribute only noise^2 terms.
    fisher_energy, fisher_energy_full = np.empty((2, len(times)))
    for block in _time_blocks(len(times)):
        p, p_dot = populations[:, block], rates[:, block]
        fisher_energy[block] = fisher_sum(p, p_dot, POPULATION_FLOOR)
        fisher_energy_full[block] = fisher_sum(p, p_dot, 0.0)
    return Trajectory(
        spec, times, initial_energy, populations, rates, energy, power,
        var_battery=np.maximum(var_battery, 0.0),
        var_charger=float(var_charger),
        fisher_energy=fisher_energy,
        fisher_energy_full=fisher_energy_full,
        cos_theta=cos_theta_power(power, var_battery, fisher_energy),
        energy_at=energy_at,
        **dense,
    )


def _run_fixed(spec: ModelSpec, times: np.ndarray, leak_tol: float = math.inf) -> Trajectory | None:
    """The dense run of ``spec`` on the grid, in its model basis, from psi0's
    amplitudes on the eigenvectors of its charger; None as soon as the
    Fock-edge leak of a cavity run reaches ``leak_tol``."""
    charger, psi0 = eigendecompose(build_charger_for(spec)), initial_state(spec)
    amplitudes = charger.to_eigenbasis(psi0.amplitudes)
    # The battery is an excitation ladder: level k, at energy k - N/2, holds
    # the basis states with k excited cells.  Its eigenbasis is a row gather
    # of the basis in stable level order, not a permutation-matrix product.
    counts = excitation_counts(charger.basis)
    order = np.argsort(counts, kind="stable")
    e_levels = register_spectrum(spec.n_cells)[0]
    starts = np.concatenate(([0], np.cumsum(np.bincount(counts, minlength=len(e_levels)))[:-1]))
    # Each block of times is propagated, checked for Fock-edge leak and
    # summed into levels on its own, so no (dim x T) array exists.  Each
    # column is summed in the whole grid's order; the blocked H_C products
    # may differ from a whole-grid product in the last bit.
    matrix, basis = charger.matrix, charger.basis
    leak = 0.0
    populations = np.empty((len(e_levels), len(times)))
    rates = np.empty_like(populations)
    for block in _time_blocks(len(times)):
        states = evolve_batch(charger, amplitudes, times[block])
        if basis.kind == "spin_fock":
            leak = max(leak, _fock_edge_population(states, basis))
            if leak >= leak_tol:
                return None
        overlaps = states[order]
        driven = (matrix @ states)[order]
        populations[:, block] = np.add.reduceat(np.abs(overlaps) ** 2, starts, axis=0)
        rates[:, block] = 2.0 * np.add.reduceat((overlaps.conj() * driven).imag, starts, axis=0)

    energy_abs = e_levels @ populations
    initial_energy = float(energy_abs[0])
    var_battery = e_levels**2 @ populations - energy_abs**2

    # H_C is conserved, so its eigenbasis weights are those of psi0 at all times.
    charger_weights = np.abs(amplitudes) ** 2
    mean_c = charger.eigenvalues @ charger_weights
    var_charger = charger_weights @ (charger.eigenvalues - mean_c) ** 2

    ladder = e_levels[counts[order]]  # each basis state's energy, in level order

    def energy_at(t: float) -> float:
        psi = evolve_batch(charger, amplitudes, np.array([t]))[:, 0]
        return float(np.abs(psi[order]) ** 2 @ ladder - initial_energy)

    return _record(
        spec, times, initial_energy, populations, rates, energy_abs - initial_energy,
        e_levels @ rates, var_battery, var_charger, energy_at,
        fock_edge_population=leak,
        charger=charger,
        psi0=psi0,
    )


def _run_chain(spec: ModelSpec, lam_t_max: float | None, steps: int) -> Trajectory:
    """The free-fermion backend: a chain run from its mode set, at any N.

    Particle number l is the battery level (k - N/2 at k = l), so the even
    levels come from the pair recursion over the N // 2 pairs and the odd ones
    are exactly empty; at odd N, level N is odd and stays empty too.
    """
    check_chain_size(spec.n_cells, steps)
    modes = dispersion(spec)
    times = time_grid(spec, lam_t_max, steps)
    series = observables_on_grid(modes, times)
    n = spec.n_cells
    populations = np.zeros((n + 1, len(times)))
    rates = np.zeros_like(populations)
    for block, p, p_dot in distribution_blocks(modes, times):
        populations[::2, block], rates[::2, block] = p, p_dot

    def energy_at(t: float) -> float:
        return float(observables_on_grid(modes, np.array([t]))["energy"][0])

    return _record(
        spec, times, -n / 2, populations, rates, series["energy"], series["power"],
        series["var_battery"], modes.var_charger, energy_at,
    )


def analytic_path(spec: ModelSpec, path: str = "auto") -> bool:
    """Whether a run of ``spec`` on evaluation ``path`` (one of PATHS) takes the
    free-fermion backend: a jw_chain does, at any N, unless ``path`` is
    "dense"; every other family runs dense."""
    if path not in PATHS:
        raise ValidationError(f"unknown evaluation path {path!r} (expected one of {PATHS})")
    if path == "analytic" and spec.family != "jw_chain":
        raise ValidationError(f"'analytic' exists only for jw_chain, not {spec.family}")
    return spec.family == "jw_chain" and path != "dense"


def run_trajectory(
    spec: ModelSpec, lam_t_max: float | None = None, steps: int = DEFAULT_STEPS, path: str = "auto"
) -> Trajectory:
    """Charge from the model's initial state over a uniform grid, on the
    backend that :func:`analytic_path` picks.

    For the cavity model with no explicit n_max, the Fock cutoff starts at
    the default of :func:`models.model_basis` and doubles until the
    population within one level of the cutoff stays below FOCK_LEAK_TOL over
    the whole window; each cutoff runs as the spec with that n_max, and the
    one that converges is the trajectory's spec.  The run is the check: a
    cutoff's run stops at the first TIME_CHUNK block of times whose leak
    reaches the tolerance, and the next doubling starts.  Each cutoff must
    pass :func:`models.check_dense_size` before it is built.  An explicit
    n_max runs in full and reports its leak in ``fock_edge_population``.
    """
    if analytic_path(spec, path):
        return _run_chain(spec, lam_t_max, steps)
    check_dense_size(spec, steps)  # an automatic cutoff starts at model_basis's
    times = time_grid(spec, lam_t_max, steps)
    if spec.family != "dicke" or spec.n_max is not None:
        return _run_fixed(spec, times)

    cutoffs = [model_basis(spec).n_max * 2**k for k in range(MAX_FOCK_DOUBLINGS + 1)]
    for n_max in cutoffs:
        cutoff = replace(spec, n_max=n_max)
        check_dense_size(cutoff, steps)
        traj = _run_fixed(cutoff, times, FOCK_LEAK_TOL)
        if traj is not None:
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


def _golden_maximize(f, a: float, b: float) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    scale = max(abs(a), abs(b), 1e-12)
    while (b - a) > PEAK_REL_TOL * scale:
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


def find_peak_time(times: np.ndarray, energies: np.ndarray, evaluator) -> PeakResult:
    """Grid argmax of the stored energy refined by golden-section search to
    PEAK_REL_TOL of the bracket's scale.

    ``evaluator(t)`` must return the exact stored energy at arbitrary t.  The
    refined value never falls below the grid maximum; a peak sitting on the
    final grid point is flagged instead of refined.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if len(times) < PEAK_MIN_POINTS:
        raise ValidationError(f"need at least {PEAK_MIN_POINTS} grid points to locate a peak")
    idx = int(np.argmax(energies))
    if idx == len(times) - 1:
        return PeakResult(t_f=float(times[idx]), energy_max=float(energies[idx]), at_boundary=True)
    if idx == 0:
        return PeakResult(t_f=float(times[0]), energy_max=float(energies[0]), at_boundary=False)
    t_ref, e_ref = _golden_maximize(evaluator, times[idx - 1], times[idx + 1])
    if e_ref < energies[idx]:
        t_ref, e_ref = float(times[idx]), float(energies[idx])
    return PeakResult(t_f=float(t_ref), energy_max=float(e_ref), at_boundary=False)


def find_tf(traj: Trajectory) -> PeakResult:
    """Refined time of maximal stored energy for a computed trajectory."""
    return find_peak_time(traj.times, traj.energy, traj.energy_at)
