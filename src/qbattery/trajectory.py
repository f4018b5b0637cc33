"""Charging runs: one record of per-step series from either of two backends.

A :class:`Trajectory` holds the time grid and the series a run computes
(stored energy, power, battery variance, level populations and rates, Fisher
informations, bound saturation ratio), the conserved charger variance and
``energy_at(t)`` and ``power_at(t)`` callables for off-grid peak refinement;
certification, the CSV writer, the peak search and the sweeps read only
that.  One builder, :func:`_record`, derives the Fisher series and cos theta
for both backends.
The dense backend builds the charger in the model's basis as its nonzero
entries (:class:`linalg.SparseHermitian`) and runs on psi0's invariant sector
only (:func:`linalg.invariant_sector`): the states psi0 reaches through those
entries, whose dense matrix alone is built, diagonalized and propagated one
TIME_CHUNK block of times at a time, on the grid's phase table
(:class:`linalg.PhaseTable`).  Every model charger is real: its sector
matrix and eigenvectors are float64 and each product after the eigensolver
is a real one (:func:`linalg.matmul`).  A ``lumped`` run cuts the sector
further into equitable groups (:func:`linalg.equitable_groups`) and runs on
the even spreads over them: the same states, on far fewer of them where the
charger has symmetries.  The size rule's second stage
(:func:`models.check_dense_size`) sizes that dense run once the sector or
its groups are known.  Either keeps the sector charger and psi0's
amplitudes on its eigenvectors, not the states; ``state_at`` re-propagates
the block that holds a time and places the state in the full basis.  The
free-fermion backend builds a ``jw_chain`` run of any N from its mode set
(:mod:`freefermion`), with no state vector, and its kernel for independent
units runs the parallel, global and hybrid chargers in closed form at any N
too: q units of r cells, each excited with probability sin^2(lam t) and
worth r levels, where a chain pair is worth 2.  Scalar
observables are computed from the battery level populations, so bound checks
and reported values share one arithmetic path.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ValidationError
from .freefermion import (
    UNIT_FAMILIES, check_chain_size, dispersion, distribution_blocks, energy_at,
    observables_on_grid, power_at,
)
from .linalg import (
    Basis, HermitianOperator, SparseHermitian, StateVector, eigendecompose, equitable_groups,
    PhaseTable, evolve_batch, grid_phases, grid_step, invariant_sector, matmul,
)
from .models import (
    ModelSpec, build_charger_for, check_dense_size, excitation_counts, initial_state, model_basis,
    register_spectrum, time_blocks,
)
# No run builds the battery; the benchmark tracer patches this binding.
from .models import build_battery_for  # noqa: F401
from .observables import POPULATION_FLOOR, cos_theta_power

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
PEAK_REL_TOL = 1e-10  # the power root's bracket, relative to its later end
FLAT_ENERGY_PER_CELL = 1e-12  # a grid storing no more than this times N charges nothing
UNIT_NAMES = ", ".join(UNIT_FAMILIES[:-1]) + f" and {UNIT_FAMILIES[-1]}"


@dataclass
class Trajectory:
    """Uniform-grid charging run: what a run computes, built by :func:`_record`
    for both backends.  ``spec`` is the spec that ran, with the Fock cutoff a
    cavity run used; the battery levels are those of its N cells,
    ``models.register_spectrum(spec.n_cells)``.  H_C is conserved, so its
    variance is one number (and I_Q = 4 var(H_C) for these pure-state runs).
    The last two fields belong to the dense backend and are None on a
    free-fermion or closed-form run: ``sector``, the charger on psi0's
    invariant sector (lumped into equitable groups on a lumped run) with its
    eigendecomposition, the operator the run propagated under, and
    ``coefficients``, psi0's amplitudes on its eigenvectors.  The whole-basis
    charger and psi0 follow from ``spec`` (``models.build_charger_for`` and
    ``models.initial_state``).  No backend keeps the states."""

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
    power_at: Callable[[float], float]  # exact power dE/dt at an arbitrary (off-grid) time
    fock_edge_population: float = 0.0  # max population within one level of a Fock cutoff
    sector: HermitianOperator | None = None
    coefficients: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def step(self) -> float:
        """The grid's step, which the grid's phase tables are built on."""
        return grid_step(self.times)

    @property
    def backend(self) -> str:
        """"dense", or the unit kernel's "free-fermion" (a chain) or
        "closed-form" (a parallel, global or hybrid charger)."""
        if self.sector is not None:
            return "dense"
        return "free-fermion" if self.spec.family == "jw_chain" else "closed-form"

    def state_at(self, index: int) -> StateVector:
        """The run's state at grid time ``index``, bit for bit: the block of
        times that holds it, propagated again as the run propagated it, in
        the full basis (exactly zero off the sector)."""
        if self.sector is None:
            raise ValidationError(
                f"a {self.backend} run holds no states; run {self.spec.family} with "
                f"path='dense' ({UNIT_NAMES} take the unit kernel on 'auto')"
            )
        index = range(self.n_steps)[index]
        block = next(b for b in time_blocks(self.n_steps) if index < b.stop)
        basis = self.sector.basis
        phases = PhaseTable(self.sector.eigenvalues, self.times, self.step, [block])(block)
        states = evolve_batch(self.sector, self.coefficients, phases)
        state = np.zeros(basis.full_dim, dtype=complex)
        state[basis.members] = basis.expand(states[:, index - block.start])
        return StateVector(state, replace(basis, groups=None))


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


def _group_labels(charger: SparseHermitian, psi0: StateVector) -> np.ndarray:
    """What the states of one group share: the battery level (the level sums
    read it), the photon number of a spin-Fock state (the Fock-edge leak
    reads it) and psi0's amplitude (psi0 is even over each group)."""
    basis = charger.basis
    labels = [excitation_counts(basis), np.unique(psi0.amplitudes, return_inverse=True)[1].ravel()]
    if basis.kind == "spin_fock":
        labels.append(basis.indices % (basis.n_max + 1))
    return np.column_stack(labels)


def _fock_edge_population(density: np.ndarray, basis: Basis) -> float:
    """The largest population, over the columns of ``density`` (each group's
    |amplitude|^2 at a time), within one level of the Fock cutoff (each
    group at one photon number)."""
    photons = basis.indices % (basis.n_max + 1)
    return float(density[photons >= basis.n_max - 1].sum(axis=0).max())


def _record(
    spec: ModelSpec, times: np.ndarray, initial_energy: float, populations: np.ndarray,
    rates: np.ndarray, energy: np.ndarray, power: np.ndarray, var_battery: np.ndarray,
    var_charger: float, energy_at: Callable[[float], float], power_at: Callable[[float], float],
    **dense,
) -> Trajectory:
    """The run record from what a backend computed: the level populations and
    their rates on the whole grid, E, P, var(H_B) and var(H_C).  Both Fisher
    series, cos theta and the clipped var(H_B) are derived here for either
    backend; ``dense`` holds the dense backend's own fields."""
    # Both Fisher series are summed in TIME_CHUNK blocks of columns, so that
    # the (levels x times) terms stay one block wide; each column's sum is
    # the whole grid's, bit for bit.  The untruncated series is for bound
    # certification: the floor drops a real Fisher share (up to 0.128
    # absolute, 1.9% of I_E, on the shipped jw_xx_pow_n8), which would break
    # saturated inequality checks at the 1e-8 tolerance.  Exact zeros are
    # masked; symmetry-protected zeros contribute only noise^2 terms.  The
    # terms pdot^2 / p are formed once for both series: each series has the
    # bits of observables.fisher_sum at its floor, whose excluded levels add
    # +0.0 as the masked terms here do.
    fisher_energy, fisher_energy_full = np.empty((2, len(times)))
    for block in time_blocks(len(times)):
        p, p_dot = populations[:, block], rates[:, block]
        filled = p > 0.0
        terms = np.where(filled, p_dot, 0.0) ** 2 / np.where(filled, p, 1.0)
        fisher_energy_full[block] = terms.sum(axis=0)
        fisher_energy[block] = np.where(p > POPULATION_FLOOR, terms, 0.0).sum(axis=0)
    return Trajectory(
        spec, times, initial_energy, populations, rates, energy, power,
        var_battery=np.maximum(var_battery, 0.0),
        var_charger=float(var_charger),
        fisher_energy=fisher_energy,
        fisher_energy_full=fisher_energy_full,
        cos_theta=cos_theta_power(power, var_battery, fisher_energy),
        energy_at=energy_at,
        power_at=power_at,
        **dense,
    )


def _run_fixed(
    spec: ModelSpec, times: np.ndarray, leak_tol: float = math.inf, lumped: bool = False
) -> Trajectory | None:
    """The dense run of ``spec`` on the grid, on psi0's invariant sector of
    the charger (cut into equitable groups if ``lumped``), from psi0's
    amplitudes on the eigenvectors of the charger there; None as soon as the
    Fock-edge leak of a cavity run reaches ``leak_tol``.  On a real sector
    each product after the eigensolver, H_C psi included, is a real one."""
    charger, psi0 = build_charger_for(spec), initial_state(spec)
    states_reached = invariant_sector(charger, psi0.amplitudes)
    if lumped:
        groups = equitable_groups(charger, states_reached, _group_labels(charger, psi0))
    else:
        groups = states_reached[:, None]  # one state per group
    check_dense_size(spec, len(times), len(groups))
    sector = eigendecompose(charger.lump(groups))
    amplitudes = sector.to_eigenbasis(sector.basis.project(psi0.amplitudes))
    # The battery is an excitation ladder: level k, at energy k - N/2, holds
    # the states with k excited cells, and each group lies in one level.  Its
    # eigenbasis is a row gather of the groups by level and, within a level,
    # by their first state's full-basis index (the stable level order of the
    # full basis, whatever the sector's own order), not a permutation-matrix
    # product.  A sector may miss whole levels (global charging reaches only
    # 0 and N); those stay exactly empty, and the sums run over the others'
    # starts.
    basis = sector.basis
    counts = excitation_counts(basis)
    order = np.lexsort((basis.indices, counts))
    e_levels = register_spectrum(spec.n_cells)[0]
    sizes = np.bincount(counts, minlength=len(e_levels))
    reached = np.flatnonzero(sizes)
    starts = (np.cumsum(sizes) - sizes)[reached]
    # Each block of times is propagated, checked for Fock-edge leak and
    # summed into levels on its own, so no (dim x T) array exists: a group's
    # population is its state's |amplitude|^2, spread or not.  |psi|^2 =
    # re^2 + im^2 and Im(psi* H_C psi) = re Im(H_C psi) - im Re(H_C psi) are
    # written over the block's own states and H_C psi, and only these real
    # rows are gathered into level order, through one buffer per run sized
    # for the longest block.  Each column is summed in the whole grid's order;
    # the blocked H_C products may differ from a whole-grid product in the
    # last bit.
    blocks = time_blocks(len(times))
    table = PhaseTable(sector.eigenvalues, times, grid_step(times), blocks)
    gathered_buffer = np.empty(basis.dim * max(len(times[block]) for block in blocks))
    populations = np.zeros((len(e_levels), len(times)))
    rates = np.zeros_like(populations)

    def sum_into_levels(block: slice) -> float:
        """One block's populations and rates, summed into levels; returns
        the block's Fock-edge leak.  Its states and H_C psi are freed on
        return, before the next block's are made."""
        states = evolve_batch(sector, amplitudes, table(block))
        driven = matmul(sector.values, states)
        re, im = states.real, states.imag
        flux = np.multiply(re, driven.imag, out=driven.imag)
        flux -= np.multiply(im, driven.real, out=driven.real)
        density = np.square(re, out=re)
        density += np.square(im, out=im)
        gathered = gathered_buffer[: density.size].reshape(density.shape)
        # mode="clip" writes the gather straight into the buffer (numpy's
        # default mode writes to a copy first); order's indices are all valid.
        for series, rows in ((populations, density), (rates, flux)):
            series[reached, block] = np.add.reduceat(
                np.take(rows, order, axis=0, out=gathered, mode="clip"), starts, axis=0
            )
        return _fock_edge_population(density, basis) if basis.kind == "spin_fock" else 0.0

    leak = 0.0
    for block in blocks:
        leak = max(leak, sum_into_levels(block))
        if leak >= leak_tol:
            return None
    rates *= 2.0

    energy_abs = e_levels @ populations
    initial_energy = float(energy_abs[0])
    var_battery = e_levels**2 @ populations - energy_abs**2

    # H_C is conserved, so its eigenbasis weights are those of psi0 at all times.
    charger_weights = np.abs(amplitudes) ** 2
    mean_c = sector.eigenvalues @ charger_weights
    var_charger = charger_weights @ (sector.eigenvalues - mean_c) ** 2

    ladder = e_levels[counts[order]]  # each group's energy, in level order

    # The off-grid closures take the block loop's products.
    def psi_at(t: float) -> np.ndarray:
        return evolve_batch(sector, amplitudes, grid_phases(sector.eigenvalues, np.array([t])))[:, 0]

    def stored_energy_at(t: float) -> float:
        return float(np.abs(psi_at(t)[order]) ** 2 @ ladder - initial_energy)

    def power_at(t: float) -> float:
        psi = psi_at(t)
        return float(2.0 * (psi.conj() * matmul(sector.values, psi)).imag[order] @ ladder)

    return _record(
        spec, times, initial_energy, populations, rates, energy_abs - initial_energy,
        e_levels @ rates, var_battery, var_charger, stored_energy_at, power_at,
        fock_edge_population=leak,
        sector=sector,
        coefficients=amplitudes,
    )


def _run_chain(spec: ModelSpec, times: np.ndarray) -> Trajectory:
    """The run of a chain, or of a parallel, global or hybrid charger, on
    the grid, from its independent units (:func:`freefermion.dispersion`),
    at any N.

    With u units excited the battery is at level u h (k - N/2 at k = u h)
    for the units' level step h, so every h-th level comes from the
    recursion over the units and the others are exactly empty.  On a chain
    (h = 2) particle number is the level, and at odd N level N is odd and
    stays empty too.
    """
    modes = dispersion(spec)
    series = observables_on_grid(modes, times)
    n = spec.n_cells
    populations = np.zeros((n + 1, len(times)))
    rates = np.zeros_like(populations)
    levels = slice(None, None, modes.step)
    for block, p, p_dot in distribution_blocks(modes, times):
        populations[levels, block], rates[levels, block] = p, p_dot
    return _record(
        spec, times, -n / 2, populations, rates, series["energy"], series["power"],
        series["var_battery"], modes.var_charger, partial(energy_at, modes),
        partial(power_at, modes),
    )


def analytic_path(spec: ModelSpec, path: str = "auto") -> bool:
    """Whether a run of ``spec`` on evaluation ``path`` (one of PATHS) takes the
    unit kernel (:func:`_run_chain`): a jw_chain (free-fermion) and a
    parallel, global or hybrid charger (closed-form) do, at any N, unless
    ``path`` is "dense"; LMG and Dicke run dense."""
    if path not in PATHS:
        raise ValidationError(f"unknown evaluation path {path!r} (expected one of {PATHS})")
    if path == "analytic" and spec.family not in UNIT_FAMILIES:
        raise ValidationError(f"'analytic' exists only for {UNIT_NAMES}, not {spec.family}")
    return spec.family in UNIT_FAMILIES and path != "dense"


def run_trajectory(
    spec: ModelSpec, lam_t_max: float | None = None, steps: int = DEFAULT_STEPS,
    path: str = "auto", lumped: bool = False,
) -> Trajectory:
    """Charge from the model's initial state over a uniform grid, on the
    backend that :func:`analytic_path` picks.

    A ``lumped`` dense run propagates psi0's sector cut into equitable groups
    (:func:`linalg.equitable_groups`): the same run, exact to rounding, on
    N + 1 states instead of 2^N for parallel charging and on about a tenth
    of the sector for a ring chain, so its cost no longer follows how large
    the coupling kind makes the sector (xy_nn N = 10: 26 groups of 252
    states, xx_nn: 44 of 512).  Its rounding differs from the sector run's,
    which moves the rounding-level battery variance at t = 0 and with it
    the guarded ratios there; the sweeps, which read time averages and the
    peak, run lumped, and ``simulate`` keeps the sector run.  The unit
    kernel ignores it.

    For the cavity model with no explicit n_max, the Fock cutoff starts at
    the default of :func:`models.model_basis` and doubles until the
    population within one level of the cutoff stays below FOCK_LEAK_TOL over
    the whole window; each cutoff runs as the spec with that n_max, and the
    one that converges is the trajectory's spec.  The run is the check: a
    cutoff's run stops at the first TIME_CHUNK block of times whose leak
    reaches the tolerance, and the next doubling starts.  Each cutoff must
    pass :func:`models.check_dense_size` before its charger is built, and
    again on its sector before that sector's dense matrix is.  An explicit
    n_max runs in full and reports its leak in ``fock_edge_population``.
    Either path's size rule runs before the one grid is built; the dense
    rule's second stage, once the sector is known.
    """
    chain = analytic_path(spec, path)
    if chain:
        check_chain_size(spec, steps)
    else:
        check_dense_size(spec, steps)  # an automatic cutoff starts at model_basis's
    times = time_grid(spec, lam_t_max, steps)
    if chain:
        return _run_chain(spec, times)
    if spec.family != "dicke" or spec.n_max is not None:
        return _run_fixed(spec, times, lumped=lumped)

    cutoffs = [model_basis(spec).n_max * 2**k for k in range(MAX_FOCK_DOUBLINGS + 1)]
    for n_max in cutoffs:
        cutoff = replace(spec, n_max=n_max)
        check_dense_size(cutoff, steps)
        traj = _run_fixed(cutoff, times, FOCK_LEAK_TOL, lumped)
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


def _power_root(power_at, a: float, b: float) -> float:
    """The time in [a, b] at which the power turns from positive at a to
    negative at b, by bisection on the sign of ``power_at`` until the bracket
    is PEAK_REL_TOL of its later end: a relative stop, which holds at any
    time scale.  Each step is decided by a sign alone, so two runs whose
    powers differ only by rounding take the same steps to the same time
    unless a midpoint falls within that rounding of the root."""
    while b - a > PEAK_REL_TOL * b:
        mid = 0.5 * (a + b)
        p = power_at(mid)
        if p == 0.0:
            return mid
        a, b = (mid, b) if p > 0.0 else (a, mid)
    return 0.5 * (a + b)


def find_peak_time(
    times: np.ndarray, energies: np.ndarray, powers: np.ndarray,
    energy_at: Callable[[float], float], power_at: Callable[[float], float],
) -> PeakResult:
    """Grid argmax of the stored energy, refined to the root of the power P.

    Of the grid neighbours, the one on the side where the grid's ``powers``
    say P changes sign brackets the peak with the argmax, and
    :func:`_power_root` finds the sign change of ``power_at(t)`` (exact P at
    any t) there; ``energy_at(t)`` (exact E) gives the peak energy.  The sign
    of P, unlike a comparison of two nearly equal energies, is decided
    wherever P exceeds rounding, so a peak midway between two grid points
    refines to the same time whichever of them is the argmax.  With no sign
    change beside the argmax, or a refined value below the grid maximum, the
    grid point stands; a peak on the final grid point is flagged instead of
    refined.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if len(times) < PEAK_MIN_POINTS:
        raise ValidationError(f"need at least {PEAK_MIN_POINTS} grid points to locate a peak")
    idx = int(np.argmax(energies))
    grid_peak = PeakResult(t_f=float(times[idx]), energy_max=float(energies[idx]), at_boundary=False)
    if idx == len(times) - 1:
        return replace(grid_peak, at_boundary=True)
    if idx == 0:
        return grid_peak
    lo = idx if powers[idx] > 0 else idx - 1
    if not powers[lo] > 0 > powers[lo + 1]:
        return grid_peak
    t_ref = _power_root(power_at, times[lo], times[lo + 1])
    e_ref = energy_at(t_ref)
    if e_ref < energies[idx]:
        return grid_peak
    return PeakResult(t_f=float(t_ref), energy_max=float(e_ref), at_boundary=False)


def find_tf(traj: Trajectory) -> PeakResult:
    """Refined time of maximal stored energy for a computed trajectory; a run
    storing at most FLAT_ENERGY_PER_CELL N (LMG at gamma = 1: rounding noise)
    has no peak, and gets the grid start with no search."""
    if traj.energy.max() <= FLAT_ENERGY_PER_CELL * traj.spec.n_cells:
        return PeakResult(float(traj.times[0]), float(traj.energy[0]), at_boundary=False)
    return find_peak_time(traj.times, traj.energy, traj.power, traj.energy_at, traj.power_at)
