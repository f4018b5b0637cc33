"""Closed-form solver for runs of independent units: the string-coupled
periodic chains and the parallel, global and hybrid chargers.

A unit is excited with occupation q(t) = sin^2(theta) sin^2(omega t) and,
when excited, raises the battery by its level step: 2 for a chain's
(k, -k) pair, r for a paradigmatic unit of r cells (q units of r cells,
q r = N: parallel q = N, r = 1; global q = 1, r = N; hybrid q, r), which
rotates all-ground <-> all-excited at omega = lam with sin(theta) = 1
(Binder et al., New J. Phys. 17, 075015 (2015); Campaioli et al., PRL 118,
150601 (2017)).

The chain maps to free fermions with independent (k, -k) pair subspaces; the
reduced mode grid, the dispersion

    omega_k = 2 sqrt[(1/2 - sum_m lambda_m cos(k m))^2 + (sum_m gamma_m sin(k m))^2]
    sin(theta_k) = 2 sum_m gamma_m sin(k m) / omega_k

and the unit occupation q_k(t) = sin^2(theta_k) sin^2(omega_k t) (a
chain pair stores 2 q_k) give every observable as a sum over modes, at
any N; a paradigmatic unit enters every formula below as a mode with
omega = lam, sin(theta) = 1 and its own level step.  On a uniform time
grid the sines and cosines of omega_k t come from the grid's phase table
(:class:`linalg.PhaseTable`: the offsets' cos and sin once per grid, one
exact cos and sin per mode every PHASE_STRIDE grid times, a complex product
between, written block by block into one buffer), and E, P and var(H_B)
are contractions over the modes of one sub-block of times, of at most
SERIES_CELLS (time x mode) cells, through two work arrays made once per
grid.  The particle-number
distribution (excited units, each worth one level step) is the Poisson
binomial p(z) = prod_k (1 - q_k + q_k z) of the unit occupations q_k
(:func:`unit_occupations`), and its rate is pdot(z) = (z - 1) S(z) with
S(z) = sum_k qdot_k prod_{j != k} (1 - q_j + q_j z).  Both are built for a
block of times at once, never by configuration enumeration.  The modes go in
groups of GROUP_MODES; the forward recursion over a group's modes,
S <- S (1 - q_k + q_k z) + qdot_k P and then P <- P (1 - q_k + q_k z) from
P = 1, S = 0, gives its factor Q_g (its own P) and R_g (its own S), for all
groups at once.  The first group seeds the product and each later one folds
in as P <- P * Q_g and S <- S * Q_g + P * R_g, where each polynomial
product is one contiguous dot of GROUP_MODES + 1 terms per time and level
(``np.einsum`` over a sliding window of the zero-padded product).  The cost
stays O(N^2) multiply-adds per time, but in a few calls per group instead of
several array passes per mode; at most GROUP_MODES modes (N <= 65) are the
plain recursion, bit for bit.  On the products every coefficient of P is >= 0,
so no cancellation enters P.  The complement 1 - q_k of a unit that rotates
fully (sin(theta_k) = 1, every paradigmatic unit) is cos^2(omega_k t): near
omega_k t = pi/2, 1 - sin^2 would carry an absolute rounding of 1e-16 into a
level whose population, and pdot^2 / p with it, rests on values of 1e-18.
A discrete Fourier transform would be cheaper, but its ~1e-16 absolute
error is amplified by pdot^2 / p where p is small (Hong, Comput. Stat.
Data Anal. 59, 41 (2013)).

The mode grid follows N's parity.  The Jordan-Wigner boundary term carries
the sign (-1)^(ground cells) (Lieb, Schultz & Mattis 1961), which on the
all-ground initial state is (-1)^N: antiperiodic fermions k = (2m+1) pi / N
at even N, where every mode is paired, and periodic fermions k = 2 pi m / N,
m = 1..(N-1)/2, at odd N, where the unpaired k = 0 mode is never filled from
the vacuum and drops out.  Either way there are N // 2 pairs, the particle
number stays even, and the grid reproduces dense diagonalization to machine
precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .linalg import PHASE_STRIDE, PhaseTable, grid_phases, grid_step
from .models import (
    PARADIGMATIC_FAMILIES, RUN_BASE_BYTES, TIME_CHUNK, ModelSpec, check_run_bytes, split_block,
    time_blocks,
)
from .observables import POPULATION_FLOOR, check_distributions, fisher_sum

# Modes per factor of the blocked Poisson-binomial recursion (module docstring).
GROUP_MODES = 32
# (time x unit) cells per sub-block of the E, P and var(H_B) series (_series).
SERIES_CELLS = 2**15
# The families this backend runs: the chains and the paradigmatic chargers.
UNIT_FAMILIES = ("jw_chain",) + PARADIGMATIC_FAMILIES


@dataclass(frozen=True)
class ModeSet:
    """Independent units: reduced-zone momenta with dispersion and pairing
    amplitude per mode, and ``step``, the battery levels that one excited
    unit adds: 2 for a chain's pairs, r for a paradigmatic charger's units of
    r cells (which have k = 0, omega = lam and sin(theta) = 1)."""

    k: np.ndarray
    omega: np.ndarray
    sin_theta: np.ndarray
    step: int = 2

    @property
    def n_modes(self) -> int:
        return len(self.k)

    @property
    def var_charger(self) -> float:
        """Variance of the charger on the all-ground state: sum sin^2(theta) omega^2."""
        return float((self.sin_theta**2 * self.omega**2).sum())


@dataclass(frozen=True)
class PairDistribution:
    """Level distribution p_l over l = 0, step, ..., step (units) and its rate."""

    l_values: np.ndarray
    p: np.ndarray
    p_dot: np.ndarray


def unit_count(spec: ModelSpec) -> int:
    """The independent units of ``spec``'s run on this backend: the N // 2
    pairs of a chain, and q of a paradigmatic charger (N for parallel, 1 for
    global charging)."""
    n = spec.n_cells
    units = {"jw_chain": n // 2, "parallel": n, "global": 1, "hybrid": spec.q}
    if spec.family not in units:
        raise ValidationError(f"{spec.family} is not a run of independent units")
    return units[spec.family]


def check_chain_size(spec: ModelSpec, steps: int) -> int:
    """The estimated bytes of a run of ``spec`` on this backend over
    ``steps`` times, a sweep point's included; CapacityLimitError, before
    anything is allocated, if over the run limit ``models.RUN_BYTES_MAX``.

    It counts 8 * 16 (q + 1 + 2 GROUP_MODES) TIME_CHUNK bytes for the
    recursion's blocks over its q units (:func:`unit_count`; the allocator
    holds up to ~16 arrays of (q + 1) x TIME_CHUNK over a long grid, and the
    fold's products are padded by GROUP_MODES levels on each side), 8 * 18 T
    for the grid, the record's O(T) series and the certifier's columns, and
    ``models.RUN_BASE_BYTES`` for the first calls' buffers and one CSV block.
    Measured max RSS growth (2 cores) of run_trajectory + certify_trajectory
    + write_trajectory_csv, in MiB (the estimate's multiple): xy_nn N = 10 /
    200 at 20000 steps with populations 3.3 / 9.7 (2.7x / 1.2x), N = 200 at
    4000 7.9 (1.2x), N = 1000 at 2000 20 (1.1x), N = 10^4 at 256 102 (1.6x),
    and without them N = 2 at 10^6 127 (1.1x), N = 1000 at 20000 20 (1.2x);
    parallel N = 1000 at 2000 34 (1.1x); global N = 10^4 at 2000 3.1 (2.1x).
    Of sweeps.quantities_for: N = 2 at 10^6 steps 62 (2.3x), N = 10 at
    200000 13 (2.6x), N = 200 at 20000 5.1 (2.3x), N = 2000 at 50000 34
    (1.3x); and 3.8-4.3x on grids of at most 1000 steps at N >= 2000.
    """
    n = spec.n_cells
    need = RUN_BASE_BYTES + 8 * (18 * steps + 16 * (unit_count(spec) + 1 + 2 * GROUP_MODES) * TIME_CHUNK)
    backend = "free-fermion" if spec.family == "jw_chain" else "closed-form"
    return check_run_bytes(need, f"{backend} run of {spec.family} N = {n} ({steps} steps)")


def dispersion(spec: ModelSpec) -> ModeSet:
    """The units of ``spec`` (module docstring): for a chain, the N // 2
    paired modes k of the grid for N's parity, with omega_k and
    sin(theta_k); for a parallel, global or hybrid charger, its q units of
    r cells, each at omega = lam with sin(theta) = 1 and level step r."""
    if spec.family in PARADIGMATIC_FAMILIES:
        units = unit_count(spec)
        ones = np.ones(units)
        return ModeSet(np.zeros(units), spec.lam * ones, ones, step=spec.n_cells // units)
    if spec.family != "jw_chain":
        raise ValidationError("dispersion needs a jw_chain, parallel, global or hybrid spec")
    n = spec.n_cells
    k = (2 * np.arange(n // 2) + 1 + n % 2) * np.pi / n
    m = np.arange(1, len(spec.lambdas) + 1)
    cos_part = 0.5 - np.cos(np.outer(k, m)) @ np.asarray(spec.lambdas)
    sin_part = np.sin(np.outer(k, m)) @ np.asarray(spec.gammas)
    omega = 2.0 * np.hypot(cos_part, sin_part)
    sin_theta = np.divide(
        2.0 * sin_part, omega, out=np.zeros_like(omega), where=omega > 1e-300
    )
    return ModeSet(k=k, omega=omega, sin_theta=sin_theta)


def unit_occupations(modes: ModeSet, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each unit's occupation q = sin^2(theta) sin^2(omega t) in [0, 1], its
    rate qdot and its complement 1 - q, or cos^2(omega t) for a unit with
    sin(theta) = 1 (module docstring), as three contiguous (units x times)
    arrays over the 1-d ``times``."""
    angles, full = np.outer(modes.omega, times), modes.sin_theta == 1.0
    a = modes.sin_theta[:, None] ** 2
    q = a * np.sin(angles) ** 2
    rest = 1.0 - q
    rest[full] = np.cos(angles[full]) ** 2
    return q, a * modes.omega[:, None] * np.sin(2.0 * angles), rest


def _series_blocks(n_times: int, n_modes: int) -> list[slice]:
    """Each :func:`models.time_blocks` block of ``n_times`` times cut by
    :func:`models.split_block` into sub-blocks of the largest multiple of
    PHASE_STRIDE rows whose rows x ``n_modes`` cells are at most
    SERIES_CELLS, and of one stride at the least."""
    rows = max(SERIES_CELLS // (max(n_modes, 1) * PHASE_STRIDE), 1) * PHASE_STRIDE
    return [sub for block in time_blocks(n_times) for sub in split_block(block, rows)]


def _series(modes: ModeSet, times: np.ndarray) -> dict[str, np.ndarray]:
    """E, P and var(H_B) at ``times``, one sub-block of a TIME_CHUNK block
    at a time (:func:`_series_blocks`), with the phases of each sub-block
    from the grid's :class:`linalg.PhaseTable` of step
    :func:`linalg.grid_step` (a single time takes its own cos and sin, by
    :func:`linalg.grid_phases`).  With a = sin^2(theta), the sine s and
    cosine c of omega t and the level step h, a unit stores h a s^2, its
    rate is 2 h a omega s c and its variance h^2 a s^2 (1 - a s^2) =
    h^2 a s^2 c^2 + h^2 a (1 - a) s^4, two terms that are each >= 0 (at
    h = 2, the floats 2a, 4 a omega, 4a and 4a (1 - a) of a chain pair).
    A sub-block's s^2 and s c go into two (times x modes) work arrays made
    once for the grid, and each series contracts them with one weight per
    mode, row by row, so a time's value does not depend on the rows around
    it, nor on how the grid is cut.  The sub-block is bounded by its cells,
    not its times: the phase table and both work arrays hold one sub-block,
    at most SERIES_CELLS cells each up to 2048 units (one stride of times
    beyond), where a whole block of 256 times would grow with the units
    (8 MB at N = 2000, 42 MB at N = 10^4), so they are written and read
    again while still in cache.  With at most SERIES_CELLS / TIME_CHUNK =
    128 units a sub-block is the whole block."""
    blocks = _series_blocks(len(times), modes.n_modes)
    table = None if len(times) < 2 else PhaseTable(modes.omega, times, grid_step(times), blocks, times_first=True)
    a, h = modes.sin_theta**2, modes.step
    weights = h * a, -2 * h * a * modes.omega, h**2 * a, h**2 * a * (1.0 - a)
    width = max((b.stop - b.start for b in blocks), default=0)
    sin2_rows, sin_cos_rows = np.empty((width, modes.n_modes)), np.empty((width, modes.n_modes))
    out = {name: np.empty(len(times)) for name in ("energy", "power", "var_battery")}
    for block in blocks:
        phases = grid_phases(modes.omega, times).T if table is None else table(block)
        sin, cos = phases.imag, phases.real  # phases.imag is -sin(omega t)
        sin2 = np.multiply(sin, sin, out=sin2_rows[: len(phases)])
        sin_cos = np.multiply(sin, cos, out=sin_cos_rows[: len(phases)])
        out["energy"][block] = np.einsum("tk,k->t", sin2, weights[0])
        out["power"][block] = np.einsum("tk,k->t", sin_cos, weights[1])
        out["var_battery"][block] = (
            np.einsum("tk,k->t", np.square(sin_cos, out=sin_cos), weights[2])
            + np.einsum("tk,k->t", np.square(sin2, out=sin2), weights[3])
        )
    return out


def observables_on_grid(modes: ModeSet, times: np.ndarray) -> dict[str, np.ndarray]:
    """E, P and var(H_B) series over a uniform grid of times t_j = j * step,
    its step taken once from the whole grid (:func:`linalg.grid_step`; a
    single time takes its own cos and sin); a ValidationError if ``times``
    are not consecutive points of that grid.  One cos and sin per mode
    serves every PHASE_STRIDE grid times (the grid's :class:`linalg.PhaseTable`),
    the grid runs in sub-blocks of at most SERIES_CELLS (time x mode) cells
    (:func:`_series`), and a block of the grid has the bits of the whole
    grid there."""
    return _series(modes, np.asarray(times, dtype=float))


def energy_at(modes: ModeSet, t: float) -> float:
    """The stored energy E at one (off-grid) time t, from its own cos and sin:
    at a grid time j * step with j a multiple of PHASE_STRIDE, the bits of
    :func:`observables_on_grid` there."""
    return float(_series(modes, np.array([float(t)]))["energy"][0])


def power_at(modes: ModeSet, t: float) -> float:
    """The power P = dE/dt at one (off-grid) time t, as :func:`energy_at`."""
    return float(_series(modes, np.array([float(t)]))["power"][0])


def _group_factors(
    q: np.ndarray, q_dot: np.ndarray, q_rest: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (groups x levels x times) P and S of each group of GROUP_MODES
    consecutive modes (the last may be short), by the forward recursion on
    every group at once: step c takes mode c of each group that has one.
    ``q``, ``q_dot`` and ``q_rest`` are (modes x times) arrays of
    :func:`unit_occupations`."""
    n_modes, n_times = q.shape
    n_groups, width = max(-(-n_modes // GROUP_MODES), 1), min(n_modes, GROUP_MODES) + 1
    p = np.zeros((n_groups, width, n_times))
    p[:, 0] = 1.0
    s, work = np.zeros_like(p), np.empty_like(p)
    for c in range(width - 1):
        q_c = q[c::GROUP_MODES, None]
        r_c = q_rest[c::GROUP_MODES, None]
        at = (slice(len(q_c)), slice(c + 1))  # the groups with a mode c; row c of S is still zero
        np.multiply(s[at], q_c, out=work[at])
        s[at] *= r_c
        s[at[0], 1 : c + 2] += work[at]
        s[at] += np.multiply(p[at], q_dot[c::GROUP_MODES, None], out=work[at])
        np.multiply(p[at], q_c, out=work[at])
        p[at] *= r_c
        p[at[0], 1 : c + 2] += work[at]
    return p, s


def _fold_groups(p: np.ndarray, s: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """p_l and pdot_l over ``n_levels`` levels from the groups' factors P and
    S of :func:`_group_factors`; one group's factor is the result."""
    if len(p) == 1:
        p, s = p[0], s[0]
    else:
        g, n_times = GROUP_MODES, p.shape[2]
        # Two (P, S) x times x levels products, each level row padded by g
        # zeros on both sides, read and written in turn.
        now, nxt = np.zeros((2, 2, n_times, len(p) * g + 1 + 2 * g))
        now[0, :, g : 2 * g + 1], now[1, :, g : 2 * g + 1] = p[0].T, s[0].T
        factor = np.empty((2, n_times, g + 1))  # Q and R, reversed along the levels
        for length in range(g + 1, n_levels, g):  # the product's levels before group i
            i, width = length // g, min(n_levels - length, g) + 1  # the group's degree + 1
            factor[0, :, :width] = p[i, width - 1 :: -1].T
            factor[1, :, :width] = s[i, width - 1 :: -1].T
            window = sliding_window_view(now[..., g + 1 - width : length + 2 * g], width, axis=-1)
            out, f = nxt[..., g : length + 2 * g], factor[..., :width]
            np.einsum("tlj,tj->tl", window[0], f[0], out=out[0])  # P * Q
            np.einsum("ktlj,ktj->tl", window[::-1], f, out=out[1])  # S * Q + P * R
            now, nxt = nxt, now
        p = np.ascontiguousarray(now[0, :, g : g + n_levels].T)
        s = np.ascontiguousarray(now[1, :, g : g + n_levels].T)
    p_dot = -s
    p_dot[1:] += s[:-1]
    return p, p_dot


def pair_distributions(modes: ModeSet, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked p_l and pdot_l as (units + 1 levels x times) arrays by the
    module docstring's blocked recursion over :func:`unit_occupations`,
    level l holding l excited units.  The occupations (three (units x times)
    arrays, 10 MB each per block at N = 10^4) are freed before the fold."""
    factors = _group_factors(*unit_occupations(modes, times))
    p, p_dot = _fold_groups(*factors, modes.n_modes + 1)
    check_distributions(p, p_dot)
    return p, p_dot


# No run path uses the one-time pair below; it is kept only for the
# benchmark's ladder check (benchmark/workloads.py), which calls
# pair_distribution and fisher_energy_analytic at single times.
def pair_distribution(modes: ModeSet, t: float) -> PairDistribution:
    """The checked p_l and pdot_l of :func:`pair_distributions` at one time;
    l is the battery level, the level step times the excited units (on a
    chain, the particle number)."""
    p, p_dot = pair_distributions(modes, np.array([float(t)]))
    return PairDistribution(modes.step * np.arange(modes.n_modes + 1), p[:, 0], p_dot[:, 0])


def fisher_energy_analytic(dist: PairDistribution) -> float:
    """sum_l pdot_l^2 / p_l over occupation levels above the population floor."""
    return float(fisher_sum(dist.p, dist.p_dot, POPULATION_FLOOR))


def distribution_blocks(modes: ModeSet, times: np.ndarray):
    """Yield (block, p, pdot) of :func:`pair_distributions` for each slice
    ``block`` of :func:`models.time_blocks`."""
    for block in time_blocks(len(times)):
        yield (block, *pair_distributions(modes, times[block]))


def fisher_energy_series(modes: ModeSet, times: np.ndarray) -> np.ndarray:
    """Fisher information in energy space at each grid time, in time blocks."""
    times = np.asarray(times, dtype=float)
    out = np.empty_like(times)
    for block, p, p_dot in distribution_blocks(modes, times):
        out[block] = fisher_sum(p, p_dot, POPULATION_FLOOR)
    return out
