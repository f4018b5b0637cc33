"""Closed-form solver for the string-coupled periodic chains.

The chain maps to free fermions with independent (k, -k) pair subspaces; the
reduced mode grid, the dispersion

    omega_k = 2 sqrt[(1/2 - sum_m lambda_m cos(k m))^2 + (sum_m gamma_m sin(k m))^2]
    sin(theta_k) = 2 sum_m gamma_m sin(k m) / omega_k

and the per-pair excitation eps_k(t) = 2 sin^2(theta_k) sin^2(omega_k t)
give every observable as a sum over modes, at any N.  On a uniform time
grid the sines and cosines of omega_k t come from the grid's phase table
(:func:`linalg.grid_phases`: one exact cos and sin per mode every
PHASE_STRIDE grid times, a complex product between), and E, P and var(H_B)
are contractions over the modes of one block of times.  The particle-number
distribution is the Poisson binomial p(z) = prod_k (1 - q_k + q_k z) of the
pair occupations q_k = eps_k/2, and its rate is pdot(z) = (z - 1) S(z) with
S(z) = sum_k qdot_k prod_{j != k} (1 - q_j + q_j z).  One forward recursion
over modes, S <- S (1 - q_k + q_k z) + qdot_k P and then P <- P (1 - q_k + q_k z),
builds both for a block of times at once, O(N^2) per time and never by
configuration enumeration.  A discrete Fourier transform would be cheaper, but
its ~1e-16 absolute error is amplified by pdot^2 / p where p is small.

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

from .errors import ValidationError
from .linalg import grid_phases, grid_step
from .models import TIME_CHUNK, ModelSpec, check_run_bytes, time_blocks
from .observables import POPULATION_FLOOR, check_distributions, fisher_sum


@dataclass(frozen=True)
class ModeSet:
    """Reduced-zone momenta with dispersion and pairing amplitude per mode."""

    k: np.ndarray
    omega: np.ndarray
    sin_theta: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.k)

    @property
    def var_charger(self) -> float:
        """Variance of the chain Hamiltonian on the vacuum: sum sin^2(theta) omega^2."""
        return float((self.sin_theta**2 * self.omega**2).sum())


@dataclass(frozen=True)
class PairDistribution:
    """Particle-number distribution p_l over even l = 0, 2, ..., 2 (N // 2) and its rate."""

    l_values: np.ndarray
    p: np.ndarray
    p_dot: np.ndarray


def check_chain_size(n_cells: int, steps: int, record: bool = True) -> int:
    """The estimated bytes of a free-fermion chain evaluation of N cells over
    ``steps`` times; CapacityLimitError, before anything is allocated, if over
    the run limit ``models.RUN_BYTES_MAX``.

    Both count 8 * 16 (N/2 + 1) TIME_CHUNK bytes for the pair recursion's
    blocks (the allocator holds up to ~13 of its (N/2 + 1) x TIME_CHUNK arrays
    over a long grid).  A sweep point (``record=False``) adds 8 * 16 T for its
    grid and O(T) series; its estimate is 1.2-3.2x the max RSS growth of
    sweeps.chain_analytic_quantities (2 cores), in MB: xy_nn N = 2 at 10^6
    steps 64, N = 10 at 200000 14, N = 2000 at 1000 / 50000 / 200000
    11 / 29 / 34, N = 10^4 at 800 / 20000 52 / 135; and 5.3x at N = 40000
    over 300 steps (125).  A run record adds 8 (160 + 14 (N + 1)) T instead:
    the grid, the series and the CSV text of their columns, and the (levels x
    times) p and pdot with their certification copies and the CSV text of
    the populations.  Its estimate is 1.2-2.0x the max RSS growth of
    run_trajectory + certify_trajectory + write_trajectory_csv with
    populations, in MB: xy_nn N = 2 / 10 at 20000 steps 25 / 39, N = 200 at
    4000 / 20000 79 / 398, N = 1000 at 500 / 2000 43 / 165, N = 4000 at
    300 / 1000 99 / 316; and 2.4-5.0x it without the CSV.
    """
    per_step = 160 + 14 * (n_cells + 1) if record else 16
    need = 8 * (per_step * steps + 16 * (n_cells // 2 + 1) * TIME_CHUNK)
    kind = "run" if record else "sweep point"
    return check_run_bytes(need, f"free-fermion {kind} of jw_chain N = {n_cells} ({steps} steps)")


def dispersion(spec: ModelSpec) -> ModeSet:
    """The N // 2 paired modes k of the grid for N's parity (module docstring),
    with omega_k and sin(theta_k), for a chain spec."""
    if spec.family != "jw_chain":
        raise ValidationError("dispersion needs a jw_chain spec")
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


def pair_excitations(modes: ModeSet, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair energy eps_k(t) in [0, 2] and its time derivative; t may be a (T, 1) column."""
    eps = 2.0 * modes.sin_theta**2 * np.sin(modes.omega * t) ** 2
    eps_dot = 2.0 * modes.sin_theta**2 * modes.omega * np.sin(2.0 * modes.omega * t)
    return eps, eps_dot


def _series(modes: ModeSet, times: np.ndarray, step: float | None) -> dict[str, np.ndarray]:
    """E, P and var(H_B) at ``times`` from the phases of :func:`linalg.grid_phases`
    (a uniform grid's table with its ``step``, else each time's own cos and
    sin), one TIME_CHUNK block at a time (:func:`_block_series`)."""
    out = {name: np.empty(len(times)) for name in ("energy", "power", "var_battery")}
    for block in time_blocks(len(times)):
        for name, values in _block_series(modes, times[block], step).items():
            out[name][block] = values
    return out


def _block_series(modes: ModeSet, times: np.ndarray, step: float | None) -> dict[str, np.ndarray]:
    """:func:`_series` on one block of times.  With a = sin^2(theta) and the
    sine s and cosine c of omega t, eps = 2 a s^2, its rate is 4 a omega s c
    and eps (2 - eps) = 4 a s^2 c^2 + 4 a (1 - a) s^4, two terms that are
    each >= 0.  Each series contracts a (times x modes) array with one
    weight per mode, row by row, so a time's value does not depend on the
    rows around it."""
    a = modes.sin_theta**2
    phases = grid_phases(modes.omega, times, step, times_first=True)
    sin, cos = phases.imag, phases.real  # phases.imag is -sin(omega t)
    sin2, sin_cos = sin * sin, sin * cos
    return {
        "energy": np.einsum("tk,k->t", sin2, 2.0 * a),
        "power": np.einsum("tk,k->t", sin_cos, -4.0 * a * modes.omega),
        "var_battery": (
            np.einsum("tk,k->t", np.square(sin_cos, out=sin_cos), 4.0 * a)
            + np.einsum("tk,k->t", np.square(sin2, out=sin2), 4.0 * a * (1.0 - a))
        ),
    }


def observables_on_grid(modes: ModeSet, times: np.ndarray) -> dict[str, np.ndarray]:
    """E, P and var(H_B) series over a uniform grid of times t_j = j * step,
    its step taken once from the whole grid (:func:`linalg.grid_step`; a
    single time takes its own cos and sin); a ValidationError if ``times``
    are not consecutive points of that grid.  One cos and sin per mode
    serves every PHASE_STRIDE grid times (:func:`linalg.grid_phases`), and a
    block of the grid has the bits of the whole grid there."""
    times = np.asarray(times, dtype=float)
    return _series(modes, times, grid_step(times) if len(times) > 1 else None)


def energy_at(modes: ModeSet, t: float) -> float:
    """The stored energy E at one (off-grid) time t, from its own cos and sin:
    at a grid time j * step with j a multiple of PHASE_STRIDE, the bits of
    :func:`observables_on_grid` there."""
    return float(_series(modes, np.array([float(t)]), None)["energy"][0])


def power_at(modes: ModeSet, t: float) -> float:
    """The power P = dE/dt at one (off-grid) time t, as :func:`energy_at`."""
    return float(_series(modes, np.array([float(t)]), None)["power"][0])


def pair_distributions(modes: ModeSet, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked p_l and pdot_l as (levels x times) arrays by the module docstring's recursion."""
    eps, eps_dot = pair_excitations(modes, times[:, None])
    q, q_dot = eps.T / 2.0, eps_dot.T / 2.0
    r = 1.0 - q
    p = np.zeros((modes.n_modes + 1, len(times)))
    p[0] = 1.0
    s, rate, work = np.zeros_like(p), np.empty_like(p), np.empty_like(p)
    for c in range(modes.n_modes):
        np.multiply(p[: c + 1], q_dot[c], out=rate[: c + 1])
        for x in (s, p):  # row c of S is still zero
            np.multiply(x[: c + 1], q[c], out=work[: c + 1])
            x[: c + 1] *= r[c]
            x[1 : c + 2] += work[: c + 1]
        s[: c + 1] += rate[: c + 1]
    p_dot = -s
    p_dot[1:] += s[:-1]
    check_distributions(p, p_dot)
    return p, p_dot


# No run path uses the one-time pair below; it is kept only for the
# benchmark's ladder check (benchmark/workloads.py), which calls
# pair_distribution and fisher_energy_analytic at single times.
def pair_distribution(modes: ModeSet, t: float) -> PairDistribution:
    """The checked p_l and pdot_l of :func:`pair_distributions` at one time;
    l counts particles, so l = 2 * (occupied pairs)."""
    p, p_dot = pair_distributions(modes, np.array([float(t)]))
    return PairDistribution(2 * np.arange(modes.n_modes + 1), p[:, 0], p_dot[:, 0])


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
