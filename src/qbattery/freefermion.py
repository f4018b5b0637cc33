"""Closed-form solver for the string-coupled periodic chains.

The chain maps to free fermions with independent (k, -k) pair subspaces; the
reduced mode grid, the dispersion

    omega_k = 2 sqrt[(1/2 - sum_m lambda_m cos(k m))^2 + (sum_m gamma_m sin(k m))^2]
    sin(theta_k) = 2 sum_m gamma_m sin(k m) / omega_k

and the per-pair excitation eps_k(t) = 2 sin^2(theta_k) sin^2(omega_k t)
give every observable as a sum over modes, at any N.  The particle-number
distribution is the Poisson binomial p(z) = prod_k (1 - q_k + q_k z) of the
pair occupations q_k = eps_k/2, and its rate is pdot(z) = (z - 1) S(z) with
S(z) = sum_k qdot_k prod_{j != k} (1 - q_j + q_j z).  One forward recursion
over modes, S <- S (1 - q_k + q_k z) + qdot_k P and then P <- P (1 - q_k + q_k z),
builds both for a block of times at once, O(N^2) per time and never by
configuration enumeration.  A discrete Fourier transform would be cheaper, but
its ~1e-16 absolute error is amplified by pdot^2 / p where p is small.

The mode grid k = (2m+1) pi / N pairs all modes and describes the
even-fermion-parity sector that contains the initial vacuum; it reproduces
dense diagonalization to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .models import ModelSpec

PAIR_PROBABILITY_FLOOR = 1e-12
# Times per block of the batched grid evaluations; bounds the (levels x times)
# work arrays to about 10 MB each at N = 10^4.
TIME_CHUNK = 256


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
    """Particle-number distribution p_l over even l = 0, 2, ..., N and its rate."""

    l_values: np.ndarray
    p: np.ndarray
    p_dot: np.ndarray

    def __post_init__(self):
        _check_distributions(self.p[:, None], self.p_dot[:, None])


def _check_distributions(p: np.ndarray, p_dot: np.ndarray) -> None:
    """Raise unless each column of p is a distribution and of p_dot a conserving rate."""
    total, rate = p.sum(axis=0), p_dot.sum(axis=0)
    worst = np.argmax(np.abs(total - 1.0))  # argmax picks a NaN first
    if not abs(total[worst] - 1.0) <= 1e-10:
        raise ValidationError(f"pair distribution sums to {total[worst]!r}")
    worst = np.argmax(np.abs(rate))
    if not abs(rate[worst]) <= 1e-9:
        raise ValidationError(f"pair distribution rates sum to {rate[worst]!r}")
    if p.min() < -1e-12:
        raise ValidationError(f"negative probability {p.min():.3e}")


def dispersion(spec: ModelSpec) -> ModeSet:
    """Mode grid, omega_k, and sin(theta_k) for a chain spec (even N only)."""
    if spec.family != "jw_chain":
        raise ValidationError("dispersion needs a jw_chain spec")
    n = spec.n_cells
    if n % 2 != 0:
        raise ValidationError(f"analytic chain solver requires even N, got {n}")
    k = (2 * np.arange(n // 2) + 1) * np.pi / n
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


def observables_on_grid(modes: ModeSet, times: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized E, P, var(H_B) series over a time grid (chunked in time)."""
    times = np.asarray(times, dtype=float)
    energy = np.empty_like(times)
    pw = np.empty_like(times)
    var_battery = np.empty_like(times)
    for lo in range(0, len(times), TIME_CHUNK):
        eps, eps_dot = pair_excitations(modes, times[lo : lo + TIME_CHUNK, None])
        energy[lo : lo + TIME_CHUNK] = eps.sum(axis=1)
        pw[lo : lo + TIME_CHUNK] = eps_dot.sum(axis=1)
        var_battery[lo : lo + TIME_CHUNK] = (eps * (2.0 - eps)).sum(axis=1)
    return {"energy": energy, "power": pw, "var_battery": var_battery}


def _pair_distributions(modes: ModeSet, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    _check_distributions(p, p_dot)
    return p, p_dot


def pair_distribution(modes: ModeSet, t: float) -> PairDistribution:
    """Poisson-binomial particle-number distribution and its analytic rate.

    Each mode contributes an independent pair with occupation probability
    q_k = eps_k/2; l counts particles, so l = 2 * (occupied pairs).  The
    forward recursion of the module docstring gives p_l and pdot_l; this is
    its one-time case, the batched one feeds ``fisher_energy_series``.
    """
    p, p_dot = _pair_distributions(modes, np.array([float(t)]))
    return PairDistribution(2 * np.arange(modes.n_modes + 1), p[:, 0], p_dot[:, 0])


def _fisher(p: np.ndarray, p_dot: np.ndarray) -> np.ndarray:
    """sum_l pdot_l^2 / p_l along axis 0 over levels above the floor."""
    keep = p > PAIR_PROBABILITY_FLOOR
    return (np.where(keep, p_dot, 0.0) ** 2 / np.where(keep, p, 1.0)).sum(axis=0)


def fisher_energy_analytic(dist: PairDistribution) -> float:
    """sum_l pdot_l^2 / p_l over occupation levels above the floor."""
    return float(_fisher(dist.p, dist.p_dot))


def fisher_energy_series(modes: ModeSet, times: np.ndarray) -> np.ndarray:
    """Fisher information in energy space at each grid time (chunked in time)."""
    times = np.asarray(times, dtype=float)
    out = np.empty_like(times)
    for lo in range(0, len(times), TIME_CHUNK):
        out[lo : lo + TIME_CHUNK] = _fisher(
            *_pair_distributions(modes, times[lo : lo + TIME_CHUNK])
        )
    return out
