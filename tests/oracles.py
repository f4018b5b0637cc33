"""Independent reference implementations used only to check the package.

Everything here is deliberately brute force: enumeration or leave-one-out
convolution instead of the forward recursion, finite differences instead of
analytic rates, so the oracle shares no code path with what it checks.
"""

import itertools

import numpy as np

from qbattery import Basis, DensityMatrix


def poisson_binomial_enumerated(q: np.ndarray) -> np.ndarray:
    """Occupation-count distribution by explicit enumeration of all 2^K configs."""
    k = len(q)
    out = np.zeros(k + 1)
    for config in itertools.product((0, 1), repeat=k):
        weight = 1.0
        for bit, qi in zip(config, q):
            weight *= qi if bit else (1.0 - qi)
        out[sum(config)] += weight
    return out


def poisson_binomial_rate_enumerated(q: np.ndarray, q_dot: np.ndarray) -> np.ndarray:
    """d/dt of the enumerated distribution via the product rule."""
    k = len(q)
    out = np.zeros(k + 1)
    for config in itertools.product((0, 1), repeat=k):
        for which in range(k):
            term = q_dot[which] if config[which] else -q_dot[which]
            for j, (bit, qj) in enumerate(zip(config, q)):
                if j == which:
                    continue
                term *= qj if bit else (1.0 - qj)
            out[sum(config)] += term
    return out


def _times_bernoulli(dist: np.ndarray, q: float) -> np.ndarray:
    out = np.zeros(len(dist) + 1)
    out[:-1] = dist * (1.0 - q)
    out[1:] += dist * q
    return out


def poisson_binomial_leave_one_out(
    q: np.ndarray, q_dot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distribution and rate with every leave-one-out distribution convolved afresh.

    pdot_l = sum_k q_dot_k [p^(not k)_{l-1} - p^(not k)_l], where p^(not k) is
    the convolution of the prefix and suffix distributions around mode k.
    O(K^3), but fine up to a few hundred modes.
    """
    prefix = [np.array([1.0])]
    for qk in q:
        prefix.append(_times_bernoulli(prefix[-1], qk))
    suffix = [np.array([1.0])]
    for qk in q[::-1]:
        suffix.append(_times_bernoulli(suffix[-1], qk))
    suffix.reverse()  # suffix[i] = distribution of modes i..end
    p_dot = np.zeros(len(q) + 1)
    for k in range(len(q)):
        excl = np.convolve(prefix[k], suffix[k + 1])
        p_dot[1:] += q_dot[k] * excl
        p_dot[:-1] -= q_dot[k] * excl
    return prefix[-1], p_dot


def random_density_matrix(dim: int, rng: np.random.Generator, basis: Basis | None = None) -> DensityMatrix:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(mat, basis or Basis("collective_spin", dim - 1))


def haar_orthonormal_columns(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def shannon_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def certify_stepwise(traj):
    """The in-memory inequality set, one scalar ``bounds`` report per step and
    inequality, in a plain loop: the reference for the series certifier.

    Returns the reports of every step and the witness block size of every step.
    """
    from qbattery import bounds

    n = traj.spec.n_cells
    energies = traj.levels.energies
    reports, ks = [], []
    for i in range(traj.n_steps):
        t = float(traj.times[i])
        p, p_dot = traj.populations[:, i], traj.population_rates[:, i]
        pw, var_b = float(traj.power[i]), float(traj.var_battery[i])
        var_c, fisher = float(traj.var_charger[i]), float(traj.fisher_energy_full[i])
        k = bounds.witness_entangled_block_size(var_b, n)
        ks.append(k)
        reports += [
            bounds.fisher_power_bound(t, pw, var_b, fisher),
            bounds.moment_rate_bound(t, energies, p, p_dot, 1),
            bounds.moment_rate_bound(t, energies, p, p_dot, 2),
            bounds.heisenberg_power_bound(t, pw, var_b, var_c),
            bounds.dephasing_fisher_report(t, fisher, var_c),
            bounds.check_inequality(t, fisher, float(traj.fisher_state[i]), "fisher_vs_state"),
            bounds.check_inequality(
                t, pw**2, bounds.entanglement_power_bound(n, k, fisher), "entanglement_power"
            ),
        ]
    return reports, ks
