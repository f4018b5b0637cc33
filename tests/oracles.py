"""Independent reference implementations used only to check the package.

Everything here is deliberately brute force: enumeration or leave-one-out
convolution instead of the forward recursion, finite differences instead of
analytic rates, so the oracle shares no code path with what it checks.
"""

import itertools
import math
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np

from qbattery import Basis, DensityMatrix, eigendecompose, evolve, group_levels

# The Pauli algebra in the package's ordering: local index 0 is the cell
# ground state, so sigma_z = diag(-1, +1).
SIGMA_Z = np.diag([-1.0 + 0j, 1.0 + 0j])
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def site_operator(n_cells: int, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product over the chain, cell 0 first, identity where unset."""
    ops = [factors.get(site, IDENTITY_2) for site in range(n_cells)]
    return reduce(np.kron, ops)


def paradigmatic_charger_kron(family: str, n_cells: int, lam: float, q=None, r=None) -> np.ndarray:
    """Parallel, global or hybrid charger summed from sigma_x Kronecker chains."""
    n = n_cells
    if family == "parallel":
        mat = sum(site_operator(n, {j: SIGMA_X}) for j in range(n))
    elif family == "global":
        mat = site_operator(n, {j: SIGMA_X for j in range(n)})
    else:
        mat = sum(
            site_operator(n, {block * r + i: SIGMA_X for i in range(r)}) for block in range(q)
        )
    return lam * mat


def jw_chain_kron(n_cells: int, lambdas, gammas) -> np.ndarray:
    """Periodic string-coupled chain summed term by term from Pauli Kronecker chains."""
    n = n_cells
    mat = sum(0.5 * site_operator(n, {j: SIGMA_Z}) for j in range(n))
    for m, (lam_m, gam_m) in enumerate(zip(lambdas, gammas), start=1):
        if lam_m == 0.0 and gam_m == 0.0:
            continue
        for j in range(n):
            string = {(j + step) % n: SIGMA_Z for step in range(1, m)}
            xx = {**string, j: SIGMA_X, (j + m) % n: SIGMA_X}
            yy = {**string, j: SIGMA_Y, (j + m) % n: SIGMA_Y}
            mat = mat + 0.5 * (lam_m + gam_m) * site_operator(n, xx)
            mat = mat + 0.5 * (lam_m - gam_m) * site_operator(n, yy)
    return mat


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
            dephasing_fisher_report(t, fisher, var_c),
            bounds.check_inequality(t, fisher, float(traj.fisher_state[i]), "fisher_vs_state"),
            bounds.check_inequality(
                t, pw**2, bounds.entanglement_power_bound(n, k, fisher), "entanglement_power"
            ),
        ]
    return reports, ks


def permutation_matrix(order) -> np.ndarray:
    """The eigenvectors of a diagonal operator as dense columns: column k is
    the unit vector at basis index order[k]."""
    vecs = np.zeros((len(order), len(order)), dtype=complex)
    vecs[order, np.arange(len(order))] = 1.0
    return vecs


def permutation_run_path(traj):
    """Populations, rates and charger variance of a trajectory's states, with
    the battery eigenbasis applied as a permutation-matrix product and the
    charger weights taken afresh at every time (the raw second moment minus
    the squared mean): the reference for the row gather and the conserved
    psi0 weights of ``trajectory``.
    """
    battery, charger, states = eigendecompose(traj.battery), traj.charger, traj.states
    vecs = permutation_matrix(battery.order)
    overlaps = vecs.conj().T @ states
    driven = vecs.conj().T @ (charger.matrix @ states)
    starts = group_levels(battery.eigenvalues).starts[:-1]
    populations = np.add.reduceat(np.abs(overlaps) ** 2, starts, axis=0)
    rates = 2.0 * np.add.reduceat((overlaps.conj() * driven).imag, starts, axis=0)
    weights = np.abs(charger.eigenvectors.conj().T @ states) ** 2
    mean_c = charger.eigenvalues @ weights
    var_charger = charger.eigenvalues**2 @ weights - mean_c**2
    return populations, rates, var_charger


def dense_battery_observables(psi, battery, charger, m: int = 2) -> dict:
    """Energy, power, variances of H_B and H_B^m, and level populations and
    rates of ``psi``, with the battery as the dense matrix ``np.diag`` of its
    diagonal, powers by ``matrix_power`` and levels from LAPACK's ``eigh``:
    the reference for the observables of a diagonal operator, which apply
    its diagonal as a vector."""
    mat = np.diag(battery.values).astype(complex)
    amp = psi.amplitudes
    b_psi, c_psi = mat @ amp, charger.matrix @ amp

    def var_of(op):
        op_psi = op @ amp
        return np.vdot(op_psi, op_psi).real - np.vdot(amp, op_psi).real ** 2

    vals, vecs = np.linalg.eigh(mat)
    starts = group_levels(vals).starts[:-1]
    overlaps, driven = vecs.conj().T @ amp, vecs.conj().T @ c_psi
    return {
        "energy": np.vdot(amp, b_psi).real,
        "power": 2.0 * np.vdot(b_psi, c_psi).imag,
        "variance": var_of(mat),
        "variance_m": var_of(np.linalg.matrix_power(mat, m)),
        "p": np.add.reduceat(np.abs(overlaps) ** 2, starts),
        "p_dot": 2.0 * np.add.reduceat((overlaps.conj() * driven).imag, starts),
    }


def stored_energy_by_permutation(traj, t: float) -> float:
    """Off-grid stored energy with the battery eigenbasis as a matrix product."""
    psi = evolve(traj.charger, traj.psi0, t)
    battery = eigendecompose(traj.battery)
    overlaps = permutation_matrix(battery.order).conj().T @ psi.amplitudes
    return float(np.abs(overlaps) ** 2 @ battery.eigenvalues - traj.initial_energy)


def format_value(x) -> str:
    """One CSV cell, formatted on its own: the per-value writer's rule."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_csv_per_value(path, header, rows) -> None:
    """The CSV writer that formats and joins one value at a time: the
    reference for the block-formatted ``output.write_csv``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv_with_converter(path) -> dict:
    """Trajectory CSV columns parsed with a Python converter per field (an
    empty field is NaN): the reference for the converter-free reader."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        header = handle.readline().rstrip("\r\n").split(",")
        rows = handle.readlines()
    data = np.loadtxt(rows, delimiter=",", ndmin=2, converters=lambda s: float(s or "nan"))
    return dict(zip(header, data.T))


def run_trajectory_doubling(spec, lam_t_max=None, steps=2000):
    """The automatic Fock cutoff with no screen: the full run at 2N+8 and at
    each doubling until the edge leak is below tolerance.  The reference
    for the screened cutoff choice of ``run_trajectory``."""
    from qbattery import models, trajectory

    times = trajectory.time_grid(spec, lam_t_max, steps)
    n_max = models.model_basis(spec).n_max
    for _ in range(trajectory.MAX_FOCK_DOUBLINGS + 1):
        cutoff = replace(spec, n_max=n_max)
        charger, psi0 = eigendecompose(models.build_charger_for(cutoff)), models.initial_state(cutoff)
        amplitudes = charger.eigenvectors.conj().T @ psi0.amplitudes
        traj = trajectory._run_fixed(cutoff, times, charger, psi0, amplitudes)
        if traj.fock_edge_population < trajectory.FOCK_LEAK_TOL:
            return traj
        n_max *= 2
    raise AssertionError("Fock cutoff did not converge")


def cyclic_shift(n_cells: int) -> np.ndarray:
    """Permutation matrix of the one-site translation j -> j+1 (mod N)."""
    dim = 2**n_cells
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n_cells - 1 - s)) & 1 for s in range(n_cells)]
        shifted = [bits[-1]] + bits[:-1]
        new = sum(b << (n_cells - 1 - s) for s, b in enumerate(shifted))
        perm[new, idx] = 1.0
    return perm


def dephasing_fisher_report(t: float, fisher_energy: float, var_charger: float):
    """I_E <= 4 var(H_C) as one scalar report: energy-space speed never
    exceeds state-space speed."""
    from qbattery import bounds

    return bounds.check_inequality(t, fisher_energy, 4.0 * var_charger, label="dephasing_fisher")


def binary_entropy_inverse(s: float) -> float:
    """The p in [0, 1/2] with h2(p) = s bits, by bisection."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h2 = -mid * math.log2(mid) - (1 - mid) * math.log2(1 - mid) if mid > 0 else 0.0
        lo, hi = (mid, hi) if h2 < s else (lo, mid)
    return 0.5 * (lo + hi)


def register_capacity_closed_form(n_cells: int, s_bits: float) -> float:
    """C_N(S) = N (1 - 2 h2^-1(S / N)) of N identical cells: their Gibbs
    states are products, each cell excited with the probability p whose
    binary entropy is S / N, so E_max - E_min = N (1/2 - p) - N (p - 1/2)."""
    return n_cells * (1.0 - 2.0 * binary_entropy_inverse(s_bits / n_cells))
