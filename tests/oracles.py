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

from qbattery import (
    Basis, DensityMatrix, HermitianOperator, StateVector, eigendecompose, evolve, group_levels,
)
from qbattery.linalg import PHASE_STRIDE, _grid_indices, _phases, grid_step, matmul, real_if_exact
from qbattery.models import build_battery_for, build_charger_for, initial_state

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


def poisson_binomial_forward(q: np.ndarray, q_dot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (levels x times) distribution and rate of (modes x times) occupations
    by the plain forward recursion, one mode at a time over the whole product:
    S <- S (1 - q_k + q_k z) + qdot_k P, then P <- P (1 - q_k + q_k z), and
    pdot = (z - 1) S.  The package's recursion before it was blocked."""
    n_modes, n_times = q.shape
    r = 1.0 - q
    p = np.zeros((n_modes + 1, n_times))
    p[0] = 1.0
    s, rate, work = np.zeros_like(p), np.empty_like(p), np.empty_like(p)
    for c in range(n_modes):
        np.multiply(p[: c + 1], q_dot[c], out=rate[: c + 1])
        for x in (s, p):  # row c of S is still zero
            np.multiply(x[: c + 1], q[c], out=work[: c + 1])
            x[: c + 1] *= r[c]
            x[1 : c + 2] += work[: c + 1]
        s[: c + 1] += rate[: c + 1]
    p_dot = -s
    p_dot[1:] += s[:-1]
    return p, p_dot


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
    energies = np.arange(n + 1) - n / 2
    var_c = traj.var_charger
    reports, ks = [], []
    for i in range(traj.n_steps):
        t = float(traj.times[i])
        p, p_dot = traj.populations[:, i], traj.population_rates[:, i]
        pw, var_b = float(traj.power[i]), float(traj.var_battery[i])
        fisher = float(traj.fisher_energy_full[i])
        k = bounds.witness_entangled_block_size(var_b, n)
        ks.append(k)
        reports += [
            bounds.fisher_power_bound(t, pw, var_b, fisher),
            bounds.moment_rate_bound(t, energies, p, p_dot, 1),
            bounds.moment_rate_bound(t, energies, p, p_dot, 2),
            bounds.heisenberg_power_bound(t, pw, var_b, var_c),
            dephasing_fisher_report(t, fisher, var_c),
            bounds.check_inequality(t, fisher, 4.0 * var_c, "fisher_vs_state"),  # I_Q, pure state
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


def grid_phases_per_call(freqs, times, step=None, times_first=False) -> np.ndarray:
    """exp(-i f t) as (frequencies x times), or (times x frequencies) if
    ``times_first``, from a table made for this call alone: with the ``step``
    of a uniform grid, a cos and a sin at every PHASE_STRIDE-th grid index
    and at the offsets, and their products between; else each time's own
    cos and sin.  The reference for ``linalg.PhaseTable``'s reused buffer
    and its once-per-grid offsets."""
    freqs, times = np.asarray(freqs, dtype=float), np.asarray(times, dtype=float)
    if step is None or not len(times):
        return _phases(np.multiply.outer(times, freqs) if times_first else np.outer(freqs, times))
    index = _grid_indices(times, float(step))
    first = index[0] - index[0] % PHASE_STRIDE
    base_times = np.arange(first, index[-1] + 1, PHASE_STRIDE) * step
    if times_first:
        table = rows = np.empty((len(base_times), PHASE_STRIDE, len(freqs)), dtype=complex)
    else:
        table = np.empty((len(freqs), len(base_times), PHASE_STRIDE), dtype=complex)
        rows = table.transpose(1, 2, 0)
    rows[:, 0] = _phases(np.multiply.outer(base_times, freqs))
    offsets = _phases(np.multiply.outer(np.arange(1, PHASE_STRIDE) * step, freqs))
    np.multiply(rows[:, :1], offsets, out=rows[:, 1:])
    window = slice(index[0] - first, index[0] - first + len(times))
    if times_first:
        return table.reshape(-1, len(freqs))[window]
    return table.reshape(len(freqs), -1)[:, window]


def evolve_batch_per_call(hamiltonian, coeff, times, step=None) -> np.ndarray:
    """The states V exp(-i L t) coeff at ``times`` as (dim, T) columns, on
    the phases of :func:`grid_phases_per_call`, with the package's product
    (``linalg.matmul``: real arithmetic for real eigenvectors)."""
    phased = grid_phases_per_call(hamiltonian.eigenvalues, times, step)
    phased *= coeff[:, None]
    if hamiltonian.is_diagonal:
        states = np.empty_like(phased)
        states[hamiltonian.order] = phased
        return states
    return matmul(hamiltonian.eigenvectors, phased)


def squared_moduli(amplitudes: np.ndarray) -> np.ndarray:
    """|z|^2 of each amplitude in the dense run's form, re^2 + im^2."""
    return amplitudes.real**2 + amplitudes.imag**2


def probability_flux(amplitudes: np.ndarray, driven: np.ndarray) -> np.ndarray:
    """Im(conj(z) w) of each amplitude z and its entry w of H_C psi, in the
    dense run's form re(z) im(w) - im(z) re(w)."""
    return amplitudes.real * driven.imag - amplitudes.imag * driven.real


def chain_series_per_block(modes, times) -> dict:
    """E, P and var(H_B) of a chain on a grid, each TIME_CHUNK block from
    its own phase table (:func:`grid_phases_per_call`) and its own sin^2 and
    sin cos arrays: the reference for ``freefermion.observables_on_grid``."""
    from qbattery import models

    times = np.asarray(times, dtype=float)
    step = grid_step(times) if len(times) > 1 else None
    a = modes.sin_theta**2
    out = {name: np.empty(len(times)) for name in ("energy", "power", "var_battery")}
    for block in models.time_blocks(len(times)):
        phases = grid_phases_per_call(modes.omega, times[block], step, times_first=True)
        sin, cos = phases.imag, phases.real
        sin2, sin_cos = sin * sin, sin * cos
        out["energy"][block] = np.einsum("tk,k->t", sin2, 2.0 * a)
        out["power"][block] = np.einsum("tk,k->t", sin_cos, -4.0 * a * modes.omega)
        out["var_battery"][block] = (
            np.einsum("tk,k->t", np.square(sin_cos, out=sin_cos), 4.0 * a)
            + np.einsum("tk,k->t", np.square(sin2, out=sin2), 4.0 * a * (1.0 - a))
        )
    return out


def dense_level_sums_per_block(traj) -> tuple[np.ndarray, np.ndarray]:
    """A dense record's populations and rates again, each TIME_CHUNK block
    propagated by :func:`evolve_batch_per_call` under the record's sector
    charger and summed into levels as the run sums them, with its products
    and forms: the reference for the run's shared phase table and its block
    buffers."""
    from qbattery import models
    from qbattery.models import excitation_counts, register_spectrum

    sector = traj.sector
    amplitudes = sector.to_eigenbasis(sector.basis.project(initial_state(traj.spec).amplitudes))
    counts = excitation_counts(sector.basis)
    order = np.lexsort((sector.basis.indices, counts))
    sizes = np.bincount(counts, minlength=len(register_spectrum(traj.spec.n_cells)[0]))
    reached = np.flatnonzero(sizes)
    starts = (np.cumsum(sizes) - sizes)[reached]
    populations = np.zeros((len(sizes), traj.n_steps))
    rates = np.zeros_like(populations)
    for block in models.time_blocks(traj.n_steps):
        states = evolve_batch_per_call(sector, amplitudes, traj.times[block], traj.step)
        overlaps = states[order]
        driven = matmul(real_if_exact(sector.matrix), states)[order]
        populations[reached, block] = np.add.reduceat(squared_moduli(overlaps), starts, axis=0)
        rates[reached, block] = 2.0 * np.add.reduceat(probability_flux(overlaps, driven), starts, axis=0)
    return populations, rates


def whole_grid_states(traj) -> np.ndarray:
    """A dense run's states as (dim, T) columns of the full basis, from one
    propagation of the whole grid under the record's sector charger from
    V^dag psi0, exactly zero off the sector: the reference for the run's
    propagation in blocks of times."""
    sector, psi0 = traj.sector, initial_state(traj.spec)
    indices = sector.basis.indices
    amplitudes = matmul(sector.eigenvectors.conj().T, psi0.amplitudes[indices])
    states = np.zeros((psi0.dim, traj.n_steps), dtype=complex)
    states[indices] = evolve_batch_per_call(sector, amplitudes, traj.times, traj.step)
    return states


def permutation_run_path(traj):
    """Populations, rates and charger variance of a trajectory's states, with
    the states propagated over the whole grid at once, the battery eigenbasis
    applied as a permutation-matrix product over the full basis and the
    charger weights taken afresh at every time from the full charger's own
    eigendecomposition (the raw second moment minus the squared mean): the
    reference for the blocked propagation, the row gather over the sector and
    the conserved psi0 weights of ``trajectory``.  H_C psi is the record's
    sector charger applied to the sector's states, placed in the full basis.
    The levels sum the sector's rows of the product (numpy sums eight or
    more rows pairwise, so zero rows would move the rounding); a level with
    none of them stays zero.
    """
    battery = eigendecompose(build_battery_for(traj.spec))
    states = whole_grid_states(traj)
    indices = traj.sector.basis.indices
    driven_states = np.zeros_like(states)
    driven_states[indices] = matmul(real_if_exact(traj.sector.matrix), states[indices])
    vecs = permutation_matrix(battery.order)
    in_sector = np.isin(battery.order, indices)
    overlaps = (vecs.conj().T @ states)[in_sector]
    driven = (vecs.conj().T @ driven_states)[in_sector]
    levels = group_levels(battery.eigenvalues)
    level_of_row = np.repeat(np.arange(len(levels.energies)), levels.multiplicities)[in_sector]
    reached, starts = np.unique(level_of_row, return_index=True)
    populations = np.zeros((len(levels.energies), traj.n_steps))
    rates = np.zeros_like(populations)
    populations[reached] = np.add.reduceat(squared_moduli(overlaps), starts, axis=0)
    rates[reached] = 2.0 * np.add.reduceat(probability_flux(overlaps, driven), starts, axis=0)
    charger = eigendecompose(build_charger_for(traj.spec).dense())
    weights = np.abs(charger.eigenvectors.conj().T @ states) ** 2
    mean_c = charger.eigenvalues @ weights
    var_charger = charger.eigenvalues**2 @ weights - mean_c**2
    return populations, rates, var_charger


def full_space_run(spec, times):
    """The dense run of ``spec`` in its whole model basis, the arithmetic of
    the run before it kept to psi0's sector: the dense charger's
    (:func:`dense_charger`) own
    eigendecomposition, each TIME_CHUNK block of times propagated on the
    grid's phase table and summed into levels over every basis state.  Returns the run record and the
    (dim, T) states: the reference for the sector run.  ``spec`` must carry
    its Fock cutoff, if any."""
    from qbattery import models, trajectory

    charger = eigendecompose(HermitianOperator(dense_charger(spec), models.model_basis(spec)))
    psi0 = models.initial_state(spec)
    amplitudes = matmul(charger.eigenvectors.conj().T, psi0.amplitudes)
    drive = real_if_exact(charger.matrix)
    battery = eigendecompose(build_battery_for(spec))
    levels = group_levels(battery.eigenvalues)
    e_levels, starts = levels.energies, levels.starts[:-1]
    states = np.empty((charger.dim, len(times)), dtype=complex)
    populations = np.empty((len(e_levels), len(times)))
    rates = np.empty_like(populations)
    for block in models.time_blocks(len(times)):
        states[:, block] = evolve_batch_per_call(charger, amplitudes, times[block], grid_step(times))
        overlaps = states[battery.order, block]
        driven = matmul(drive, states[:, block])[battery.order]
        populations[:, block] = np.add.reduceat(squared_moduli(overlaps), starts, axis=0)
        rates[:, block] = 2.0 * np.add.reduceat(probability_flux(overlaps, driven), starts, axis=0)
    leak = 0.0
    if charger.basis.kind == "spin_fock":
        blocks = states.reshape(spec.n_cells + 1, spec.n_max + 1, -1)
        leak = float(squared_moduli(blocks[:, spec.n_max - 1 :, :]).sum(axis=(0, 1)).max())
    energy_abs = e_levels @ populations
    initial_energy = float(energy_abs[0])
    weights = np.abs(amplitudes) ** 2
    mean_c = charger.eigenvalues @ weights
    var_charger = weights @ (charger.eigenvalues - mean_c) ** 2

    def stored_energy_at(t: float) -> float:
        psi = evolve_batch_per_call(charger, amplitudes, np.array([t]))[:, 0]
        return float(np.abs(psi[battery.order]) ** 2 @ battery.eigenvalues - initial_energy)

    def power_at(t: float) -> float:
        psi = evolve_batch_per_call(charger, amplitudes, np.array([t]))[:, 0]
        rates = 2.0 * (psi.conj() * matmul(drive, psi)).imag
        return float(rates[battery.order] @ battery.eigenvalues)

    record = trajectory.Trajectory(
        spec, times, initial_energy, energy_abs - initial_energy, e_levels @ rates,
        e_levels**2 @ populations - energy_abs**2, var_charger, stored_energy_at, power_at,
        (populations, rates), fock_edge_population=leak, sector=charger, coefficients=amplitudes,
    )
    return record, states


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
    """Off-grid stored energy with the battery eigenbasis as a matrix product
    over the full basis, of the state propagated under the record's sector
    charger; the sum runs over the sector's rows of that product."""
    sector, psi0 = traj.sector, initial_state(traj.spec)
    indices = sector.basis.indices
    psi = np.zeros(psi0.dim, dtype=complex)
    psi[indices] = evolve(sector, StateVector(psi0.amplitudes[indices], sector.basis), t).amplitudes
    battery = eigendecompose(build_battery_for(traj.spec))
    in_sector = np.isin(battery.order, indices)
    overlaps = (permutation_matrix(battery.order).conj().T @ psi)[in_sector]
    return float(np.abs(overlaps) ** 2 @ battery.eigenvalues[in_sector] - traj.initial_energy)


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
    """The automatic Fock cutoff with every cutoff run in full: the run at
    2N+8 and at each doubling until the edge leak is below tolerance.  The
    reference for ``run_trajectory``'s search, which stops a cutoff's run at
    its first leaking block of times."""
    from qbattery import models, trajectory

    times = trajectory.time_grid(spec, lam_t_max, steps)
    n_max = models.model_basis(spec).n_max
    for _ in range(trajectory.MAX_FOCK_DOUBLINGS + 1):
        traj = trajectory._run_fixed(replace(spec, n_max=n_max), times)
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


# -- The dense chargers and sector scans that the entry lists replaced ---------


def _place_flips_dense(mat, n_cells: int, cells, values) -> None:
    """Add ``values`` at <idx ^ mask| . |idx> of a dense matrix for every basis
    index idx, where ``mask`` flips the bits of ``cells``."""
    mask = sum(1 << (n_cells - 1 - site) for site in set(cells))
    idx = np.arange(mat.shape[0])
    mat[idx ^ mask, idx] += values


def collective_spin_operators(n_cells: int) -> dict[str, np.ndarray]:
    """J_z, J_+, J_- in the maximal-spin sector basis |j, m>, m = -j..j, as
    dense complex matrices: the operators of the LMG and Dicke references."""
    from qbattery import models

    m, raising = models._spin_ladder(n_cells)
    jz = np.diag(m.astype(complex))
    jp = np.zeros((n_cells + 1, n_cells + 1), dtype=complex)
    jp[np.arange(1, n_cells + 1), np.arange(n_cells)] = raising
    return {"jz": jz, "jp": jp, "jm": jp.conj().T}


def dense_charger(spec) -> np.ndarray:
    """The charger of ``spec`` as the dense matrix the builders once returned,
    with their arithmetic: bit-flip terms added into a dense array in term
    order, LMG from its dense collective-spin operators, and Dicke as a sum
    of Kronecker products.  The reference for the entry lists."""
    from qbattery import models

    n = spec.n_cells
    basis = models.model_basis(spec)
    if spec.family in models.PARADIGMATIC_FAMILIES:
        if spec.family == "parallel":
            blocks = [[j] for j in range(n)]
        elif spec.family == "global":
            blocks = [range(n)]
        else:
            blocks = [range(block * spec.r, (block + 1) * spec.r) for block in range(spec.q)]
        mat = np.zeros((2**n, 2**n), dtype=complex)
        for cells in blocks:
            _place_flips_dense(mat, n, cells, spec.lam)
        return mat
    if spec.family == "jw_chain":
        mat = np.diag(models._ladder(basis).astype(complex))
        occupation = [models._site_values(n, site) for site in range(n)]
        for m, (lam_m, gam_m) in enumerate(zip(spec.lambdas, spec.gammas), start=1):
            if lam_m == 0.0 and gam_m == 0.0:
                continue
            for j in range(n):
                k = (j + m) % n
                ground_on_string = sum(1 - occupation[(j + step) % n] for step in range(1, m))
                sign = np.where(ground_on_string % 2 == 0, 1.0, -1.0)
                yy_sign = np.where(occupation[j] == occupation[k], -1.0, 1.0)
                _place_flips_dense(mat, n, (j, k), 0.5 * (lam_m + gam_m) * sign)
                _place_flips_dense(mat, n, (j, k), 0.5 * (lam_m - gam_m) * sign * yy_sign)
        return mat
    ops = collective_spin_operators(n)
    if spec.family == "lmg":
        jz, jp, jm = ops["jz"], ops["jp"], ops["jm"]
        mixing = jp @ jm + jm @ jp - n * np.eye(n + 1)
        pairing = jp @ jp + jm @ jm
        return spec.lam / (2 * n) * ((1 + spec.gamma) * mixing + (1 - spec.gamma) * pairing) + jz
    n_max = basis.n_max
    jx = (ops["jp"] + ops["jm"]) / 2
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    coupling = 2 * spec.lam / np.sqrt(n) if spec.normalize_coupling else 2 * spec.lam
    return (
        np.kron(ops["jz"], np.eye(n_max + 1))
        + np.kron(np.eye(n + 1), a.conj().T @ a)
        + coupling * np.kron(jx, a + a.conj().T)
    )


def dense_invariant_sector(matrix: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """psi0's sector by frontier passes over the dense matrix's nonzero
    pattern: the reference for ``linalg.invariant_sector``."""
    reached = np.asarray(amplitudes) != 0
    frontier = np.flatnonzero(reached)
    passes = [frontier]
    linked = matrix != 0
    while frontier.size:
        frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~reached)
        reached[frontier] = True
        passes.append(frontier)
    return np.concatenate(passes)[::-1]


def dense_equitable_groups(matrix: np.ndarray, sector: np.ndarray, labels: np.ndarray) -> list:
    """Colour refinement over the dense matrix's nonzero entries: the
    reference for ``linalg.equitable_groups``."""
    from qbattery.linalg import _row_ids

    sector = np.asarray(sector)
    labels = np.asarray(labels).reshape(matrix.shape[0], -1)[sector]
    colours = _row_ids(labels)
    n_colours = colours.max() + 1
    if n_colours < len(sector):
        position = np.full(matrix.shape[0], -1)
        position[sector] = np.arange(len(sector))
        rows, cols = np.nonzero(matrix)
        inside = position[rows] >= 0
        rows, cols = rows[inside], cols[inside]
        entries = np.unique(matrix[rows, cols], return_inverse=True)[1].ravel()
        rows, cols = position[rows], position[cols]
        by_row = np.argsort(rows, kind="stable")
        rows, cols, entries = rows[by_row], cols[by_row], entries[by_row]
        degree = np.bincount(rows, minlength=len(sector))
        slot = np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)
        signature = np.empty((len(sector), degree.max() + 1), dtype=np.int64)
        while True:
            signature[:, 0] = colours
            signature[:, 1:] = -1
            signature[rows, 1 + slot] = colours[cols] * (entries.max() + 1) + entries
            signature[:, 1:].sort(axis=1)
            refined = _row_ids(signature)
            if refined.max() + 1 == n_colours:
                break
            colours, n_colours = refined, refined.max() + 1
    first = np.full(n_colours, len(sector))
    np.minimum.at(first, colours, np.arange(len(sector)))
    rank = np.argsort(np.argsort(first))[colours]
    order = np.argsort(rank, kind="stable")
    return np.split(sector[order], np.flatnonzero(np.diff(rank[order])) + 1)


def dense_lump(matrix: np.ndarray, groups) -> np.ndarray:
    """The charger on the even spreads over ``groups`` from the whole dense
    matrix: its principal submatrix for one-state groups, else the row sums
    of each group's first state over every group, scaled and symmetrized;
    the matrix itself when the groups cover its basis one state each.
    The reference for ``SparseHermitian.lump``."""
    groups = [np.asarray(group) for group in groups]
    idx = np.concatenate(groups)
    if len(idx) == len(groups) == len(matrix):
        return matrix  # the whole basis, in its own order
    if len(idx) == len(groups):
        return matrix[np.ix_(idx, idx)]
    sizes = np.array([len(group) for group in groups])
    first = np.array([group[0] for group in groups])
    sums = np.add.reduceat(matrix[np.ix_(first, idx)], np.cumsum(sizes) - sizes, axis=1)
    values = sums * np.sqrt(np.outer(sizes, 1.0 / sizes))
    return (values + values.conj().T) / 2


def power_root_bisection(power_at, a: float, b: float, p_a=None, p_b=None) -> float:
    """The power's sign change in [a, b] by plain bisection, one evaluation
    per midpoint until the bracket is PEAK_REL_TOL of its later end: the
    reference for ``trajectory._power_root`` (the grid powers p_a and p_b
    are accepted and unread)."""
    from qbattery.trajectory import PEAK_REL_TOL

    while b - a > PEAK_REL_TOL * b:
        mid = 0.5 * (a + b)
        p = power_at(mid)
        if p == 0.0:
            return mid
        a, b = (mid, b) if p > 0.0 else (a, mid)
    return 0.5 * (a + b)


def thermal_point_per_beta(spectrum, beta: float):
    """Energy and entropy (bits) of the Gibbs state of a level spectrum at one
    beta, one argmax, exp and sum per call: the reference for the batched
    ``capacity`` thermal kernel, bit for bit."""
    from qbattery.capacity import LN2, DiagramPoint

    energies, log_multiplicities = spectrum
    if math.isinf(beta):
        m = len(energies) - 1 if beta < 0 else 0
        p = np.zeros(len(energies))
        p[m] = 1.0
        log_z = 0.0
    else:
        m = int(np.argmax(log_multiplicities - beta * energies))
        w = np.exp((log_multiplicities - log_multiplicities[m]) - beta * (energies - energies[m]))
        z = w.sum()
        p, log_z = w / z, math.log(z)
    offset = float(p @ (energies - energies[m]))
    spread = 0.0 if math.isinf(beta) else beta * offset
    entropy = (log_multiplicities[m] + log_z + spread) / LN2
    return DiagramPoint(energy=float(p @ energies), entropy_bits=float(entropy), beta=beta)


def thermal_curve_per_beta(spectrum, betas) -> list:
    """``thermal_point_per_beta`` at each beta of the grid."""
    return [thermal_point_per_beta(spectrum, float(b)) for b in betas]


def solve_positive_branch_bisection(spectrum, s_target: float, counter=None):
    """Bisect beta >= 0 so that S(beta) hits the target entropy (bits), one
    thermal evaluation per midpoint: the reference for
    ``capacity._solve_positive_branch``.  ``counter``, a one-item list, counts
    the evaluations."""
    from qbattery.capacity import (
        BETA_BRACKET_CAP, BETA_BRACKET_HIGH, BETA_BRACKET_LOW, BISECTION_RESIDUAL, _entropy_range,
    )
    from qbattery.errors import ValidationError

    def point_at(beta):
        if counter is not None:
            counter[0] += 1
        return thermal_point_per_beta(spectrum, beta)

    s_max, slack = _entropy_range(spectrum)
    if s_target > s_max + slack or s_target < spectrum[1][0] / math.log(2.0) - slack:
        raise ValidationError(f"target entropy {s_target} out of range")
    if abs(s_target - s_max) <= slack:
        return point_at(0.0)
    lo, hi = BETA_BRACKET_LOW, BETA_BRACKET_HIGH
    while point_at(hi).entropy_bits > s_target + BISECTION_RESIDUAL:
        hi *= 10.0
        if hi > BETA_BRACKET_CAP:
            raise ValidationError(f"target entropy {s_target} not reachable")
    if point_at(lo).entropy_bits < s_target - BISECTION_RESIDUAL:
        return point_at(lo)
    beta = lo
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        s_beta = point_at(beta).entropy_bits
        if abs(s_beta - s_target) < BISECTION_RESIDUAL:
            break
        if s_beta > s_target:
            lo = beta
        else:
            hi = beta
    point = point_at(beta)
    if abs(point.entropy_bits - s_target) > BISECTION_RESIDUAL:
        raise ValidationError("bisection stalled")
    return point


def solve_beta_for_entropy_bisection(spectrum, s_target: float, branch: str, counter=None):
    """``solve_positive_branch_bisection`` on either branch, the negative one
    on the mirrored spectrum: the reference for ``capacity.solve_beta_for_entropy``."""
    from qbattery.capacity import DiagramPoint

    if branch == "positive_beta":
        return solve_positive_branch_bisection(spectrum, s_target, counter)
    energies, log_multiplicities = spectrum
    mirrored = solve_positive_branch_bisection(
        (-energies[::-1], log_multiplicities[::-1]), s_target, counter
    )
    return DiagramPoint(energy=-mirrored.energy, entropy_bits=mirrored.entropy_bits, beta=-mirrored.beta)


def invariant_sector_unique(op, amplitudes) -> np.ndarray:
    """``linalg.invariant_sector``'s frontier loop with each pass's linked
    states taken by ``np.unique``: the reference for its order."""
    reached = np.asarray(amplitudes) != 0
    frontier = np.flatnonzero(reached)
    passes = [frontier]
    while frontier.size:
        linked = np.unique(op.cols[op.row_entries(frontier)])
        frontier = linked[~reached[linked]]
        reached[frontier] = True
        passes.append(frontier)
    return np.concatenate(passes)[::-1]
