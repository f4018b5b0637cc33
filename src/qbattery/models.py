"""Battery and charger Hamiltonians in the smallest faithful basis.

Qubit-chain conventions: local basis index 0 is the cell ground state, so the
single-cell energy is ``diag(-1/2, +1/2)`` and the battery Hamiltonian is
diagonal with eigenvalue ``w - N/2`` on a basis state with ``w`` excited
cells.  In that ordering sigma_z = diag(-1, +1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import CapacityLimitError, ValidationError
from .linalg import Basis, HermitianOperator, StateVector

RUN_BYTES_MAX = 4 * 2**30  # admits a dense run of N = 12 qubits at 2000 steps
# Times per block of the dense and free-fermion grid evaluations; keeps each
# (rows x times) work array to about 10 MB for the pair recursion at N = 10^4.
TIME_CHUNK = 256

PARADIGMATIC_FAMILIES = ("parallel", "global", "hybrid")
# The fields each family takes besides family, n_cells and lam.  Every
# other field must keep its default.
FAMILY_FIELDS = {
    "parallel": (),
    "global": (),
    "hybrid": ("q", "r"),
    "jw_chain": ("lambdas", "gammas"),
    "lmg": ("gamma",),
    "dicke": ("n_max", "normalize_coupling"),
}
FAMILIES = tuple(FAMILY_FIELDS)


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one charging scenario.

    lam is the charging frequency (hbar = 1); family-specific fields are the
    hybrid block layout (q blocks of r consecutive cells, q*r = N), the chain
    coupling lists lambdas/gammas indexed by range m = 1..M, the collective
    anisotropy gamma, and the Fock cutoff n_max (None = automatic, see run_trajectory).
    """

    family: str
    n_cells: int
    lam: float = 1.0
    q: int | None = None
    r: int | None = None
    lambdas: tuple[float, ...] = ()
    gammas: tuple[float, ...] = ()
    gamma: float = -1.0
    n_max: int | None = None
    normalize_coupling: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown model family {self.family!r}")
        if self.n_cells < 1:
            raise ValidationError("n_cells must be >= 1")
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        object.__setattr__(self, "gammas", tuple(float(x) for x in self.gammas))
        object.__setattr__(self, "gamma", float(self.gamma))
        own = ("family", "n_cells", "lam") + FAMILY_FIELDS[self.family]
        foreign = [
            f.name for f in fields(self)
            if f.name not in own and getattr(self, f.name) != f.default
        ]
        if foreign:
            raise ValidationError(f"{self.family} model takes no {', '.join(foreign)}")
        if self.family == "hybrid":
            if self.q is None or self.r is None or self.q < 1 or self.r < 1:
                raise ValidationError("hybrid model needs block counts q, r >= 1")
            if self.q * self.r != self.n_cells:
                raise ValidationError(
                    f"hybrid blocks q*r = {self.q * self.r} != N = {self.n_cells}"
                )
        if self.family == "jw_chain":
            if len(self.lambdas) != len(self.gammas):
                raise ValidationError("lambdas and gammas must have equal length")
            if not self.lambdas:
                raise ValidationError("jw_chain needs at least one coupling")
            if len(self.lambdas) > self.n_cells - 1:
                raise ValidationError("coupling range M must satisfy M <= N-1")
        model_basis(self)  # rejects a Fock cutoff without headroom


def power_law_couplings(n_cells: int, kind: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """gamma_m = m^-2 couplings; "xx" sets lambda_m = gamma_m, "xy" sets lambda_m = 0."""
    m_max = max(n_cells // 2 - 1, 1)  # the longest range free of double counting on the ring
    gammas = tuple(float(m) ** -2 for m in range(1, m_max + 1))
    lambdas = gammas if kind == "xx" else tuple(0.0 for _ in gammas)
    return lambdas, gammas


CHAIN_VARIANTS = ("xx_nn", "xy_nn", "xx_pow", "xy_pow")


def chain_spec(variant: str, n_cells: int) -> ModelSpec:
    """Named chain coupling choices: nearest-neighbor (gamma_1 = 1) or
    power law (gamma_m = m^-2), each with lambda_m = gamma_m ("xx") or 0 ("xy")."""
    if variant not in CHAIN_VARIANTS:
        raise ValidationError(f"unknown chain variant {variant!r}")
    kind, law = variant.split("_")
    if law == "nn":
        gammas = (1.0,)
        lambdas = (1.0,) if kind == "xx" else (0.0,)
    else:
        lambdas, gammas = power_law_couplings(n_cells, kind)
    return ModelSpec(family="jw_chain", n_cells=n_cells, lambdas=lambdas, gammas=gammas)


def _site_values(n_cells: int, site: int) -> np.ndarray:
    """Occupation (0 ground, 1 excited) of one cell for every basis index.

    Cell j is bit N-1-j of the index, the order of a Kronecker product
    whose first factor is cell 0.
    """
    return (np.arange(2**n_cells) >> (n_cells - 1 - site)) & 1


def _place_flips(mat: np.ndarray, n_cells: int, cells, values) -> None:
    """Add ``values`` at <idx ^ mask| . |idx> for every basis index idx, where
    ``mask`` flips the bits of ``cells``."""
    mask = sum(1 << (n_cells - 1 - site) for site in set(cells))
    idx = np.arange(mat.shape[0])
    mat[idx ^ mask, idx] += values


def model_basis(spec: ModelSpec) -> Basis:
    """The basis a model family runs in.  The cavity's Fock cutoff is
    ``spec.n_max``, else 2N+8, with headroom above N."""
    n = spec.n_cells
    if spec.family == "lmg":
        return Basis("collective_spin", n)
    if spec.family != "dicke":
        return Basis("qubit_chain", n)
    n_max = spec.n_max if spec.n_max is not None else 2 * n + 8
    if n_max < n + 2:
        raise ValidationError(
            f"dicke n_max = {n_max} leaves no headroom above the initial "
            f"Fock level; need n_max >= N+2 = {n + 2}"
        )
    return Basis("spin_fock", n, n_max)


def excitation_counts(basis: Basis) -> np.ndarray:
    """Excited cells w of each basis index: the set bits of a qubit-chain
    index, m + N/2 of a collective spin, the spin index of a spin-Fock one."""
    idx = np.arange(basis.dim)
    if basis.kind == "qubit_chain":
        return sum((idx >> site) & 1 for site in range(basis.n_cells))
    return idx if basis.kind == "collective_spin" else idx // (basis.n_max + 1)


def _ladder(basis: Basis) -> np.ndarray:
    """Diagonal of the battery H_B = sum_i h_i: w - N/2 at each basis index."""
    return excitation_counts(basis) - basis.n_cells / 2


def register_spectrum(n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Level spectrum of the N-cell battery H_B = sum_i h_i, in O(N): the
    ascending energies k - N/2 and the natural log of each level's
    multiplicity C(N, k), kept as a log because C(N, N/2) overflows a float
    beyond N ~ 1000."""
    if n_cells < 1:
        raise ValidationError("n_cells must be >= 1")
    log_factorial = np.array([math.lgamma(j + 1) for j in range(n_cells + 1)])
    return (
        np.arange(n_cells + 1) - n_cells / 2,
        log_factorial[-1] - log_factorial - log_factorial[::-1],
    )


def build_battery(n_cells: int) -> HermitianOperator:
    """Qubit-chain battery, diagonal with spectrum {w - N/2}: a vector of
    2^N floats, no dense matrix."""
    basis = Basis("qubit_chain", n_cells)
    return HermitianOperator(_ladder(basis), basis)


def battery_cell_terms(n_cells: int) -> list[np.ndarray]:
    """The N single-cell terms of the battery Hamiltonian, each diagonal in
    the qubit-chain basis, as their diagonals: -1/2 or +1/2 at each index."""
    return [np.where(_site_values(n_cells, j) == 1, 0.5, -0.5) for j in range(n_cells)]


def gigabytes(n_bytes: int) -> str:
    """A byte count in GB to 3 significant digits.  A count past float range
    (a dense run of ~500 qubits) is scaled exactly as a Decimal instead."""
    if n_bytes < 1e300:
        return f"{n_bytes / 1e9:.3g} GB"
    from decimal import Decimal  # imported here: a 2 ms import no other path needs

    return f"{Decimal(n_bytes).scaleb(-9):.2e} GB"


def check_run_bytes(need: int, run: str) -> int:
    """``need``, the estimated bytes of ``run``; CapacityLimitError, naming the
    run and the estimate, if it exceeds RUN_BYTES_MAX."""
    if need > RUN_BYTES_MAX:
        raise CapacityLimitError(
            f"{run} needs ~{gigabytes(need)}, over the {RUN_BYTES_MAX / 1e9:.2g} GB run limit"
        )
    return need


def check_dense_size(spec: ModelSpec, steps: int = 0) -> int:
    """The estimated bytes of a dense run of ``spec`` over ``steps`` times;
    CapacityLimitError, before anything is allocated, if over RUN_BYTES_MAX.

    16 (7 dim^2 + 5 dim B) + 64 L T for dim basis states, L = N + 1 levels, T
    steps and B = min(T, TIME_CHUNK) covers the complex charger, its
    eigenvectors and LAPACK's workspace; one block of states and propagation
    temporaries; the (levels x times) series (L = dim for lmg).  It is 1.2-1.8x
    the max RSS growth over the post-import baseline of run_trajectory +
    certify_trajectory (2 cores, OpenBLAS 0.3.31), in MB: xy_nn N = 9 / 10 at
    2000 steps 27 / 89; parallel N = 9 at 500 / 20000 25 / 30; lmg N = 400 at
    2000 50, N = 1000 at 200 120; auto-cutoff dicke at 2000, N = 6 (n_max 80)
    31, N = 12 (n_max 128) 255.  A qubit dimension past int64 is written 2^N.
    """
    basis = model_basis(spec)
    block = min(steps, TIME_CHUNK)
    need = 16 * (7 * basis.dim**2 + 5 * basis.dim * block) + 64 * (spec.n_cells + 1) * steps
    dim = f"2^{spec.n_cells}" if basis.dim > 2**63 else str(basis.dim)
    cutoff = f", n_max {basis.n_max}" if basis.kind == "spin_fock" else ""
    return check_run_bytes(
        need, f"dense run of {spec.family} N = {spec.n_cells} (dim {dim}{cutoff}, {steps} steps)"
    )


def build_charger_paradigmatic(spec: ModelSpec) -> HermitianOperator:
    """Parallel, global, or hybrid product-of-sigma_x charger.

    Each product of sigma_x over a set of cells flips those cells' bits, so
    it is a permutation matrix with entry 1 at <idx ^ mask| . |idx>.
    """
    if spec.family not in PARADIGMATIC_FAMILIES:
        raise ValidationError(f"{spec.family!r} is not a paradigmatic family")
    check_dense_size(spec)
    n = spec.n_cells
    if spec.family == "parallel":
        blocks = [[j] for j in range(n)]
    elif spec.family == "global":
        blocks = [range(n)]
    else:
        blocks = [range(block * spec.r, (block + 1) * spec.r) for block in range(spec.q)]
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for cells in blocks:
        _place_flips(mat, n, cells, spec.lam)
    return HermitianOperator(mat, Basis("qubit_chain", n))


def build_jw_chain(spec: ModelSpec) -> HermitianOperator:
    """Periodic chain of string-coupled cells, dense form.

    H = H_B + (1/2) sum_{j, m} [(lambda_m + gamma_m) X_j Z...Z X_{j+m}
                               + (lambda_m - gamma_m) Y_j Z...Z Y_{j+m}]
    with site indices mod N.  Both products flip the bits of sites j and
    j+m; the Z string contributes (-1)^(ground cells on the string), and
    Y_j Y_{j+m} equals -X_j X_{j+m} where the two flipped bits are equal and
    +X_j X_{j+m} where they differ.  Terms are added in the order (m, j, XX,
    YY), so entries that several terms share sum in a fixed order.
    """
    if spec.family != "jw_chain":
        raise ValidationError("build_jw_chain needs a jw_chain spec")
    check_dense_size(spec)
    n = spec.n_cells
    mat = np.diag(_ladder(Basis("qubit_chain", n)).astype(complex))
    occupation = [_site_values(n, site) for site in range(n)]
    for m, (lam_m, gam_m) in enumerate(zip(spec.lambdas, spec.gammas), start=1):
        if lam_m == 0.0 and gam_m == 0.0:
            continue
        for j in range(n):
            k = (j + m) % n
            ground_on_string = sum(1 - occupation[(j + step) % n] for step in range(1, m))
            sign = np.where(ground_on_string % 2 == 0, 1.0, -1.0)
            yy_sign = np.where(occupation[j] == occupation[k], -1.0, 1.0)
            _place_flips(mat, n, (j, k), 0.5 * (lam_m + gam_m) * sign)
            _place_flips(mat, n, (j, k), 0.5 * (lam_m - gam_m) * sign * yy_sign)
    return HermitianOperator(mat, Basis("qubit_chain", n))


def collective_spin_operators(n_cells: int) -> dict[str, np.ndarray]:
    """J_z, J_+, J_- in the maximal-spin sector basis |j, m>, m = -j..j."""
    j = n_cells / 2
    m = np.arange(-j, j + 1)
    jz = np.diag(m.astype(complex))
    jp = np.zeros((n_cells + 1, n_cells + 1), dtype=complex)
    raising = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp[np.arange(1, n_cells + 1), np.arange(n_cells)] = raising
    return {"jz": jz, "jp": jp, "jm": jp.conj().T}


def build_lmg(spec: ModelSpec) -> HermitianOperator:
    """Infinite-range collective charger.

    H = (lam / 2N) [(1+gamma)(J+J- + J-J+ - N) + (1-gamma)(J+^2 + J-^2)] + J_z
    in the (N+1)-dimensional maximal-spin sector (the initial state lives
    there and total spin is conserved).
    """
    if spec.family != "lmg":
        raise ValidationError("build_lmg needs an lmg spec")
    check_dense_size(spec)
    n = spec.n_cells
    ops = collective_spin_operators(n)
    jz, jp, jm = ops["jz"], ops["jp"], ops["jm"]
    eye = np.eye(n + 1)
    mixing = jp @ jm + jm @ jp - n * eye
    pairing = jp @ jp + jm @ jm
    mat = spec.lam / (2 * n) * ((1 + spec.gamma) * mixing + (1 - spec.gamma) * pairing) + jz
    return HermitianOperator(mat, model_basis(spec))


def build_dicke(spec: ModelSpec) -> HermitianOperator:
    """Collective spin coupled to one truncated cavity mode.

    H = J_z + a^dag a + (2 lam / sqrt(N)) J_x (a^dag + a); with
    normalize_coupling False the 1/sqrt(N) factor is dropped.  The photon
    space is truncated at the cutoff n_max of :func:`model_basis`.
    """
    if spec.family != "dicke":
        raise ValidationError("build_dicke needs a dicke spec")
    check_dense_size(spec)
    n = spec.n_cells
    basis = model_basis(spec)
    n_max = basis.n_max
    ops = collective_spin_operators(n)
    jx = (ops["jp"] + ops["jm"]) / 2
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)  # Fock annihilation
    number = a.conj().T @ a
    eye_spin = np.eye(n + 1)
    eye_fock = np.eye(n_max + 1)
    coupling = 2 * spec.lam / np.sqrt(n) if spec.normalize_coupling else 2 * spec.lam
    mat = (
        np.kron(ops["jz"], eye_fock)
        + np.kron(eye_spin, number)
        + coupling * np.kron(jx, a + a.conj().T)
    )
    return HermitianOperator(mat, basis)


def build_battery_for(spec: ModelSpec) -> HermitianOperator:
    """The battery H_B of a model family in its own basis: the excitation
    ladder diag(w - N/2) (J_z for the collective spin, J_z x I with the
    cavity), held as its diagonal."""
    basis = model_basis(spec)
    return HermitianOperator(_ladder(basis), basis)


def build_charger_for(spec: ModelSpec) -> HermitianOperator:
    """The charging Hamiltonian of a model family in its own basis."""
    if spec.family in PARADIGMATIC_FAMILIES:
        return build_charger_paradigmatic(spec)
    if spec.family == "jw_chain":
        return build_jw_chain(spec)
    if spec.family == "lmg":
        return build_lmg(spec)
    return build_dicke(spec)


def initial_state(spec: ModelSpec) -> StateVector:
    """Battery ground state; for the cavity model, spins down with N photons."""
    basis = model_basis(spec)
    amp = np.zeros(basis.dim, dtype=complex)
    # Spin index 0 (m = -j) with photon number N, else basis index 0.
    amp[spec.n_cells if basis.kind == "spin_fock" else 0] = 1.0
    return StateVector(amp, basis)


def ghz_state(n_cells: int, blocks: list[int] | None = None) -> StateVector:
    """Product of GHZ blocks covering the chain; default one N-cell block."""
    blocks = blocks or [n_cells]
    if sum(blocks) != n_cells:
        raise ValidationError(f"block sizes {blocks} do not cover N = {n_cells}")
    amp = np.array([1.0], dtype=complex)
    for size in blocks:
        block = np.zeros(2**size, dtype=complex)
        block[0] = block[-1] = 1 / np.sqrt(2)
        amp = np.kron(amp, block)
    return StateVector(amp, Basis("qubit_chain", n_cells))
