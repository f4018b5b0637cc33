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
from .linalg import Basis, HermitianOperator, SparseHermitian, StateVector

RUN_BYTES_MAX = 4 * 2**30  # admits a dense run on about 6000 states at 2000 steps
# check_dense_size's first stage: bytes per basis state, per charger entry
# a builder places, and for the first calls' buffers of any run.
STATE_BYTES = 128
ENTRY_BYTES = 160
RUN_BASE_BYTES = 4 * 2**20
# Times per block of the dense and free-fermion grid evaluations; keeps each
# (rows x times) work array to about 10 MB for the pair recursion at N = 10^4.
TIME_CHUNK = 256


def time_blocks(n_steps: int) -> list[slice]:
    """The grid in TIME_CHUNK-long blocks of times, the one block rule of
    both backends (:func:`split_block`).  A grid of one time is one block."""
    return split_block(slice(0, n_steps), TIME_CHUNK)


def split_block(block: slice, width: int) -> list[slice]:
    """``block`` of times cut into ``width``-long slices from its start.  A
    last time alone joins the slice before: one time propagates by a
    matrix-vector product, whose rounding differs from a column of the
    matrix product."""
    starts = list(range(block.start, block.stop, width))
    if len(starts) > 1 and block.stop - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [block.stop])]


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


def _place_flips(flips: dict, n_cells: int, cells, values) -> None:
    """Add ``values`` at <idx ^ mask| . |idx> for every basis index idx, where
    ``mask`` flips the bits of ``cells``: to ``flips[mask]``, that mask's
    entries by column, so that the terms of one mask sum in the order they
    are placed."""
    mask = sum(1 << (n_cells - 1 - site) for site in set(cells))
    flips[mask] = flips.get(mask, 0.0) + values


def _flip_entries(basis: Basis, flips: dict) -> SparseHermitian:
    """The operator with ``flips[mask][idx]`` at <idx ^ mask| . |idx> (mask 0
    is the diagonal): row r holds ``flips[mask][r ^ mask]`` at column
    r ^ mask, each row's few entries sorted by column."""
    idx = np.arange(basis.dim)
    masks = list(flips)
    cols = idx[:, None] ^ np.array(masks)
    values = np.empty(cols.shape)
    for k, mask in enumerate(masks):
        values[:, k] = np.broadcast_to(flips[mask], idx.shape)[cols[:, k]]
    by_col = np.argsort(cols, axis=1)
    cols, values = np.take_along_axis(cols, by_col, 1), np.take_along_axis(values, by_col, 1)
    keep = values != 0
    return SparseHermitian(basis, np.nonzero(keep)[0], cols[keep], values[keep])


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
    """Excited cells w of each basis state: the set bits of a qubit-chain
    index, m + N/2 of a collective spin, the spin index of a spin-Fock one
    (the full-basis index, for a sector's states)."""
    idx = basis.indices
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


def _entries_placed(spec: ModelSpec, dim: int) -> int:
    """How many entries the charger's builder places, at most: dim per
    bit-flip mask and one diagonal for a qubit chain, five per state for the
    cavity, three per state for the collective spin."""
    n = spec.n_cells
    if spec.family == "jw_chain":
        ranges = sum(1 for pair in zip(spec.lambdas, spec.gammas) if pair != (0.0, 0.0))
        return (1 + n * ranges) * dim
    per_state = {"parallel": n, "global": 1, "hybrid": spec.q, "lmg": 3, "dicke": 5}
    return per_state[spec.family] * dim


def check_dense_size(spec: ModelSpec, steps: int = 0, states: int | None = None) -> int:
    """The estimated bytes of a dense run of ``spec`` over ``steps`` times;
    CapacityLimitError, before anything is allocated, if over RUN_BYTES_MAX.

    The rule has two stages.  Before the charger is built (``states`` None),
    RUN_BASE_BYTES, STATE_BYTES per basis state and ENTRY_BYTES per entry the
    builder places (:func:`_entries_placed`) cover the entry list and its
    build, psi0 and the sector search, and 24 L T the (levels x times)
    populations and rates of L = N + 1 levels and one product over them (the
    certifier reduces them block by block); no family adds a term of its own.  Once psi0's sector
    is found, before its dense matrix is built, the run adds 16 (7 d^2 + 5 d B)
    for the ``states`` = d states it runs on (the sector, or its equitable
    groups) and B = min(T, TIME_CHUNK) times per block: the matrix, its
    complex copy for the eigensolver, the eigenvectors and LAPACK's
    workspace, one block of states and propagation temporaries.  The sum was
    1.5-2.7x the max RSS growth over the post-import
    baseline of run_trajectory + certify_trajectory (2 cores, OpenBLAS 0.3.31),
    in MB: xy_nn N = 9 at 2000 steps 11; parallel N = 9 at 500 / 20000 28 / 28;
    lmg N = 400 at 2000 22, N = 1000 at 200 28, N = 2000 at 2000 103;
    auto-cutoff dicke N = 6 at 2000 (n_max 80) 13; global N = 16 / 20 at 2000
    8.7 / 127; hybrid N = 16 (q = 4) at 2000 30.  A qubit dimension past int64
    is written 2^N.
    """
    basis = model_basis(spec)
    need = (
        RUN_BASE_BYTES + STATE_BYTES * basis.dim + ENTRY_BYTES * _entries_placed(spec, basis.dim)
        + 24 * (spec.n_cells + 1) * steps
    )
    run = ""
    if states is not None:
        need += 16 * (7 * states**2 + 5 * states * min(steps, TIME_CHUNK))
        run = f" on {states} states"
    dim = f"2^{spec.n_cells}" if basis.dim > 2**63 else str(basis.dim)
    cutoff = f", n_max {basis.n_max}" if basis.kind == "spin_fock" else ""
    return check_run_bytes(
        need,
        f"dense run of {spec.family} N = {spec.n_cells} (dim {dim}{cutoff}, {steps} steps){run}",
    )


def build_charger_paradigmatic(spec: ModelSpec) -> SparseHermitian:
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
    flips = {}
    for cells in blocks:
        _place_flips(flips, n, cells, spec.lam)
    return _flip_entries(Basis("qubit_chain", n), flips)


def build_jw_chain(spec: ModelSpec) -> SparseHermitian:
    """Periodic chain of string-coupled cells.

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
    basis = Basis("qubit_chain", n)
    flips = {0: _ladder(basis)}
    occupation = [_site_values(n, site) for site in range(n)]
    for m, (lam_m, gam_m) in enumerate(zip(spec.lambdas, spec.gammas), start=1):
        if lam_m == 0.0 and gam_m == 0.0:
            continue
        for j in range(n):
            k = (j + m) % n
            ground_on_string = sum(1 - occupation[(j + step) % n] for step in range(1, m))
            sign = np.where(ground_on_string % 2 == 0, 1.0, -1.0)
            yy_sign = np.where(occupation[j] == occupation[k], -1.0, 1.0)
            _place_flips(flips, n, (j, k), 0.5 * (lam_m + gam_m) * sign)
            _place_flips(flips, n, (j, k), 0.5 * (lam_m - gam_m) * sign * yy_sign)
    return _flip_entries(basis, flips)


def _spin_ladder(n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """m = -j..j, J_z's diagonal on the maximal spin j = N/2, and
    <m+1|J_+|m> for m = -j..j-1."""
    j = n_cells / 2
    m = np.arange(-j, j + 1)
    return m, np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))


def build_lmg(spec: ModelSpec) -> SparseHermitian:
    """Infinite-range collective charger.

    H = (lam / 2N) [(1+gamma)(J+J- + J-J+ - N) + (1-gamma)(J+^2 + J-^2)] + J_z
    in the (N+1)-dimensional maximal-spin sector (the initial state lives
    there and total spin is conserved), built entry by entry: with
    r_i = <i+1|J_+|i>, J+J- and J-J+ are diagonal, r_{i-1}^2 and r_i^2 at
    state i, and J+^2 and J-^2 place r_i r_{i+1} two states off it.  Each
    entry of those products is that one product of two ladder factors, and
    the sums and scalings follow the operator form's order, so the entries
    are the bits of the dense (N+1)^2 products.
    """
    if spec.family != "lmg":
        raise ValidationError("build_lmg needs an lmg spec")
    check_dense_size(spec)
    n = spec.n_cells
    m, raising = _spin_ladder(n)
    squares = raising * raising
    mixing = (np.concatenate(([0.0], squares)) + np.concatenate((squares, [0.0]))) - n
    pairing = raising[:-1] * raising[1:]
    scale = spec.lam / (2 * n)
    # The entries of row i at columns i - 2, i and i + 2; a slot off the basis stays 0.
    values = np.zeros((n + 1, 3))
    values[:, 1] = scale * ((1 + spec.gamma) * mixing) + m
    values[2:, 0] = values[:-2, 2] = scale * ((1 - spec.gamma) * pairing)
    cols = np.arange(n + 1)[:, None] + np.array([-2, 0, 2])
    keep = values != 0
    return SparseHermitian(model_basis(spec), np.nonzero(keep)[0], cols[keep], values[keep])


def build_dicke(spec: ModelSpec) -> SparseHermitian:
    """Collective spin coupled to one truncated cavity mode.

    H = J_z + a^dag a + (2 lam / sqrt(N)) J_x (a^dag + a); with
    normalize_coupling False the 1/sqrt(N) factor is dropped.  The photon
    space is truncated at the cutoff n_max of :func:`model_basis`.

    Built entry by entry in the spin-major basis: state (s, f) has the
    diagonal m_s + f and couples to (s +- 1, f +- 1) through
    c <s+1|J_x|s> sqrt(f+1), with the rounding of the Kronecker-product
    form J_z x 1 + 1 x a^dag a + c J_x x (a^dag + a): a^dag a's diagonal is
    sqrt(f) sqrt(f), not f, and each coupling is c times the product of its
    two factors.
    """
    if spec.family != "dicke":
        raise ValidationError("build_dicke needs a dicke spec")
    check_dense_size(spec)
    n = spec.n_cells
    basis = model_basis(spec)
    n_fock = basis.n_max + 1
    m, raising = _spin_ladder(n)
    root = np.sqrt(np.arange(1, n_fock))  # <f|a|f+1>
    coupling = 2 * spec.lam / np.sqrt(n) if spec.normalize_coupling else 2 * spec.lam
    hop = coupling * np.outer(raising / 2, root)  # spin s <-> s+1 with photon f <-> f+1
    # The entries of row (s, f) at columns (s-1, f-1), (s-1, f+1), (s, f),
    # (s+1, f-1), (s+1, f+1), in column order; a slot off the basis stays 0.
    values = np.zeros((n + 1, n_fock, 5))
    values[1:, 1:, 0] = values[:-1, 1:, 3] = hop
    values[1:, :-1, 1] = values[:-1, :-1, 4] = hop
    values[:, :, 2] = m[:, None] + np.concatenate(([0.0], root * root))
    values = values.reshape(basis.dim, 5)
    offsets = np.array([-n_fock - 1, -n_fock + 1, 0, n_fock - 1, n_fock + 1])
    cols = np.arange(basis.dim)[:, None] + offsets
    keep = values != 0
    return SparseHermitian(basis, np.nonzero(keep)[0], cols[keep], values[keep])


def build_battery_for(spec: ModelSpec) -> HermitianOperator:
    """The battery H_B of a model family in its own basis: the excitation
    ladder diag(w - N/2) (J_z for the collective spin, J_z x I with the
    cavity), held as its diagonal."""
    basis = model_basis(spec)
    return HermitianOperator(_ladder(basis), basis)


def build_charger_for(spec: ModelSpec) -> SparseHermitian:
    """The charging Hamiltonian of a model family in its own basis, as its
    nonzero entries."""
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
