"""Dense complex Hermitian linear algebra and exact unitary propagation.

Everything downstream (model builders, observables, bound checks) runs on the
three value types defined here.  All propagation is spectral: a Hamiltonian is
diagonalized once and ``exp(-i H t)`` is applied exactly for any ``t``, so no
integrator tolerance enters the bound checks.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

HERMITICITY_ATOL = 1e-12
RECONSTRUCTION_ATOL = 1e-10
NORM_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
ENTROPY_EIGENVALUE_FLOOR = 1e-14
LEVEL_REL_TOL = 1e-9
HERMITICITY_BLOCK = 64


@dataclass(frozen=True)
class Basis:
    """Labeled computational basis of one of the three model families.

    kind is one of "qubit_chain" (dim 2**n_cells, basis index bits are cell
    occupations, index 0 = all cells in the ground state), "collective_spin"
    (dim n_cells+1, index i = magnetization m = i - n_cells/2), or
    "spin_fock" (dim (n_cells+1)*(n_max+1), spin-major: index =
    spin_index*(n_max+1) + photon_number).
    """

    kind: str
    n_cells: int
    n_max: int | None = None

    def __post_init__(self):
        if self.kind not in ("qubit_chain", "collective_spin", "spin_fock"):
            raise ValidationError(f"unknown basis kind {self.kind!r}")
        if self.n_cells < 1:
            raise ValidationError("n_cells must be >= 1")
        if self.kind == "spin_fock" and (self.n_max is None or self.n_max < 1):
            raise ValidationError("spin_fock basis requires n_max >= 1")
        if self.kind != "spin_fock" and self.n_max is not None:
            raise ValidationError(f"{self.kind} basis takes no n_max")

    @property
    def dim(self) -> int:
        if self.kind == "qubit_chain":
            return 2**self.n_cells
        if self.kind == "collective_spin":
            return self.n_cells + 1
        return (self.n_cells + 1) * (self.n_max + 1)


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} has non-finite entries")


def _hermiticity_deviation(mat: np.ndarray) -> float:
    """max |mat - mat^H| without the two dense temporaries: each block of
    rows, from the diagonal on, against the matching block of columns."""
    dev = 0.0
    for a in range(0, mat.shape[0], HERMITICITY_BLOCK):
        b = a + HERMITICITY_BLOCK
        dev = max(dev, float(np.abs(mat[a:b, a:] - mat[a:, a:b].T.conj()).max()))
    return dev


def _is_diagonal(mat: np.ndarray) -> bool:
    """Exactly diagonal test in one pass with no dense temporary."""
    return np.count_nonzero(mat) == np.count_nonzero(np.diagonal(mat))


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix with an optional cached eigendecomposition.

    When present, ``eigenvalues`` are ascending and ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  Instances are immutable;
    :func:`eigendecompose` returns a new instance with the cache filled.
    """

    matrix: np.ndarray
    basis: Basis
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    _diagonal: bool = field(init=False, repr=False)  # exactly diagonal, found at validation

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"operator matrix must be square, got {mat.shape}")
        if mat.shape[0] != self.basis.dim:
            raise ValidationError(
                f"matrix dim {mat.shape[0]} does not match basis dim {self.basis.dim}"
            )
        object.__setattr__(self, "_diagonal", _is_diagonal(mat))
        if self._diagonal:
            # Off-diagonal entries are exact zeros (NaN counts as nonzero).  A
            # diagonal matrix is Hermitian iff its diagonal is real.
            diag = np.diagonal(mat)
            _require_finite(diag, "matrix")
            dev = 2.0 * np.abs(diag.imag).max()
        else:
            _require_finite(mat, "matrix")
            dev = _hermiticity_deviation(mat)
        if dev > HERMITICITY_ATOL:
            raise ValidationError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        if (self.eigenvalues is None) != (self.eigenvectors is None):
            raise ValidationError("eigenvalues and eigenvectors must be set together")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def has_eig(self) -> bool:
        return self.eigenvalues is not None

    def norm(self) -> float:
        """Operator norm (largest singular value; max |eigenvalue| here)."""
        op = self if self.has_eig else eigendecompose(self)
        return float(np.abs(op.eigenvalues).max())


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a labeled basis."""

    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.ndim != 1:
            raise ValidationError("amplitudes must be a 1-d sequence")
        if amp.shape[0] != self.basis.dim:
            raise ValidationError(
                f"state dim {amp.shape[0]} does not match basis dim {self.basis.dim}"
            )
        _require_finite(amp, "state")
        nrm = np.vdot(amp, amp).real
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state norm^2 = {nrm!r} deviates from 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.basis)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a labeled basis."""

    matrix: np.ndarray
    basis: Basis
    _probabilities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density matrix must be square, got {mat.shape}")
        if mat.shape[0] != self.basis.dim:
            raise ValidationError(
                f"matrix dim {mat.shape[0]} does not match basis dim {self.basis.dim}"
            )
        _require_finite(mat, "density matrix")
        if _hermiticity_deviation(mat) > HERMITICITY_ATOL:
            raise ValidationError("density matrix is not Hermitian")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"density matrix trace {tr!r} deviates from 1")
        probs = np.linalg.eigvalsh(mat)
        if probs.min() < EIGENVALUE_FLOOR:
            raise ValidationError(
                f"density matrix has negative eigenvalue {probs.min():.3e}"
            )
        object.__setattr__(self, "_probabilities", probs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def probabilities(self) -> np.ndarray:
        """Eigenvalues (ascending), cached at validation time."""
        return self._probabilities


@dataclass(frozen=True)
class LevelStructure:
    """Distinct eigenvalues of an observable plus the member index groups.

    ``energies[k]`` is the mean eigenvalue of level ``k`` and
    ``starts[k]:starts[k+1]`` the slice of eigenvector columns belonging to
    it (eigenvalues ascending, so member groups are contiguous).
    """

    energies: np.ndarray
    starts: np.ndarray

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def multiplicities(self) -> np.ndarray:
        return np.diff(self.starts)


def eigendecompose(op: HermitianOperator) -> HermitianOperator:
    """Return a copy of ``op`` with ascending eigenvalues and orthonormal columns.

    An exactly diagonal matrix is sorted instead of handed to LAPACK, which
    keeps model spectra (integer ladders) exact.
    """
    if op.has_eig:
        return op
    mat = op.matrix
    if op._diagonal:
        diag = np.real(np.diagonal(mat))
        order = np.argsort(diag, kind="stable")
        vals = diag[order]
        vecs = np.zeros(mat.shape, dtype=complex)
        vecs[order, np.arange(mat.shape[0])] = 1.0
    else:
        vals, vecs = np.linalg.eigh(mat)
    # A shallow copy skips __post_init__: op's matrix was validated when op
    # was made, and the copy shares it.
    out = copy.copy(op)
    object.__setattr__(out, "eigenvalues", vals)
    object.__setattr__(out, "eigenvectors", vecs)
    return out


def ascending_eigenvalues(op: HermitianOperator) -> np.ndarray:
    """The eigenvalues of :func:`eigendecompose` without its eigenvector
    matrix: the cached ones, the stable-sorted real diagonal of an exactly
    diagonal matrix, or LAPACK's eigenvalue-only solver."""
    if op.has_eig:
        return op.eigenvalues
    if op._diagonal:
        return np.sort(np.real(np.diagonal(op.matrix)), kind="stable")
    return np.linalg.eigvalsh(op.matrix)


def evolve(hamiltonian: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """Propagate ``psi0`` for time ``t`` under ``exp(-i H t)`` (hbar = 1): the
    single column of :func:`evolve_batch` at ``t``."""
    return StateVector(evolve_batch(hamiltonian, psi0, np.array([t]))[:, 0], psi0.basis)


def evolve_batch(hamiltonian: HermitianOperator, psi0: StateVector, times: np.ndarray) -> np.ndarray:
    """States at all ``times`` as columns of a (dim, T) array, in one BLAS call: exact
    spectral propagation V exp(-i L t) V^dag psi0 under an eigendecomposed Hamiltonian."""
    if not hamiltonian.has_eig:
        raise ValidationError("evolve_batch requires an eigendecomposed Hamiltonian")
    if hamiltonian.basis != psi0.basis:
        raise ValidationError("Hamiltonian and state bases do not match")
    vecs = hamiltonian.eigenvectors
    coeff = vecs.conj().T @ psi0.amplitudes
    phases = np.exp(-1j * np.outer(hamiltonian.eigenvalues, np.asarray(times)))
    return vecs @ (phases * coeff[:, None])


def partial_trace_cavity(rho: DensityMatrix) -> DensityMatrix:
    """Trace out the photon mode of a spin-Fock density matrix."""
    if rho.basis.kind != "spin_fock":
        raise ValidationError(f"expected spin_fock basis, got {rho.basis.kind}")
    n_spin = rho.basis.n_cells + 1
    n_fock = rho.basis.n_max + 1
    blocks = rho.matrix.reshape(n_spin, n_fock, n_spin, n_fock)
    reduced = np.einsum("afbf->ab", blocks)
    return DensityMatrix(reduced, Basis("collective_spin", rho.basis.n_cells))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum q log2 q in bits; eigenvalues below 1e-14 are dropped."""
    probs = rho.probabilities
    probs = probs[probs > ENTROPY_EIGENVALUE_FLOOR]
    return float(-(probs * np.log2(probs)).sum())


def group_levels(eigenvalues: np.ndarray, rel_tol: float = LEVEL_REL_TOL) -> LevelStructure:
    """Merge ascending eigenvalues into degenerate levels.

    Consecutive eigenvalues are merged whenever their gap is at most
    ``rel_tol`` times the spectral range; each level carries the group-mean
    energy and the contiguous slice of its members (eigenvector columns of
    an eigendecomposed operator).
    """
    vals = np.asarray(eigenvalues, dtype=float)
    span = float(vals[-1] - vals[0])
    gap = rel_tol * span
    breaks = np.flatnonzero(np.diff(vals) > gap) + 1
    starts = np.concatenate(([0], breaks, [len(vals)]))
    energies = np.array([vals[a:b].mean() for a, b in zip(starts[:-1], starts[1:])])
    return LevelStructure(energies=energies, starts=starts)


def random_hermitian(dim: int, rng: np.random.Generator, basis: Basis | None = None) -> HermitianOperator:
    """Gaussian Hermitian test matrix (entries O(1))."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis = basis or Basis("collective_spin", dim - 1)
    return HermitianOperator((a + a.conj().T) / 2, basis)
