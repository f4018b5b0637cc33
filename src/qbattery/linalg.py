"""Hermitian linear algebra (dense complex matrices, or the real diagonal of
a diagonal operator) and exact unitary propagation.

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


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator over a labeled basis with an optional cached
    eigendecomposition.

    ``values`` is the dense (dim, dim) matrix, or a (dim,) vector for an
    exactly diagonal operator: its real diagonal, kept as float64 and nothing
    more.  ``matrix`` is the dense matrix either way; for a diagonal operator
    it is built anew on each access, for code that asks for the dense form.

    When present, ``eigenvalues`` are ascending.  A dense operator's
    ``eigenvectors`` holds the matching orthonormal eigenvectors as columns; a
    diagonal operator's ``order`` holds the basis index of each eigenvalue
    (the stable sort of its diagonal), its k-th eigenvector being the unit
    vector at ``order[k]``.  Instances are immutable; :func:`eigendecompose`
    returns a new instance with the cache filled.
    """

    values: np.ndarray
    basis: Basis
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    order: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim == 1:
            _require_finite(values, "diagonal")
            dev = 2.0 * np.abs(values.imag).max(initial=0.0)
            values = np.ascontiguousarray(values.real, dtype=float)
        elif values.ndim == 2 and values.shape[0] == values.shape[1]:
            values = np.asarray(values, dtype=complex)
            _require_finite(values, "matrix")
            dev = _hermiticity_deviation(values)
        else:
            raise ValidationError(f"operator matrix must be square, got {values.shape}")
        if values.shape[0] != self.basis.dim:
            raise ValidationError(
                f"matrix dim {values.shape[0]} does not match basis dim {self.basis.dim}"
            )
        if dev > HERMITICITY_ATOL:
            raise ValidationError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        object.__setattr__(self, "values", values)
        basis_of_eigenvalues = self.order if self.is_diagonal else self.eigenvectors
        if (self.eigenvalues is None) != (basis_of_eigenvalues is None):
            raise ValidationError("eigenvalues and their eigenbasis must be set together")

    @property
    def is_diagonal(self) -> bool:
        return self.values.ndim == 1

    @property
    def matrix(self) -> np.ndarray:
        """The dense complex matrix; a diagonal operator builds it on each call."""
        return np.diag(self.values.astype(complex)) if self.is_diagonal else self.values

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def has_eig(self) -> bool:
        return self.eigenvalues is not None

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """The operator applied to a vector; a diagonal one scales each entry."""
        if self.is_diagonal:
            return self.values * amplitudes
        return self.values @ amplitudes

    def to_eigenbasis(self, amplitudes: np.ndarray) -> np.ndarray:
        """V^dag applied to a vector or to the columns of an array: the
        amplitudes on the eigenvectors, in eigenvalue order.  A diagonal
        operator gathers the rows in its eigenvalue order."""
        if not self.has_eig:
            raise ValidationError("the eigenbasis needs an eigendecomposed operator")
        if self.is_diagonal:
            return amplitudes[self.order]
        return self.eigenvectors.conj().T @ amplitudes

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
    """Return a copy of ``op`` with ascending eigenvalues and their eigenbasis.

    A diagonal operator's diagonal is stable-sorted instead of handed to
    LAPACK, which keeps model spectra (integer ladders) exact, and its
    eigenbasis is the sort order, not a permutation matrix.
    """
    if op.has_eig:
        return op
    # A shallow copy skips __post_init__: op's values were validated when op
    # was made, and the copy shares them.
    out = copy.copy(op)
    if op.is_diagonal:
        order = np.argsort(op.values, kind="stable")
        object.__setattr__(out, "eigenvalues", op.values[order])
        object.__setattr__(out, "order", order)
    else:
        vals, vecs = np.linalg.eigh(op.values)
        object.__setattr__(out, "eigenvalues", vals)
        object.__setattr__(out, "eigenvectors", vecs)
    return out


def evolve(hamiltonian: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """Propagate ``psi0`` for time ``t`` under ``exp(-i H t)`` (hbar = 1): the
    single column of :func:`evolve_batch` at ``t``."""
    if hamiltonian.basis != psi0.basis:
        raise ValidationError("Hamiltonian and state bases do not match")
    coeff = hamiltonian.to_eigenbasis(psi0.amplitudes)
    return StateVector(evolve_batch(hamiltonian, coeff, np.array([t]))[:, 0], psi0.basis)


def evolve_batch(hamiltonian: HermitianOperator, coeff: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States at all ``times`` as columns of a (dim, T) array, by exact spectral
    propagation V exp(-i L t) coeff under an eigendecomposed Hamiltonian, in
    one BLAS call.  ``coeff`` = V^dag psi0 is ``hamiltonian.to_eigenbasis`` of
    the initial amplitudes, which a run computes once for all its time grids."""
    if not hamiltonian.has_eig:
        raise ValidationError("evolve_batch requires an eigendecomposed Hamiltonian")
    phased = np.exp(-1j * np.outer(hamiltonian.eigenvalues, np.asarray(times))) * coeff[:, None]
    if hamiltonian.is_diagonal:
        states = np.empty_like(phased)
        states[hamiltonian.order] = phased
        return states
    return hamiltonian.eigenvectors @ phased


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
