"""Hermitian linear algebra (dense matrices, the real diagonal of a diagonal
operator, or a charger's nonzero entries) and exact unitary propagation.

Everything downstream (model builders, observables, bound checks) runs on the
value types defined here.  A charger is built as its entries
(:class:`SparseHermitian`); the states a run reaches are found from them, and
only the dense matrix on those states is built.  All propagation is
spectral: a Hamiltonian is diagonalized once and ``exp(-i H t)`` is applied
exactly for any ``t``, so no integrator tolerance enters the bound checks.
An operator keeps its data's dtype: float64 for real data, as every model
charger is, complex128 for complex data.  The eigensolver runs on the complex
matrix, which :func:`eigendecompose` alone builds from a real one, and
returns a real matrix's eigenvectors exactly real; what comes after it runs
in real arithmetic wherever the data are (:func:`real_if_exact`,
:func:`matmul`).  Data with a nonzero imaginary part take complex products.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from functools import cached_property

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
# Grid times per exact cos and sin of a PhaseTable; it divides
# models.TIME_CHUNK, so every block of a grid starts at a table row.
PHASE_STRIDE = 16
# matmul pads a real product to whole tiles of this many float64 columns,
# which OpenBLAS rounds alike wherever they fall in the product.
PRODUCT_TILE = 8


@dataclass(frozen=True)
class Basis:
    """Labeled computational basis of one of the three model families.

    kind is one of "qubit_chain" (dim 2**n_cells, basis index bits are cell
    occupations, index 0 = all cells in the ground state), "collective_spin"
    (dim n_cells+1, index i = magnetization m = i - n_cells/2), or
    "spin_fock" (dim (n_cells+1)*(n_max+1), spin-major: index =
    spin_index*(n_max+1) + photon_number).

    ``groups`` keeps only some states of that basis and groups them: its i-th
    state spreads evenly over the full basis's states ``groups[i]``, the sum
    of those unit vectors over sqrt(len(groups[i])) (see
    :meth:`SparseHermitian.lump`).  A one-state group is that basis state.
    """

    kind: str
    n_cells: int
    n_max: int | None = None
    groups: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("qubit_chain", "collective_spin", "spin_fock"):
            raise ValidationError(f"unknown basis kind {self.kind!r}")
        if self.n_cells < 1:
            raise ValidationError("n_cells must be >= 1")
        if self.kind == "spin_fock" and (self.n_max is None or self.n_max < 1):
            raise ValidationError("spin_fock basis requires n_max >= 1")
        if self.kind != "spin_fock" and self.n_max is not None:
            raise ValidationError(f"{self.kind} basis takes no n_max")
        if self.groups is not None:
            groups = tuple(tuple(int(i) for i in group) for group in self.groups)
            idx = np.array([i for group in groups for i in group], dtype=np.int64)
            if not (groups and all(groups) and 0 <= idx.min() and idx.max() < self.full_dim
                    and np.unique(idx).size == idx.size):
                raise ValidationError("basis groups are nonempty, disjoint sets of its indices")
            object.__setattr__(self, "groups", groups)

    @property
    def full_dim(self) -> int:
        """The dimension of the whole basis, groups or not."""
        if self.kind == "qubit_chain":
            return 2**self.n_cells
        if self.kind == "collective_spin":
            return self.n_cells + 1
        return (self.n_cells + 1) * (self.n_max + 1)

    @property
    def dim(self) -> int:
        return self.full_dim if self.groups is None else len(self.groups)

    @cached_property
    def indices(self) -> np.ndarray:
        """The full-basis index of each state: the first of its group."""
        if self.groups is None:
            return np.arange(self.full_dim)
        return np.array([group[0] for group in self.groups])

    @cached_property
    def members(self) -> np.ndarray:
        """The full-basis states the basis spans, group by group."""
        if self.groups is None:
            return np.arange(self.full_dim)
        return np.array([i for group in self.groups for i in group])

    @cached_property
    def _sizes(self) -> np.ndarray:
        return np.array([len(group) for group in self.groups])

    def expand(self, amplitudes: np.ndarray) -> np.ndarray:
        """Amplitudes on the states (the rows of a vector or an array) as
        amplitudes on :attr:`members`: each group's row over sqrt of its size,
        on each of its states."""
        if self.groups is None or len(self.groups) == len(self.members):
            return amplitudes
        scale = np.sqrt(self._sizes).reshape((-1,) + (1,) * (amplitudes.ndim - 1))
        return np.repeat(amplitudes / scale, self._sizes, axis=0)

    def project(self, amplitudes: np.ndarray) -> np.ndarray:
        """Full-basis amplitudes as amplitudes on the states: each group's sum
        over sqrt of its size, exact for a vector even over each group."""
        if self.groups is None:
            return amplitudes
        sizes = self._sizes
        return np.add.reduceat(amplitudes[self.members], np.cumsum(sizes) - sizes) / np.sqrt(sizes)


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

    ``values`` is the dense (dim, dim) matrix in its data's dtype (float64 or
    complex128), or a (dim,) vector for an exactly diagonal operator: its
    real diagonal, kept as float64.  ``matrix`` is the dense matrix either
    way; a diagonal operator builds it anew on each access.

    When present, ``eigenvalues`` are ascending.  A dense operator's
    ``eigenvectors`` holds the matching orthonormal eigenvectors as columns,
    float64 when they are exactly real (:func:`eigendecompose`); a
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
            values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
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
        """The dense matrix; a diagonal operator builds it on each call."""
        return np.diag(self.values) if self.is_diagonal else self.values

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
        return matmul(self.eigenvectors.conj().T, amplitudes)

    def norm(self) -> float:
        """Operator norm (largest singular value; max |eigenvalue| here)."""
        op = self if self.has_eig else eigendecompose(self)
        return float(np.abs(op.eigenvalues).max())


@dataclass(frozen=True)
class SparseHermitian:
    """Hermitian operator on a whole basis as its nonzero entries: ``values[i]``
    at row ``rows[i]`` and column ``cols[i]``, sorted row-major, one entry per
    position.  A model charger is built in this form; only the small dense
    matrix on the states a run reaches is ever formed from it
    (:meth:`lump`), and :attr:`matrix` builds the whole dense matrix on
    demand, both in the entries' dtype (float64 or complex128).  Entries are
    validated like a dense operator's (finite, and
    Hermitian to HERMITICITY_ATOL, an entry whose transpose is missing
    counting in full)."""

    basis: Basis
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.basis.groups is not None:
            raise ValidationError("entries are on a whole basis")
        rows, cols = (np.asarray(a, dtype=np.intp) for a in (self.rows, self.cols))
        values = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if not (rows.ndim == cols.ndim == values.ndim == 1
                and len(rows) == len(cols) == len(values)):
            raise ValidationError("rows, cols and values must be 1-d and of one length")
        _require_finite(values, "entries")
        dim = self.basis.dim
        if len(rows) and not (min(rows.min(), cols.min()) >= 0
                              and max(rows.max(), cols.max()) < dim):
            raise ValidationError(f"entries lie outside the {dim}-state basis")
        # Row-major keys, which fit int64 on any basis a size rule admits.
        keys, transposed = rows * dim + cols, cols * dim + rows
        if not (np.diff(keys) > 0).all() or not values.all():
            raise ValidationError("entries must be nonzero, sorted row-major, one per position")
        at = np.searchsorted(keys, transposed).clip(max=max(len(keys) - 1, 0))
        partner = np.where(keys[at] == transposed, values[at], 0.0)
        dev = float(np.abs(values - partner.conj()).max(initial=0.0))
        if dev > HERMITICITY_ATOL:
            raise ValidationError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        for name, value in (("rows", rows), ("cols", cols), ("values", values)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, built on each call."""
        mat = np.zeros((self.dim, self.dim), dtype=self.values.dtype)
        mat[self.rows, self.cols] = self.values
        return mat

    def dense(self) -> HermitianOperator:
        """The dense operator on the whole basis."""
        return HermitianOperator(self.matrix, self.basis)

    @cached_property
    def _row_starts(self) -> np.ndarray:
        return np.searchsorted(self.rows, np.arange(self.dim + 1))

    def row_entries(self, rows: np.ndarray) -> np.ndarray:
        """The positions of the entries of ``rows``, row by row."""
        lo, hi = self._row_starts[rows], self._row_starts[np.asarray(rows) + 1]
        counts = hi - lo
        return np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())

    def lump(self, groups) -> HermitianOperator:
        """The operator on the states that spread evenly over ``groups``
        (disjoint lists of basis indices), in that order, for groups that are
        equitable on an invariant sector, such as :func:`equitable_groups`
        returns: op maps the span of those states into itself, and this is
        op there, exactly.  Every state of group A has the same sum s_AB of
        entries into group B, so the entry of A and B is sqrt(|A| / |B|) s_AB,
        read off the row of A's first state.  With one index per group it is
        the principal submatrix, and :meth:`dense` when the groups cover the
        basis.  The entries of the groups' first rows are placed in a dense
        (groups x states) block and summed as the dense matrix's rows would
        be, so the result has the bits of the same reduction over the whole
        dense matrix of the entries' dtype."""
        groups = [np.asarray(group) for group in groups]
        idx = np.concatenate(groups)
        if len(idx) == len(groups) == self.dim:
            return self.dense()
        basis = replace(self.basis, groups=tuple(group.tolist() for group in groups))
        first = basis.indices
        entries = self.row_entries(first)
        block = np.zeros((len(first), len(idx)), dtype=self.values.dtype)
        block[_positions(first, self.rows[entries]), _positions(idx, self.cols[entries])] = (
            self.values[entries]
        )
        if len(idx) == len(groups):
            return HermitianOperator(block, basis)
        sizes = basis._sizes
        sums = np.add.reduceat(block, np.cumsum(sizes) - sizes, axis=1)
        values = sums * np.sqrt(np.outer(sizes, 1.0 / sizes))
        return HermitianOperator((values + values.conj().T) / 2, basis)


def _positions(idx: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The position in ``idx`` (distinct indices) of each of ``targets``, all
    of which it holds."""
    order = np.argsort(idx, kind="stable")
    return order[np.searchsorted(idx, targets, sorter=order)]


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
    def multiplicities(self) -> np.ndarray:
        return np.diff(self.starts)


def eigendecompose(op: HermitianOperator) -> HermitianOperator:
    """Return a copy of ``op`` with ascending eigenvalues and their eigenbasis.

    A dense operator goes to LAPACK's complex Hermitian solver (zheevd), a
    real one as a complex128 copy.  Its eigenvectors are kept as float64 when
    their imaginary part is exactly zero, as for every charger the models
    build, so that the products after it are real (:func:`matmul`);
    otherwise they stay complex, bit for bit as returned.
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
        # The one complex cast of real operator data.  The real solver's
        # (dsyevd's) rounding, through the one-pass var(H_B), puts the dense
        # jw_xy_nn_n8 run 1.12e-10 from the chain's, over the 1e-10 gate.
        vals, vecs = np.linalg.eigh(np.asarray(op.values, dtype=complex))
        object.__setattr__(out, "eigenvalues", vals)
        object.__setattr__(out, "eigenvectors", real_if_exact(vecs))
    return out


def real_if_exact(mat: np.ndarray) -> np.ndarray:
    """``mat``'s real part as a float64 array when its imaginary part is
    exactly zero (signed zeros included), else ``mat`` unchanged."""
    return mat if mat.imag.any() else np.ascontiguousarray(mat.real)


def matmul(mat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``mat @ cols`` for a vector or (rows x k) columns ``cols``.

    A float64 ``mat`` takes complex128 ``cols`` in real arithmetic, half the
    flops of the complex product: one real product with ``cols`` read as
    float64 rows of interleaved real and imaginary parts, with no copy when
    their last axis is contiguous (a :class:`PhaseTable` block).  A partial
    tile of PRODUCT_TILE float64 columns is zero-padded, because OpenBLAS
    rounds such columns by where they fall; so a block of a grid keeps the
    whole grid product's bits.  A single column takes two real vector
    products, as numpy's complex product takes one.  The result differs
    from the complex product only in the order of rounding.  Any other pair
    of dtypes is numpy's product."""
    if not (mat.dtype == np.float64 and cols.dtype == np.complex128):
        return mat @ cols
    columns = cols.reshape(len(cols), -1)
    if columns.shape[1] == 1:
        out = np.empty(len(mat), dtype=complex)
        out.real, out.imag = mat @ columns[:, 0].real, mat @ columns[:, 0].imag
        return out.reshape(mat.shape[:1] + cols.shape[1:])
    planes = (columns if columns.strides[-1] == columns.itemsize else columns.copy()).view(np.float64)
    width = planes.shape[1]
    if width % PRODUCT_TILE:
        planes = np.pad(planes, ((0, 0), (0, -width % PRODUCT_TILE)))
    return np.ascontiguousarray((mat @ planes)[:, :width]).view(np.complex128)


def invariant_sector(op: SparseHermitian, amplitudes: np.ndarray) -> np.ndarray:
    """The basis indices that the support of ``amplitudes`` reaches through
    op's nonzero entries: its connected component in op's graph.

    op is Hermitian, so no entry couples the component to the rest of the
    basis: op maps it into itself and exp(-i op t) keeps a state there, with
    no symmetry argument.  Each pass of the frontier loop adds the states
    linked to the last pass's new ones, read off the entries of the
    frontier's rows; the indices come in the reverse of that order (a
    reverse Cuthill-McKee order from the support, neighbours by index).  Any
    order spans the same sector.  The order sets only the rounding of the
    sector's eigenvectors, and with it the rounding-level battery variance a
    run reports at t = 0, which decides whether the t = 0 Heisenberg ratio
    clears its 1e-12 guard."""
    reached = np.asarray(amplitudes) != 0
    frontier = np.flatnonzero(reached)
    passes = [frontier]
    linked = np.zeros_like(reached)  # one pass's new states, cleared after it
    while frontier.size:
        cols = op.cols[op.row_entries(frontier)]
        linked[cols[~reached[cols]]] = True
        frontier = np.flatnonzero(linked)
        linked[frontier] = False
        reached[frontier] = True
        passes.append(frontier)
    return np.concatenate(passes)[::-1]


def _row_ids(keys: np.ndarray) -> np.ndarray:
    """An id for each row of a 2-D integer array, equal rows alike."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    return np.unique(rows, return_inverse=True)[1].ravel()


def equitable_groups(
    op: SparseHermitian, sector: np.ndarray, labels: np.ndarray
) -> list[np.ndarray]:
    """``sector`` cut into the coarsest groups whose states agree on their
    row of ``labels`` (integers per basis state) and on the multiset of
    (group, entry) over op's nonzero entries into the sector.

    For states a and a' of one group and any group B, the entries op_ab and
    op_a'b over b in B are then the same numbers, so their sums agree
    exactly: op maps the even spreads over the groups into their span, and
    on an invariant sector (:func:`invariant_sector`) a state that starts
    even over each group stays so (:meth:`SparseHermitian.lump`).  A
    symmetry of op that fixes the labels and the sector keeps each group, so
    the groups are at least as coarse as its orbits (translations and
    reflections of a ring of cells, permutations of independent cells); no
    symmetry is looked for.  Colour refinement finds them: each pass splits
    the groups by those multisets until none splits.  They come in the order
    of their first state in ``sector``, each with its states in that order,
    so a sector with no coarser groups keeps its order, one state per group.
    """
    sector = np.asarray(sector)
    labels = np.asarray(labels).reshape(op.dim, -1)[sector]
    colours = _row_ids(labels)
    n_colours = colours.max() + 1
    if n_colours < len(sector):
        # The entries within the sector as (row, column, entry code), rows
        # ascending: the rows of sector states link only to sector states.
        inside = op.row_entries(np.sort(sector))
        entries = np.unique(op.values[inside], return_inverse=True)[1].ravel()
        rows, cols = _positions(sector, op.rows[inside]), _positions(sector, op.cols[inside])
        by_row = np.argsort(rows, kind="stable")
        rows, cols, entries = rows[by_row], cols[by_row], entries[by_row]
        degree = np.bincount(rows, minlength=len(sector))
        slot = np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)
        # Row i: its colour, then its (colour, entry) codes sorted, -1 padded.
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


def evolve(hamiltonian: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """Propagate ``psi0`` for time ``t`` under ``exp(-i H t)`` (hbar = 1): the
    single column of :func:`evolve_batch` at ``t``."""
    if hamiltonian.basis != psi0.basis:
        raise ValidationError("Hamiltonian and state bases do not match")
    coeff = hamiltonian.to_eigenbasis(psi0.amplitudes)
    phases = grid_phases(hamiltonian.eigenvalues, np.array([t]))
    return StateVector(evolve_batch(hamiltonian, coeff, phases)[:, 0], psi0.basis)


def grid_step(times: np.ndarray) -> float:
    """The step of a uniform grid of times from its ends: bit for bit the
    step of ``np.linspace(0, t_max, T)``."""
    return float((times[-1] - times[0]) / (len(times) - 1))


def _phases(angles: np.ndarray) -> np.ndarray:
    """exp(-i x) as cos x - i sin x of the real angles: numpy's complex exp of
    a purely imaginary argument evaluates the same cos and sin, so these are
    its bits, in about half the time."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _grid_indices(times: np.ndarray, step: float) -> np.ndarray:
    """The index j of each time t_j = j * step of a uniform grid; a
    ValidationError unless ``times`` are such times, to 4 ulp, for
    consecutive j."""
    if not (np.isfinite(step) and step > 0):
        raise ValidationError(f"a grid step must be positive and finite, got {step!r}")
    index = np.rint(times / step)
    ulps = 4 * np.spacing(np.maximum(np.abs(times), step))
    if not ((np.diff(index) == 1).all() and (np.abs(times - index * step) <= ulps).all()):
        raise ValidationError(
            f"times are not consecutive points of a uniform grid of step {step!r}"
        )
    return index.astype(np.int64)


class PhaseTable:
    """exp(-i f t) for each frequency f and time t of one uniform grid
    t_j = j D, one block of times at a time.

    Made once per grid: it checks that ``times`` are grid points of
    consecutive j (a ValidationError otherwise) and takes the cos and sin
    of the offsets r D, 0 < r < S = PHASE_STRIDE, once.  Each call
    ``table(block)`` takes a cos and a sin only at the block's every S-th
    grid time, t_qS = (q S) D, and fills the times between with the product
    of their phases and the offsets', in one buffer sized for the longest of
    ``blocks`` (slices of ``times``; the whole grid if none are given).  It
    returns a (frequencies x times) view of that buffer, or (times x
    frequencies) if ``times_first``, which the next call overwrites.  So the
    phase of grid index j is the same bits in every table and block that
    holds it, the phase of t_0 is exactly 1, and at j = q S it is the direct
    phase of t_j.  The product adds a few ulp of error to the angle's own
    rounding of f t.  Each layout is filled along its contiguous axis, with
    the offsets kept once in the table's own layout: a frequencies-first
    table writes each frequency's base phases and their products along its
    rows of S times.  Both layouts hold the same products of the same
    numbers, so one is the other's transpose, bit for bit."""

    def __init__(
        self, freqs: np.ndarray, times: np.ndarray, step: float,
        blocks: list[slice] | None = None, times_first: bool = False,
    ):
        self.freqs, self.step = np.asarray(freqs, dtype=float), float(step)
        self.index = _grid_indices(np.asarray(times, dtype=float), self.step)
        self.times_first = times_first
        offsets = _phases(np.multiply.outer(np.arange(1, PHASE_STRIDE) * self.step, self.freqs))
        self.offsets = offsets if times_first else np.ascontiguousarray(offsets.T)
        spans = [self.index[block] for block in blocks or [slice(None)]]
        rows = max((j[-1] // PHASE_STRIDE - j[0] // PHASE_STRIDE + 1 for j in spans if len(j)), default=0)
        self._buffer = np.empty(rows * PHASE_STRIDE * len(self.freqs), dtype=complex)

    def __call__(self, block: slice) -> np.ndarray:
        index, n_freqs = self.index[block], len(self.freqs)
        first = index[0] - index[0] % PHASE_STRIDE
        base_times = np.arange(first, index[-1] + 1, PHASE_STRIDE) * self.step
        # The block's table in its layout, on the buffer's first entries:
        # (rows, PHASE_STRIDE, frequencies) or (frequencies, rows, PHASE_STRIDE).
        table = self._buffer[: len(base_times) * PHASE_STRIDE * n_freqs]
        if self.times_first:
            table = table.reshape(len(base_times), PHASE_STRIDE, n_freqs)
            table[:, 0] = _phases(np.multiply.outer(base_times, self.freqs))
            np.multiply(table[:, :1], self.offsets, out=table[:, 1:])
        else:
            table = table.reshape(n_freqs, len(base_times), PHASE_STRIDE)
            table[:, :, 0] = _phases(np.multiply.outer(base_times, self.freqs)).T
            np.multiply(table[:, :, :1], self.offsets[:, None], out=table[:, :, 1:])
        window = slice(index[0] - first, index[0] - first + len(index))
        if self.times_first:
            return table.reshape(-1, n_freqs)[window]
        return table.reshape(n_freqs, -1)[:, window]


def grid_phases(freqs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i f t) for each frequency f and time t as a (frequencies x times)
    complex array (its transpose: times x frequencies), each phase
    cos(f t) - i sin(f t) of its own angle (:func:`_phases`), for arbitrary
    times; a uniform grid's phases come from its :class:`PhaseTable`."""
    return _phases(np.outer(np.asarray(freqs, dtype=float), np.asarray(times, dtype=float)))


def evolve_batch(hamiltonian: HermitianOperator, coeff: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """States at a block of times as columns of a new (dim, T) complex array,
    by exact spectral propagation V exp(-i L t) coeff under an
    eigendecomposed Hamiltonian, in one product (:func:`matmul`: a real
    one when V is real, the complex one otherwise).  ``phases`` are
    exp(-i L t) of its eigenvalues L as (dim, T): a block of the grid's
    :class:`PhaseTable`, or :func:`grid_phases` of arbitrary times.  They are
    multiplied by ``coeff`` in place.  ``coeff`` = V^dag psi0 is
    ``hamiltonian.to_eigenbasis`` of the initial amplitudes, which a run
    computes once for all its times."""
    if not hamiltonian.has_eig:
        raise ValidationError("evolve_batch requires an eigendecomposed Hamiltonian")
    phases *= coeff[:, None]
    if hamiltonian.is_diagonal:
        states = np.empty_like(phases)
        states[hamiltonian.order] = phases
        return states
    return matmul(hamiltonian.eigenvectors, phases)


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


def group_levels(eigenvalues: np.ndarray) -> LevelStructure:
    """Merge ascending eigenvalues into degenerate levels.

    Consecutive eigenvalues are merged whenever their gap is at most
    LEVEL_REL_TOL times the spectral range; each level carries the group-mean
    energy and the contiguous slice of its members (eigenvector columns of
    an eigendecomposed operator).
    """
    vals = np.asarray(eigenvalues, dtype=float)
    span = float(vals[-1] - vals[0])
    gap = LEVEL_REL_TOL * span
    breaks = np.flatnonzero(np.diff(vals) > gap) + 1
    starts = np.concatenate(([0], breaks, [len(vals)]))
    energies = np.array([vals[a:b].mean() for a, b in zip(starts[:-1], starts[1:])])
    return LevelStructure(energies=energies, starts=starts)


def random_hermitian(dim: int, rng: np.random.Generator, basis: Basis | None = None) -> HermitianOperator:
    """Gaussian Hermitian test matrix (entries O(1))."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis = basis or Basis("collective_spin", dim - 1)
    return HermitianOperator((a + a.conj().T) / 2, basis)
