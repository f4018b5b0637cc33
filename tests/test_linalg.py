import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbattery import (
    Basis,
    DensityMatrix,
    HermitianOperator,
    StateVector,
    ValidationError,
    eigendecompose,
    evolve,
    group_levels,
    partial_trace_cavity,
    von_neumann_entropy,
)
from qbattery import linalg
from qbattery.linalg import SparseHermitian, evolve_batch, random_hermitian
from qbattery.models import build_battery, time_blocks

from oracles import random_density_matrix

B2 = Basis("collective_spin", 1)


def op2(mat):
    return HermitianOperator(np.asarray(mat, dtype=complex), B2)


def state(amp, basis):
    amp = np.asarray(amp, dtype=complex)
    return StateVector(amp / np.linalg.norm(amp), basis)


class TestEigendecompose:
    def test_diagonal_pauli_z(self):
        op = eigendecompose(op2(np.diag([0.5, -0.5])))
        assert np.allclose(op.eigenvalues, [-0.5, 0.5])

    def test_pauli_x_spectrum_and_vectors(self):
        op = eigendecompose(op2([[0, 1], [1, 0]]))
        assert np.allclose(op.eigenvalues, [-1.0, 1.0])
        for col, sign in ((0, -1), (1, 1)):
            vec = op.eigenvectors[:, col]
            target = np.array([1.0, sign]) / np.sqrt(2)
            phase = vec[np.argmax(np.abs(vec))] / target[np.argmax(np.abs(vec))]
            assert np.allclose(vec, phase * target, atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        op = eigendecompose(random_hermitian(6, rng))
        recon = (op.eigenvectors * op.eigenvalues) @ op.eigenvectors.conj().T
        assert np.abs(recon - op.matrix).max() < 1e-10
        gram = op.eigenvectors.conj().T @ op.eigenvectors
        assert np.abs(gram - np.eye(6)).max() < 1e-10

    def test_ascending(self):
        rng = np.random.default_rng(7)
        op = eigendecompose(random_hermitian(8, rng))
        assert np.all(np.diff(op.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex), B2)

    def test_copy_is_not_validated_again(self, monkeypatch):
        op = random_hermitian(6, np.random.default_rng(3))
        calls = []
        original = linalg._hermiticity_deviation
        monkeypatch.setattr(
            linalg, "_hermiticity_deviation", lambda mat: calls.append(mat) or original(mat)
        )
        out = eigendecompose(op)
        assert calls == []
        assert out.matrix is op.matrix and out.basis == op.basis
        assert out.has_eig and not op.has_eig


class TestDiagonalOperator:
    def test_holds_only_the_real_diagonal(self):
        op = HermitianOperator(np.array([0.5 + 0j, -0.5, 1.5]), Basis("collective_spin", 2))
        assert op.is_diagonal and op.values.dtype == np.float64 and op.values.shape == (3,)
        assert op.dim == 3
        assert np.array_equal(op.matrix, np.diag([0.5, -0.5, 1.5]).astype(complex))

    def test_validation(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianOperator(np.array([1.0, 1j]), B2)
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianOperator(np.array([np.nan, 1.0]), B2)
        with pytest.raises(ValidationError, match="does not match basis dim"):
            HermitianOperator(np.array([1.0, 2.0, 3.0]), B2)

    def test_eigenbasis_is_the_stable_sort_order(self):
        op = eigendecompose(HermitianOperator(np.array([0.5, -0.5, 0.5, -0.5]), Basis("collective_spin", 3)))
        assert np.array_equal(op.eigenvalues, [-0.5, -0.5, 0.5, 0.5])
        assert np.array_equal(op.order, [1, 3, 0, 2]) and op.eigenvectors is None
        amp = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(op.to_eigenbasis(amp), [2.0, 4.0, 1.0, 3.0])
        assert op.norm() == 0.5

    def test_evolution_matches_the_dense_matrix(self):
        basis = Basis("collective_spin", 3)
        diag = np.array([0.3, -1.2, 0.3, 2.0])
        op, dense = (eigendecompose(HermitianOperator(v, basis)) for v in (diag, np.diag(diag)))
        psi0 = state([1.0, 2.0j, -1.0, 0.5], basis)
        for t in (0.0, 0.7, 3.1):
            assert np.abs(evolve(op, psi0, t).amplitudes - evolve(dense, psi0, t).amplitudes).max() < 1e-12


class TestEvolve:
    def test_rabi_rotation(self):
        lam, t = 0.8, 0.6
        charger = eigendecompose(op2(lam * np.array([[0, 1], [1, 0]])))
        psi = evolve(charger, state([1, 0], B2), t)
        assert np.allclose(
            psi.amplitudes, [np.cos(lam * t), -1j * np.sin(lam * t)], atol=1e-12
        )

    def test_t_zero_identity(self):
        rng = np.random.default_rng(3)
        op = eigendecompose(random_hermitian(5, rng))
        psi0 = state(rng.normal(size=5) + 1j * rng.normal(size=5), op.basis)
        assert np.allclose(evolve(op, psi0, 0.0).amplitudes, psi0.amplitudes, atol=1e-12)

    def test_matches_stepping_oracle(self):
        from qbattery.verification import rk4_evolve_adaptive

        rng = np.random.default_rng(1)
        op = eigendecompose(random_hermitian(6, rng))
        amp = rng.normal(size=6) + 1j * rng.normal(size=6)
        amp /= np.linalg.norm(amp)
        psi = evolve(op, StateVector(amp, op.basis), 0.7)
        reference = rk4_evolve_adaptive(op.matrix, amp, 0.7)
        assert np.abs(psi.amplitudes - reference).max() < 1e-8

    def test_dim_mismatch(self):
        op = eigendecompose(op2(np.diag([1.0, -1.0])))
        psi = state([1, 0, 0], Basis("collective_spin", 2))
        with pytest.raises(ValidationError):
            evolve(op, psi, 0.1)

    def test_requires_eigendecomposition(self):
        op = op2(np.diag([1.0, -1.0]))
        with pytest.raises(ValidationError):
            evolve(op, state([1, 0], B2), 0.1)

    @given(st.floats(min_value=-50, max_value=50))
    def test_unitarity(self, t):
        rng = np.random.default_rng(11)
        op = eigendecompose(random_hermitian(5, rng))
        psi0 = state(rng.normal(size=5) + 1j * rng.normal(size=5), op.basis)
        norm = np.vdot(evolve(op, psi0, t).amplitudes, evolve(op, psi0, t).amplitudes).real
        assert abs(norm - 1.0) < 1e-10

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    def test_composition(self, t1, t2):
        rng = np.random.default_rng(13)
        op = eigendecompose(random_hermitian(4, rng))
        psi0 = state(rng.normal(size=4) + 1j * rng.normal(size=4), op.basis)
        once = evolve(op, psi0, t1 + t2).amplitudes
        twice = evolve(op, evolve(op, psi0, t1), t2).amplitudes
        assert np.abs(once - twice).max() < 1e-10

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        op = eigendecompose(random_hermitian(6, rng))
        psi0 = state(rng.normal(size=6) + 1j * rng.normal(size=6), op.basis)
        times = np.linspace(0, 3, 7)
        batch = evolve_batch(op, op.to_eigenbasis(psi0.amplitudes), linalg.grid_phases(op.eigenvalues, times))
        for i, t in enumerate(times):
            assert np.abs(batch[:, i] - evolve(op, psi0, float(t)).amplitudes).max() < 1e-12

    def test_batch_phases_are_the_complex_exp_bit_for_bit(self):
        # The phases come from real cos and sin; the records keep the bits
        # that np.exp(-1j * angles) gave them, over the angles runs reach.
        rng = np.random.default_rng(7)
        op = eigendecompose(random_hermitian(6, rng))
        coeff = rng.normal(size=6) + 1j * rng.normal(size=6)
        times = np.concatenate(([0.0], np.linspace(1e-3, 4e3, 3001)))
        batch = evolve_batch(op, coeff, linalg.grid_phases(op.eigenvalues, times))
        phased = np.exp(-1j * np.outer(op.eigenvalues, times)) * coeff[:, None]
        assert np.array_equal(batch, op.eigenvectors @ phased)


class TestRealProducts:
    """linalg.matmul's real arithmetic against numpy's complex product, and
    the data choosing it: exactly real eigenvectors are kept as float64,
    complex ones keep the complex products, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 61, 100, 215, 256, 300])
    def test_the_real_product_is_the_complex_one_within_the_gemm_bound(self, dim):
        # Elementwise |got - A @ B| <= 4 d eps (|A| @ |B|), the standard
        # bound on two computed products of the same numbers.
        rng = np.random.default_rng(dim)
        mat = rng.normal(size=(dim, dim))
        for k in (1, 2, 3, 4, 7, 256):
            cols = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
            got = linalg.matmul(mat, cols)
            bound = 4 * dim * np.finfo(float).eps * (np.abs(mat) @ np.abs(cols))
            assert got.shape == (dim, k) and got.dtype == complex
            assert (np.abs(got - mat.astype(complex) @ cols) <= bound).all(), k

    def test_vectors_windows_and_strided_columns_take_the_same_product(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(9, 9))
        wide = rng.normal(size=(9, 40)) + 1j * rng.normal(size=(9, 40))
        window = wide[:, 5:17]  # rows of a wider array, as a phase-table block
        expected = linalg.matmul(mat, window.copy())
        assert np.array_equal(linalg.matmul(mat, window), expected)
        assert np.array_equal(linalg.matmul(mat, np.asfortranarray(window)), expected)
        vector = wide[:, 3]
        assert np.array_equal(linalg.matmul(mat, vector), linalg.matmul(mat, vector[:, None])[:, 0])

    @pytest.mark.parametrize("steps", [2, 258, 263, 519, 1030, 2000])
    def test_a_block_of_a_grid_has_the_whole_products_bits(self, steps):
        rng = np.random.default_rng(steps)
        vecs = np.linalg.qr(rng.normal(size=(215, 215)))[0]
        cols = rng.normal(size=(215, steps)) + 1j * rng.normal(size=(215, steps))
        whole = linalg.matmul(vecs, cols)
        for block in time_blocks(steps):
            assert np.array_equal(linalg.matmul(vecs, cols[:, block]), whole[:, block])

    def test_real_matrices_get_float64_eigenvectors(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 30))
        op = eigendecompose(HermitianOperator((a + a.T) / 2, Basis("collective_spin", 29)))
        raw = np.linalg.eigh(op.matrix.astype(complex))[1]  # the complex solver's own output
        assert op.matrix.dtype == op.eigenvectors.dtype == np.float64 and not raw.imag.any()
        assert np.array_equal(op.eigenvectors, raw.real)

    def test_complex_matrices_keep_complex_eigenvectors_and_products(self):
        rng = np.random.default_rng(6)
        dense = random_hermitian(40, rng)
        matrix = dense.matrix
        rows, cols = np.nonzero(matrix)
        entries = SparseHermitian(Basis("collective_spin", 39), rows, cols, matrix[rows, cols])
        # Entries with nonzero imaginary parts keep complex storage, in the
        # entries, the dense matrix and a sector's lumped matrix alike.
        assert entries.values.dtype == complex and entries.values.imag.any()
        assert entries.matrix.tobytes() == matrix.tobytes()
        assert entries.lump(np.arange(0, 40, 3)[:, None]).values.dtype == complex
        for op in (eigendecompose(dense), eigendecompose(entries.dense())):
            assert op.values.dtype == op.eigenvectors.dtype == complex and op.eigenvectors.imag.any()
            coeff = rng.normal(size=40) + 1j * rng.normal(size=40)
            for times in (np.array([0.7]), np.linspace(0.0, 3.0, 37)):
                phases = linalg.grid_phases(op.eigenvalues, times)
                expected = op.eigenvectors @ (phases * coeff[:, None])
                assert evolve_batch(op, coeff, phases).tobytes() == expected.tobytes()


def phase_error(phases: np.ndarray, freqs: np.ndarray, index: np.ndarray, step: float) -> float:
    """Largest deviation of ``phases`` (frequencies x times) from exp(-i f j step)
    evaluated in extended precision at the exact product of f, j and step."""
    angles = np.multiply.outer(freqs.astype(np.longdouble), index * np.longdouble(step))
    return float(max(np.abs(phases.real - np.cos(angles)).max(),
                     np.abs(phases.imag + np.sin(angles)).max()))


class TestGridPhases:
    STRIDE = linalg.PHASE_STRIDE

    def test_the_stride_divides_the_time_block(self):
        # Every block of the grid starts at a table row.
        from qbattery import models

        assert models.TIME_CHUNK % self.STRIDE == 0

    @pytest.mark.parametrize("tail", [1, 7])
    def test_blocks_and_the_whole_grid_share_their_bits(self, tail):
        from qbattery import models

        rng = np.random.default_rng(3)
        freqs = rng.normal(scale=5.0, size=9)
        times = np.linspace(0.0, 40.0, 2 * models.TIME_CHUNK + tail)
        step = linalg.grid_step(times)
        whole = linalg.PhaseTable(freqs, times, step)(slice(None))
        for block in models.time_blocks(len(times)):
            assert np.array_equal(linalg.PhaseTable(freqs, times[block], step)(slice(None)), whole[:, block])
        # The same bits in either layout.
        assert np.array_equal(linalg.PhaseTable(freqs, times, step, times_first=True)(slice(None)), whole.T)

    def test_table_rows_are_the_direct_phases_and_t0_is_exact(self):
        rng = np.random.default_rng(4)
        freqs = rng.normal(scale=3.0, size=7)
        times = np.linspace(0.0, 25.0, 300)
        table = linalg.PhaseTable(freqs, times, linalg.grid_step(times))(slice(None))
        direct = linalg.grid_phases(freqs, times)
        rows = slice(0, len(times) - 1, self.STRIDE)  # the last time is linspace's end point
        # Byte for byte, so the signed zeros of sin(f * 0) too.
        assert np.ascontiguousarray(table[:, rows]).tobytes() == direct[:, rows].tobytes()
        assert (table[:, 0] == 1.0).all()
        assert not np.array_equal(table[:, 17], direct[:, 17])  # a table product

    @pytest.mark.parametrize(
        "scale,t_max,steps",
        # |f| t up to 2e4, 6.4e4 (dicke_n8_weak reaches 5.6e4) and 40.
        [(10.0, 2000.0, 4001), (32.0, 2000.0, 2000), (4.0, 10.0, 2001)],
    )
    def test_table_error_is_within_twice_the_direct_error(self, scale, t_max, steps):
        rng = np.random.default_rng(11)
        freqs = np.concatenate(([scale, -scale], rng.uniform(-scale, scale, 62)))
        times = np.linspace(0.0, t_max, steps)
        step = linalg.grid_step(times)
        index = np.arange(steps)
        table = phase_error(linalg.PhaseTable(freqs, times, step)(slice(None)), freqs, index, step)
        direct = phase_error(linalg.grid_phases(freqs, index * step), freqs, index, step)
        assert table <= 2.0 * direct

    @given(
        freqs=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=6),
        step=st.floats(min_value=1e-6, max_value=10.0),
        first=st.integers(min_value=0, max_value=3000),
        count=st.integers(min_value=1, max_value=70),
    )
    def test_any_run_of_grid_times(self, freqs, step, first, count):
        # A run of consecutive grid times, from any index: each time's phase
        # is its grid index's, and within a few ulp of the angle's rounding.
        freqs = np.array(freqs)
        index = np.arange(first, first + count)
        times = index * step
        got = linalg.PhaseTable(freqs, times, step)(slice(None))
        start = first - first % self.STRIDE
        wider = linalg.PhaseTable(freqs, np.arange(start, first + count) * step, step)(slice(None))
        assert np.array_equal(got, wider[:, first - start:])
        on_rows = index % self.STRIDE == 0
        assert np.array_equal(got[:, on_rows], linalg.grid_phases(freqs, times[on_rows]))
        bound = 8 * np.finfo(float).eps * (1.0 + np.abs(freqs).max() * times[-1])
        assert phase_error(got, freqs, index, step) <= bound

    @pytest.mark.parametrize(
        "times",
        [np.array([0.0, 0.1, 0.25, 0.3]), np.array([0.0, 0.2, 0.1]), np.array([0.05, 0.15, 0.25])],
        ids=["uneven", "reversed", "off-grid"],
    )
    def test_a_grid_step_needs_grid_times(self, times):
        with pytest.raises(ValidationError, match="not consecutive points of a uniform grid"):
            linalg.PhaseTable(np.ones(2), times, 0.1)

    @pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
    def test_a_grid_step_is_positive_and_finite(self, step):
        with pytest.raises(ValidationError, match="must be positive and finite"):
            linalg.PhaseTable(np.ones(2), np.array([0.0]), step)

    def test_grid_propagation_matches_direct_propagation(self):
        rng = np.random.default_rng(5)
        op = eigendecompose(random_hermitian(8, rng))
        coeff = op.to_eigenbasis(state(rng.normal(size=8) + 1j * rng.normal(size=8), op.basis).amplitudes)
        times = np.linspace(0.0, 300.0, 1001)
        table = evolve_batch(op, coeff, linalg.PhaseTable(op.eigenvalues, times, linalg.grid_step(times))(slice(None)))
        direct = evolve_batch(op, coeff, linalg.grid_phases(op.eigenvalues, times))
        assert np.array_equal(table[:, 0], direct[:, 0])
        assert np.abs(table - direct).max() <= 1e-12


class TestPartialTrace:
    def test_product_state_is_pure(self):
        basis = Basis("spin_fock", 2, 5)
        spin = np.array([0.6, 0.8j, 0.0])
        fock = np.zeros(6)
        fock[2] = 1.0
        psi = StateVector(np.kron(spin, fock), basis)
        reduced = partial_trace_cavity(psi.density_matrix())
        assert abs(np.trace(reduced.matrix).real - 1) < 1e-10
        assert von_neumann_entropy(reduced) < 1e-10

    def test_bell_pair(self):
        basis = Basis("spin_fock", 1, 1)
        amp = np.zeros(4)
        amp[0] = amp[3] = 1 / np.sqrt(2)  # |m=-1/2,n=0> + |m=+1/2,n=1>
        reduced = partial_trace_cavity(StateVector(amp, basis).density_matrix())
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)
        assert abs(von_neumann_entropy(reduced) - 1.0) < 1e-10

    def test_spin_fock_superposition(self):
        n, n_max = 3, 6
        basis = Basis("spin_fock", n, n_max)
        amp = np.zeros(basis.dim)
        amp[0 * (n_max + 1) + 0] = 1 / np.sqrt(2)  # |m=-j, n=0>
        amp[n * (n_max + 1) + 1] = 1 / np.sqrt(2)  # |m=+j, n=1>
        reduced = partial_trace_cavity(StateVector(amp, basis).density_matrix())
        probs = np.linalg.eigvalsh(reduced.matrix)
        assert (probs > 1e-12).sum() == 2
        assert abs(von_neumann_entropy(reduced) - 1.0) < 1e-10

    def test_rejects_other_bases(self):
        rho = random_density_matrix(4, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            partial_trace_cavity(rho)


class TestEntropy:
    def test_pure_projector(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex), Basis("collective_spin", 2))
        assert von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityMatrix(np.eye(d, dtype=complex) / d, Basis("collective_spin", d - 1))
            assert abs(von_neumann_entropy(rho) - np.log2(d)) < 1e-12

    def test_binary_mixture(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), B2)
        assert abs(von_neumann_entropy(rho) - 0.811278) < 1e-6

    def test_rejects_negative_eigenvalues(self):
        mat = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValidationError):
            DensityMatrix(mat, B2)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_additivity_on_products(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(2, rng)
        joint = DensityMatrix(np.kron(rho.matrix, sigma.matrix), Basis("collective_spin", 3))
        total = von_neumann_entropy(rho) + von_neumann_entropy(sigma)
        assert abs(von_neumann_entropy(joint) - total) < 1e-9


class TestGroupLevels:
    def test_two_qubit_battery(self):
        levels = group_levels(eigendecompose(build_battery(2)).eigenvalues)
        assert np.allclose(levels.energies, [-1, 0, 1])
        assert list(levels.multiplicities) == [1, 2, 1]

    def test_three_qubit_battery(self):
        levels = group_levels(eigendecompose(build_battery(3)).eigenvalues)
        assert list(levels.multiplicities) == [1, 3, 3, 1]

    def test_tolerance_merging(self):
        op = eigendecompose(
            HermitianOperator(np.diag([0.0, 1e-12, 1.0]).astype(complex), Basis("collective_spin", 2))
        )
        levels = group_levels(op.eigenvalues)
        assert len(levels.energies) == 2
        assert list(levels.multiplicities) == [2, 1]

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31 - 1))
    def test_level_completeness(self, dim, seed):
        rng = np.random.default_rng(seed)
        op = eigendecompose(random_hermitian(dim, rng))
        levels = group_levels(op.eigenvalues)
        assert int(levels.multiplicities.sum()) == dim
        assert levels.starts[0] == 0 and levels.starts[-1] == dim
        assert np.all(levels.multiplicities > 0)
        assert np.all(np.diff(levels.energies) > 0)


class TestTypeInvariants:
    def test_state_norm_enforced(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, 1.0]), B2)

    def test_density_trace_enforced(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2, dtype=complex), B2)

    def test_diagonal_with_imaginary_entry_is_not_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            op2(np.diag([1, 1j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            op2(np.diag([bad, 1.0]))
        with pytest.raises(ValidationError, match="non-finite"):
            op2(np.array([[0.0, bad], [np.conj(bad), 0.0]]))
        with pytest.raises(ValidationError, match="non-finite"):
            StateVector(np.array([bad, 0.0]), B2)
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(np.diag([bad, 0.0]).astype(complex), B2)

    @pytest.mark.parametrize("i,j", [(3, 150), (150, 3), (70, 70), (199, 0), (64, 127), (63, 64)])
    def test_blocked_hermiticity_check_sees_every_entry(self, i, j):
        # 200 rows span four row blocks; the reported deviation is the dense one.
        mat = random_hermitian(200, np.random.default_rng(5)).matrix.copy()
        mat[i, j] += 1e-9j if i == j else 1e-9
        dense = np.abs(mat - mat.conj().T).max()
        with pytest.raises(ValidationError, match=f"max deviation {dense:.3e}"):
            HermitianOperator(mat, Basis("collective_spin", 199))

    def test_basis_dims(self):
        assert Basis("qubit_chain", 3).dim == 8
        assert Basis("collective_spin", 5).dim == 6
        assert Basis("spin_fock", 2, 4).dim == 15
        with pytest.raises(ValidationError):
            Basis("spin_fock", 2)
