import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbattery import (
    Basis,
    chain_spec,
    HermitianOperator,
    ValidationError,
    build_battery,
    capacity_at_entropy,
    eigendecompose,
    energy_amplitude_check,
    gibbs,
    register_spectrum,
    solve_beta_for_entropy,
    thermal_curve,
)
from qbattery import capacity, linalg
from qbattery.capacity import thermal_point
from qbattery.linalg import random_hermitian
from qbattery.models import ModelSpec
from qbattery.sweeps import chain_analytic_quantities
from qbattery.trajectory import run_trajectory

from oracles import haar_orthonormal_columns, register_capacity_closed_form, shannon_bits


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def spectrum(energies, multiplicities):
    return np.array(energies, dtype=float), np.log(np.array(multiplicities, dtype=float))


class TestGibbs:
    def test_infinite_temperature_is_uniform(self):
        # Every state carries 1/4, so level k carries g_k / 4.
        p = gibbs(spectrum([-1.0, 0.0, 1.0], [1, 2, 1]), 0.0)
        assert np.allclose(p, [0.25, 0.5, 0.25])

    def test_zero_temperature_limits(self):
        levels = spectrum([-1.0, 0.0, 1.0], [1, 2, 1])
        assert np.array_equal(gibbs(levels, math.inf), [1, 0, 0])
        assert np.array_equal(gibbs(levels, -math.inf), [0, 0, 1])

    def test_degenerate_ground_limit(self):
        # The whole weight sits on the two-fold ground level, one bit of entropy.
        levels = spectrum([-1.0, 3.0], [2, 1])
        assert np.array_equal(gibbs(levels, math.inf), [1.0, 0.0])
        assert thermal_point(levels, math.inf).entropy_bits == 1.0

    def test_overflow_safety(self):
        p = gibbs(spectrum([-1e4, 0.0, 1e4], [1, 1, 1]), 5.0)
        assert np.isfinite(p).all() and abs(p.sum() - 1) < 1e-12
        assert p[0] == pytest.approx(1.0)

    def test_multiplicities_beyond_float_range(self):
        # C(2000, 1000) overflows a float; at beta = 0 the level weights are
        # the binomial distribution C(N, k) / 2^N.
        n = 2000
        p = gibbs(register_spectrum(n), 0.0)
        pmf = [math.comb(n, k) / 2**n for k in range(n + 1)]
        assert np.abs(p - pmf).max() < 1e-12 and abs(p.sum() - 1) < 1e-12

    def test_operator_reduced_to_its_levels(self):
        op = build_battery(3)
        for beta in (0.0, 0.7, -2.0, math.inf):
            assert np.allclose(gibbs(op, beta), gibbs(register_spectrum(3), beta), atol=1e-15)

    @given(st.floats(min_value=-50, max_value=50))
    def test_normalization(self, beta):
        p = gibbs(spectrum(np.linspace(-3, 3, 7), [1, 6, 15, 20, 15, 6, 1]), beta)
        assert abs(p.sum() - 1) < 1e-12 and (p >= 0).all()


class TestThermalCurve:
    def test_single_qubit_closed_form(self):
        levels = register_spectrum(1)
        for beta in (0.3, 1.7, -2.4):
            point = thermal_point(levels, beta)
            assert point.energy == pytest.approx(-0.5 * math.tanh(beta / 2), abs=1e-12)

    def test_infinite_temperature_point(self):
        point = thermal_point(register_spectrum(3), 0.0)
        assert point.energy == pytest.approx(0.0, abs=1e-15)
        assert point.entropy_bits == pytest.approx(3.0)

    def test_product_additivity(self):
        betas = np.linspace(-2, 2, 9)
        single = thermal_curve(eigendecompose(build_battery(1)), betas)
        triple = thermal_curve(eigendecompose(build_battery(3)), betas)
        for s, t in zip(single, triple):
            assert t.energy == pytest.approx(3 * s.energy, abs=1e-10)
            assert t.entropy_bits == pytest.approx(3 * s.entropy_bits, abs=1e-10)

    def test_register_spectrum_matches_dense_battery(self):
        betas = np.concatenate([-np.logspace(-3, 1.3, 50)[::-1], [0.0], np.logspace(-3, 1.3, 50)])
        dense = thermal_curve(build_battery(8), betas)
        register = thermal_curve(register_spectrum(8), betas)
        for a, b in zip(dense, register):
            assert a.beta == b.beta
            assert abs(a.energy - b.energy) < 1e-12 and abs(a.entropy_bits - b.entropy_bits) < 1e-12

    def test_energy_monotone_in_beta(self):
        rng = np.random.default_rng(21)
        op = eigendecompose(random_hermitian(6, rng))
        points = thermal_curve(op, np.linspace(-4, 4, 41))
        energies = [p.energy for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_boundary_slope_equals_beta(self):
        # dS/dE along the curve equals beta (natural-log entropy units).
        op = eigendecompose(build_battery(3))
        betas = np.linspace(-2, 2, 401)
        points = thermal_curve(op, betas)
        e = np.array([p.energy for p in points])
        s_nats = np.array([p.entropy_bits for p in points]) * math.log(2)
        slope = (s_nats[2:] - s_nats[:-2]) / (e[2:] - e[:-2])
        assert np.abs(slope - betas[1:-1]).max() < 1e-4


class TestEntropyInversion:
    def test_maximal_entropy_is_infinite_temperature(self):
        op = eigendecompose(build_battery(2))
        point = solve_beta_for_entropy(op, 2.0, "positive_beta")
        assert point.beta == 0.0 and point.energy == pytest.approx(0.0, abs=1e-12)

    def test_binary_entropy_target(self):
        n = 4
        op = eigendecompose(build_battery(n))
        target = n * binary_entropy(0.25)
        low = solve_beta_for_entropy(op, target, "positive_beta")
        high = solve_beta_for_entropy(op, target, "negative_beta")
        assert low.energy == pytest.approx(-0.25 * n, abs=1e-8)
        assert high.energy == pytest.approx(0.25 * n, abs=1e-8)
        assert low.beta == pytest.approx(math.log(3), abs=1e-6)
        assert abs(low.entropy_bits - target) < 1e-10

    def test_residual_tolerance(self):
        rng = np.random.default_rng(5)
        op = eigendecompose(random_hermitian(8, rng))
        for target in (0.5, 1.5, 2.9):
            for branch in ("positive_beta", "negative_beta"):
                point = solve_beta_for_entropy(op, target, branch)
                assert abs(point.entropy_bits - target) < 1e-10

    def test_range_validation(self):
        op = eigendecompose(build_battery(2))
        with pytest.raises(ValidationError):
            solve_beta_for_entropy(op, 2.5, "positive_beta")
        with pytest.raises(ValidationError):
            solve_beta_for_entropy(op, 1.0, "sideways")

    def test_entropy_below_ground_degeneracy_rejected(self):
        mat = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
        op = eigendecompose(HermitianOperator(mat, Basis("collective_spin", 3)))
        with pytest.raises(ValidationError, match="ground-level"):
            solve_beta_for_entropy(op, 0.5, "positive_beta")


class TestCapacity:
    def test_pure_state_capacity_is_spectral_range(self):
        for n in (2, 5, 8):
            op = eigendecompose(build_battery(n))
            assert capacity_at_entropy(op, 0.0) == float(n)

    def test_vanishes_at_maximal_entropy(self):
        op = eigendecompose(build_battery(3))
        assert abs(capacity_at_entropy(op, 3.0)) < 1e-9

    def test_intermediate_entropy(self):
        n = 4
        op = eigendecompose(build_battery(n))
        target = n * binary_entropy(0.25)
        assert capacity_at_entropy(op, target) == pytest.approx(0.5 * n, abs=1e-8)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(17)
        op = eigendecompose(random_hermitian(6, rng))
        s_grid = np.linspace(0, math.log2(6), 12)
        caps = [capacity_at_entropy(op, s) for s in s_grid]
        assert all(b <= a + 1e-9 for a, b in zip(caps, caps[1:]))

    def test_out_of_range(self):
        op = eigendecompose(build_battery(2))
        with pytest.raises(ValidationError):
            capacity_at_entropy(op, 2.3)

    def test_random_mixtures_respect_diagram(self):
        # Random fixed-entropy mixtures must sit between the two thermal
        # branch energies (spot check; the full 10^3-sample run is in the
        # acceptance suite).
        rng = np.random.default_rng(99)
        op = eigendecompose(random_hermitian(8, rng))
        for _ in range(100):
            probs = rng.dirichlet(np.ones(8))
            vecs = haar_orthonormal_columns(8, rng)
            energy = float((probs * (vecs.conj() * (op.matrix @ vecs)).sum(axis=0).real).sum())
            s_bits = shannon_bits(probs)
            low = solve_beta_for_entropy(op, s_bits, "positive_beta")
            high = solve_beta_for_entropy(op, s_bits, "negative_beta")
            assert low.energy - 1e-6 <= energy <= high.energy + 1e-6


def assert_closed_form_capacity(battery, n):
    for s_bits in (0.5, 1.0, 3.0, 0.25 * n, 0.5 * n, 0.9 * n):
        expected = register_capacity_closed_form(n, s_bits)
        assert capacity_at_entropy(battery, s_bits) == pytest.approx(expected, rel=1e-9)


class TestEigenvaluesOnly:
    def test_operator_battery_builds_no_eigenvectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvector matrix was built")

        decomposed = []

        def record(op):
            decomposed.append(linalg.eigendecompose(op))
            return decomposed[-1]

        monkeypatch.setattr(capacity, "eigendecompose", record)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        expected = register_capacity_closed_form(12, 1.0)
        assert capacity_at_entropy(build_battery(12), 1.0) == pytest.approx(expected, rel=1e-9)
        assert decomposed and all(op.eigenvectors is None for op in decomposed)

    def test_diagonal_battery_allocates_vectors_only(self):
        # N = 16: a dense complex battery would hold dim^2 * 16 bytes = 68.7 GB.
        n, dim = 16, 2**16
        tracemalloc.start()
        try:
            op = eigendecompose(build_battery(n))
            value = capacity_at_entropy(op, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.is_diagonal and op.eigenvectors is None and op.order.shape == (dim,)
        assert value == pytest.approx(register_capacity_closed_form(n, 3.0), rel=1e-9)
        assert peak < 16 * dim * 8  # a handful of dim-long vectors, ~2 MB

    def test_dense_operator_levels_from_eigvalsh(self):
        # A random matrix has six simple levels: eigvalsh's values, each of
        # multiplicity 1.
        op = random_hermitian(6, np.random.default_rng(5))
        want = capacity_at_entropy((np.linalg.eigvalsh(op.matrix), np.zeros(6)), 1.0)
        assert capacity_at_entropy(op, 1.0) == pytest.approx(want, rel=1e-9)


class TestRegisterClosedForm:
    """C_N(S) = N (1 - 2 h2^-1(S / N)) for N identical cells."""

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_operator_path(self, n):
        assert_closed_form_capacity(eigendecompose(build_battery(n)), n)

    @pytest.mark.parametrize("n", [100, 1000, 10**4])
    def test_register_spectrum(self, n):
        assert_closed_form_capacity(register_spectrum(n), n)

    def test_capacity_beyond_the_dense_cap(self):
        levels = register_spectrum(10**4)
        assert capacity_at_entropy(levels, 0.0) == 10**4
        assert abs(capacity_at_entropy(levels, 10**4)) < 1e-6


class TestEnergyAmplitude:
    def test_paradigmatic_full_fraction(self):
        spec = ModelSpec(family="parallel", n_cells=4, lam=1.0)
        traj = run_trajectory(spec, steps=800)
        report = energy_amplitude_check(traj.energy, register_spectrum(4)[0], traj.initial_energy)
        assert report.satisfied
        assert report.stored_fraction == pytest.approx(1.0, abs=1e-4)
        exact_peak = traj.energy_at(math.pi / 2)
        assert exact_peak / report.storage_cap == pytest.approx(1.0, abs=1e-9)

    def test_frozen_chain_stores_nothing(self):
        spec = ModelSpec(family="jw_chain", n_cells=4, lambdas=(0.8,), gammas=(0.0,))
        for path in ("dense", "auto"):
            traj = run_trajectory(spec, steps=50, path=path)
            report = energy_amplitude_check(traj.energy, register_spectrum(4)[0], traj.initial_energy)
            assert report.satisfied
            assert abs(report.stored_fraction) < 1e-12

    def test_half_capacity_chain(self):
        quantities = chain_analytic_quantities(chain_spec("xx_nn", 20), steps=1200)
        assert 0.40 <= quantities["energy_at_tf"] / 20 <= 0.60
