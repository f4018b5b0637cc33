import math

import numpy as np
import pytest

from qbattery import (
    Basis,
    HermitianOperator,
    ModelSpec,
    StateVector,
    ValidationError,
    battery_entanglement_entropy,
    build_battery,
    build_charger_paradigmatic,
    chain_spec,
    cos_theta_power,
    eigendecompose,
    evolve,
    ghz_state,
    initial_state,
    populations_and_rates,
    power,
    qfi,
    stored_energy,
    time_average,
    variance,
    variance_decomposition,
)
from qbattery.models import battery_cell_terms, build_battery_for
from qbattery.observables import (
    COS_THETA_DENOM_FLOOR,
    POPULATION_FLOOR,
    PopulationRecord,
    check_distributions,
    expectation,
    fisher_sum,
    reduced_battery_state,
)
from qbattery.freefermion import ModeSet, pair_distributions
from qbattery.trajectory import find_tf, run_trajectory

from oracles import dense_battery_observables, random_density_matrix

B2 = Basis("collective_spin", 1)
SX2 = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex), B2)


def paradigmatic(family, n, lam=1.0, **kw):
    spec = ModelSpec(family=family, n_cells=n, lam=lam, **kw)
    charger = eigendecompose(build_charger_paradigmatic(spec).dense())
    battery = eigendecompose(build_battery(n))
    return spec, charger, battery, initial_state(spec)


class TestEnergyAndPower:
    def test_parallel_energy_closed_form(self):
        n, lam = 5, 0.9
        _, charger, battery, psi0 = paradigmatic("parallel", n, lam)
        for t in (0.2, 0.7, 1.3):
            psi = evolve(charger, psi0, t)
            assert stored_energy(psi, battery, psi0) == pytest.approx(
                n * math.sin(lam * t) ** 2, abs=1e-12
            )

    def test_zero_at_start(self):
        _, charger, battery, psi0 = paradigmatic("global", 3)
        assert stored_energy(psi0, battery, psi0) == 0.0

    def test_global_half_charge(self):
        _, charger, battery, psi0 = paradigmatic("global", 4)
        psi = evolve(charger, psi0, math.pi / 4)
        assert stored_energy(psi, battery, psi0) == pytest.approx(2.0, abs=1e-12)

    def test_parallel_power_closed_form(self):
        n, lam = 4, 1.1
        _, charger, battery, psi0 = paradigmatic("parallel", n, lam)
        for t in (0.15, 0.6):
            psi = evolve(charger, psi0, t)
            assert power(psi, battery, charger) == pytest.approx(
                n * lam * math.sin(2 * lam * t), abs=1e-12
            )

    def test_power_zero_from_ground(self):
        _, charger, battery, psi0 = paradigmatic("parallel", 3)
        assert abs(power(psi0, battery, charger)) < 1e-12

    def test_power_matches_finite_difference(self):
        traj = run_trajectory(chain_spec("xx_nn", 6), steps=50, path="dense")
        charger = eigendecompose(traj.charger.dense())  # the full space's own eigenbasis
        battery = build_battery_for(traj.spec)
        h = 1e-5
        for t in (0.8, 2.3, 5.1):
            fd = (traj.energy_at(t + h) - traj.energy_at(t - h)) / (2 * h)
            psi = evolve(charger, traj.psi0, t)
            assert power(psi, battery, charger) == pytest.approx(fd, abs=1e-6)


class TestVariance:
    def test_ghz(self):
        for n in (3, 6):
            assert variance(ghz_state(n), build_battery(n)) == pytest.approx(n**2 / 4)

    def test_parallel_product_state(self):
        n, lam = 6, 1.0
        _, charger, battery, psi0 = paradigmatic("parallel", n, lam)
        for t in (0.3, 1.0):
            p = math.sin(lam * t) ** 2
            psi = evolve(charger, psi0, t)
            assert variance(psi, battery) == pytest.approx(n * p * (1 - p), abs=1e-10)

    def test_global_scaling(self):
        n = 5
        _, charger, battery, psi0 = paradigmatic("global", n)
        t = 0.4
        p = math.sin(t) ** 2
        psi = evolve(charger, psi0, t)
        assert variance(psi, battery) == pytest.approx(n**2 * p * (1 - p), abs=1e-10)

    def test_second_moment(self):
        rng = np.random.default_rng(2)
        from qbattery.linalg import random_hermitian

        op = eigendecompose(random_hermitian(5, rng))
        amp = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi = StateVector(amp / np.linalg.norm(amp), op.basis)
        m2 = np.vdot(psi.amplitudes, np.linalg.matrix_power(op.matrix, 2) @ psi.amplitudes).real
        m4 = np.vdot(psi.amplitudes, np.linalg.matrix_power(op.matrix, 4) @ psi.amplitudes).real
        assert variance(psi, op, m=2) == pytest.approx(m4 - m2**2, rel=1e-10)

    def test_moment_order_validated(self):
        with pytest.raises(ValidationError):
            variance(initial_state(ModelSpec(family="parallel", n_cells=2)), build_battery(2), m=0)


class TestPopulations:
    def test_global_two_level_structure(self):
        n = 6
        _, charger, battery, psi0 = paradigmatic("global", n)
        for t in (0.2, 0.9, 1.4):
            rec = populations_and_rates(evolve(charger, psi0, t), battery, charger, t)
            assert rec.p[0] == pytest.approx(math.cos(t) ** 2, abs=1e-12)
            assert rec.p[-1] == pytest.approx(math.sin(t) ** 2, abs=1e-12)
            assert np.abs(rec.p[1:-1]).max() < 1e-12

    def test_rates_match_finite_difference(self):
        spec = ModelSpec(family="lmg", n_cells=10, lam=5.0, gamma=-1.0)
        traj = run_trajectory(spec, steps=30)
        charger = eigendecompose(traj.charger.dense())
        battery = build_battery_for(traj.spec)
        h = 1e-6
        for t in (0.11, 0.47, 0.92):
            plus = populations_and_rates(evolve(charger, traj.psi0, t + h), battery, charger).p
            minus = populations_and_rates(evolve(charger, traj.psi0, t - h), battery, charger).p
            exact = populations_and_rates(evolve(charger, traj.psi0, t), battery, charger).p_dot
            assert np.abs((plus - minus) / (2 * h) - exact).max() < 1e-7

    def test_probability_conservation(self):
        for path in ("dense", "auto"):
            traj = run_trajectory(chain_spec("xy_pow", 8), steps=200, path=path)
            assert np.abs(traj.populations.sum(axis=0) - 1).max() < 1e-9
            assert np.abs(traj.population_rates.sum(axis=0)).max() < 1e-8


DIAGONAL_ORACLE_SPECS = [
    ModelSpec(family="parallel", n_cells=6, lam=0.8),
    ModelSpec(family="lmg", n_cells=10, lam=5.0, gamma=0.3),
    ModelSpec(family="dicke", n_cells=3, lam=0.4, n_max=9),
]


@pytest.mark.parametrize("spec", DIAGONAL_ORACLE_SPECS, ids=lambda s: s.family)
def test_diagonal_battery_observables_match_dense_reference(spec):
    traj = run_trajectory(spec, steps=50)
    charger = eigendecompose(traj.charger.dense())
    battery = eigendecompose(build_battery_for(traj.spec))
    assert battery.is_diagonal and battery.eigenvectors is None
    for t in (0.0, 0.37 * traj.times[-1], 0.81 * traj.times[-1]):
        psi = evolve(charger, traj.psi0, t)
        ref = dense_battery_observables(psi, battery, charger)
        rec = populations_and_rates(psi, battery, charger, t)
        assert expectation(psi, battery) == pytest.approx(ref["energy"], abs=1e-12)
        assert power(psi, battery, charger) == pytest.approx(ref["power"], abs=1e-12)
        assert variance(psi, battery) == pytest.approx(ref["variance"], abs=1e-12)
        assert variance(psi, battery, m=2) == pytest.approx(ref["variance_m"], rel=1e-12, abs=1e-12)
        assert np.abs(rec.p - ref["p"]).max() <= 1e-12
        assert np.abs(rec.p_dot - ref["p_dot"]).max() <= 1e-12


class TestFisherEnergy:
    def test_parallel_constant(self):
        n, lam = 5, 1.2
        _, charger, battery, psi0 = paradigmatic("parallel", n, lam)
        for t in (0.2, 0.5, 1.0):
            rec = populations_and_rates(evolve(charger, psi0, t), battery, charger, t)
            assert fisher_sum(rec.p, rec.p_dot, POPULATION_FLOOR) == pytest.approx(
                4 * n * lam**2, rel=1e-9
            )

    def test_global_constant(self):
        _, charger, battery, psi0 = paradigmatic("global", 4, lam=0.8)
        rec = populations_and_rates(evolve(charger, psi0, 0.5), battery, charger)
        assert fisher_sum(rec.p, rec.p_dot, POPULATION_FLOOR) == pytest.approx(
            4 * 0.8**2, rel=1e-9
        )

    def test_commuting_charger_freezes_distribution(self):
        spec = ModelSpec(family="jw_chain", n_cells=4, lambdas=(0.9,), gammas=(0.0,))
        for path in ("dense", "auto"):
            traj = run_trajectory(spec, steps=60, path=path)
            assert np.abs(traj.fisher_energy).max() < 1e-12

    def test_bounded_by_charger_variance(self):
        for spec, path in (
            (chain_spec("xx_nn", 6), "dense"),
            (chain_spec("xx_nn", 6), "auto"),
            (ModelSpec(family="lmg", n_cells=12, lam=5.0), "auto"),
        ):
            traj = run_trajectory(spec, steps=300, path=path)
            assert np.all(traj.fisher_energy <= 4 * traj.var_charger * (1 + 1e-8) + 1e-12)


class TestFisherSum:
    def test_level_at_the_floor_is_dropped(self):
        p = np.array([POPULATION_FLOOR, 0.5, 0.5 - POPULATION_FLOOR])
        p_dot = np.array([1e-3, 0.2, -0.2 - 1e-3])
        expected = 0.2**2 / 0.5 + (0.2 + 1e-3) ** 2 / (0.5 - POPULATION_FLOOR)
        assert fisher_sum(p, p_dot, POPULATION_FLOOR) == expected
        above = np.nextafter(POPULATION_FLOOR, 1.0)
        kept = fisher_sum(np.array([above, 0.5, 0.5 - above]), p_dot, POPULATION_FLOOR)
        assert kept > expected + 1e3

    def test_floor_zero_keeps_every_positive_level(self):
        p = np.array([0.0, 1e-30, 1e-13, 1.0 - 1e-13 - 1e-30])
        p_dot = np.array([0.0, 1e-16, 2e-7, -2e-7 - 1e-16])
        expected = (p_dot[1:] ** 2 / p[1:]).sum()
        assert fisher_sum(p, p_dot, 0.0) == pytest.approx(expected, rel=1e-15)
        assert fisher_sum(p, p_dot, POPULATION_FLOOR) == pytest.approx(
            p_dot[3] ** 2 / p[3], rel=1e-15
        )

    def test_single_occupied_level_at_rest(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])  # (levels, times)
        assert np.array_equal(fisher_sum(p, np.zeros_like(p), POPULATION_FLOOR), [0.0, 0.0])
        assert np.array_equal(fisher_sum(p, np.zeros_like(p), 0.0), [0.0, 0.0])


# Each corruption of the two-level distribution (0.6, 0.4) with rates
# (0.1, -0.1) that the one distribution check refuses, with its message.
BAD_DISTRIBUTIONS = {
    "nan_population": ([math.nan, 0.4], [0.1, -0.1], "populations sum to nan"),
    "sum_off_by_2e-10": ([0.6, 0.4 + 2e-10], [0.1, -0.1], "populations sum to"),
    "rate_sum_off_by_2e-9": ([0.6, 0.4], [0.1, -0.1 + 2e-9], "population rates sum to"),
    "negative_population": ([1.0 + 1e-11, -1e-11], [0.1, -0.1], "negative population"),
}


class TestDistributionCheck:
    @pytest.mark.parametrize("case", BAD_DISTRIBUTIONS)
    def test_population_record_refuses(self, case):
        p, p_dot, message = BAD_DISTRIBUTIONS[case]
        with pytest.raises(ValidationError, match=message):
            PopulationRecord(t=0.0, p=np.array(p), p_dot=np.array(p_dot))

    @pytest.mark.parametrize("case", BAD_DISTRIBUTIONS)
    def test_grid_columns_refused(self, case):
        # The (levels x times) form the pair recursion checks: the corrupted
        # pair in the middle of three columns.
        p, p_dot, message = BAD_DISTRIBUTIONS[case]
        good_p, good_rate = [0.6, 0.4], [0.1, -0.1]
        with pytest.raises(ValidationError, match=message):
            check_distributions(
                np.array([good_p, p, good_p]).T, np.array([good_rate, p_dot, good_rate]).T
            )

    def test_rate_sum_tolerance_scales_with_the_rates(self):
        # Rates of 1e8 sum to zero only to their rounding: 1e-9 of sum |p_dot|.
        p = np.array([0.5, 0.5])
        check_distributions(p, np.array([1e8, -1e8 + 7.45e-9]))
        with pytest.raises(ValidationError, match="population rates sum to 0.2"):
            check_distributions(p, np.array([1e8, -1e8 + 0.2]))
        with pytest.raises(ValidationError, match="population rates sum to nan"):
            check_distributions(p, np.array([1e8, math.nan]))

    def test_pair_recursion_refuses_a_nan_mode(self):
        modes = ModeSet(k=np.array([0.3]), omega=np.array([math.nan]), sin_theta=np.array([0.5]))
        with pytest.raises(ValidationError, match="populations sum to nan"):
            pair_distributions(modes, np.linspace(0.0, 1.0, 3))


class TestStateSpaceFisher:
    def test_pure_state_equals_four_variances(self):
        rng = np.random.default_rng(4)
        from qbattery.linalg import random_hermitian

        drive = random_hermitian(5, rng)
        amp = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi = StateVector(amp / np.linalg.norm(amp), drive.basis)
        assert qfi(psi.density_matrix(), drive) == pytest.approx(
            4 * variance(psi, drive), rel=1e-8
        )

    def test_commuting_drive_is_stationary(self):
        rho = random_density_matrix(4, np.random.default_rng(8))
        _, vecs = np.linalg.eigh(rho.matrix)
        drive = HermitianOperator(vecs @ np.diag(np.arange(4.0)) @ vecs.conj().T, rho.basis)
        assert qfi(rho, drive) < 1e-10

    def test_two_level_mixture(self):
        # diag(1/4, 3/4) driven by sigma_x: 2 * [2 * (1/2)^2 / 1] = 1.
        from qbattery import DensityMatrix

        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), B2)
        assert qfi(rho, SX2) == pytest.approx(1.0, rel=1e-12)


class TestVarianceDecomposition:
    def test_product_state_has_no_correlation(self):
        n = 4
        _, charger, battery, psi0 = paradigmatic("parallel", n)
        psi = evolve(charger, psi0, 0.6)
        local, corr = variance_decomposition(psi, battery_cell_terms(n))
        assert abs(corr) < 1e-10
        assert local + corr == pytest.approx(variance(psi, battery), abs=1e-9)

    def test_ghz_split(self):
        n = 5
        _, charger, battery, psi0 = paradigmatic("global", n)
        psi = evolve(charger, psi0, math.pi / 4)  # p = 1/2, GHZ form
        local, corr = variance_decomposition(psi, battery_cell_terms(n))
        assert local == pytest.approx(n / 4, abs=1e-10)
        assert corr == pytest.approx(n * (n - 1) / 4, abs=1e-10)

    def test_hybrid_block_correlation(self):
        spec, charger, battery, psi0 = paradigmatic("hybrid", 4, q=2, r=2)
        psi = evolve(charger, psi0, math.pi / 4)
        _, corr = variance_decomposition(psi, battery_cell_terms(4))
        assert corr == pytest.approx(1.0, abs=1e-10)  # N p (r-1)(1-p) at p = 1/2

    def test_closure_on_entangling_dynamics(self):
        traj = run_trajectory(chain_spec("xx_nn", 6), steps=40, path="dense")
        terms = battery_cell_terms(6)
        for i in (5, 17, 33):
            psi = traj.state_at(i)
            local, corr = variance_decomposition(psi, terms)
            assert local + corr == pytest.approx(float(traj.var_battery[i]), abs=1e-9)


class TestSaturationRatio:
    def test_paradigmatic_saturation_everywhere(self):
        # +1 while charging, -1 on the discharge side of the peak: the bound
        # is saturated at every defined instant.
        for family, kw in (("parallel", {}), ("global", {}), ("hybrid", {"q": 2, "r": 2})):
            spec = ModelSpec(family=family, n_cells=4, lam=1.0, **kw)
            traj = run_trajectory(spec, steps=300)
            defined = ~np.isnan(traj.cos_theta)
            assert np.abs(np.abs(traj.cos_theta[defined][1:]) - 1.0).max() < 1e-6
            charging = defined & (traj.times < math.pi / 2 - 1e-3) & (traj.times > 0)
            assert np.abs(traj.cos_theta[charging] - 1.0).max() < 1e-6

    def test_undefined_marker(self):
        assert math.isnan(cos_theta_power(0.0, 0.0, 0.0))
        assert cos_theta_power(1.0, 1.0, 4.0) == pytest.approx(0.5)

    def test_denominator_at_the_floor_is_undefined(self):
        floor_sq = COS_THETA_DENOM_FLOOR**2
        assert math.isnan(cos_theta_power(1e-13, 1.0, floor_sq))
        assert cos_theta_power(1e-13, 1.0, 2 * floor_sq) == pytest.approx(1e-13 / math.sqrt(2) / 1e-12)
        series = cos_theta_power(np.array([1e-13, 1e-13]), np.array([1.0, 2.0]), floor_sq)
        assert math.isnan(series[0]) and series[1] == pytest.approx(1e-13 / math.sqrt(2) / 1e-12)

    def test_range_when_defined(self):
        traj = run_trajectory(ModelSpec(family="dicke", n_cells=4, lam=0.5), steps=400)
        defined = ~np.isnan(traj.cos_theta)
        assert np.abs(traj.cos_theta[defined]).max() <= 1 + 1e-6


class TestTimeAverage:
    def test_constant(self):
        assert time_average(np.full(50, 3.3), 0.1) == pytest.approx(3.3)

    def test_sine_squared_over_period(self):
        t = np.linspace(0, math.pi, 1001)
        series = np.sin(t) ** 2
        assert time_average(series, t[1] - t[0]) == pytest.approx(0.5, abs=1e-6)

    def test_parallel_variance_average(self):
        n, lam = 6, 1.0
        _, charger, battery, psi0 = paradigmatic("parallel", n, lam)
        times = np.linspace(0, math.pi / 2, 2001)
        values = []
        for t in times:
            psi = evolve(charger, psi0, float(t))
            values.append(variance(psi, battery))
        # <N p(1-p)> over a quarter period: N * (1/8)
        assert time_average(np.array(values), float(times[1] - times[0])) == pytest.approx(
            n / 8, abs=1e-6
        )

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            time_average(np.array([1.0]), 0.1)


class TestBatteryEntanglementEntropy:
    def test_product_state(self):
        basis = Basis("spin_fock", 2, 6)
        amp = np.zeros(basis.dim)
        amp[2] = 1.0
        assert battery_entanglement_entropy(StateVector(amp, basis)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_entangled_pair(self):
        basis = Basis("spin_fock", 1, 3)
        amp = np.zeros(basis.dim)
        amp[0 * 4 + 1] = 1 / math.sqrt(2)  # |m=-j, n=1>
        amp[1 * 4 + 0] = 1 / math.sqrt(2)  # |m=+j, n=0>
        assert battery_entanglement_entropy(StateVector(amp, basis)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_partial_trace_route(self):
        from qbattery import partial_trace_cavity, von_neumann_entropy

        traj = run_trajectory(ModelSpec(family="dicke", n_cells=3, lam=0.5), steps=40)
        psi = traj.state_at(25)
        via_trace = von_neumann_entropy(partial_trace_cavity(psi.density_matrix()))
        direct = von_neumann_entropy(reduced_battery_state(psi))
        assert direct == pytest.approx(via_trace, abs=1e-10)

    def test_strong_coupling_generates_entanglement(self):
        spec = ModelSpec(family="dicke", n_cells=8, lam=0.5)
        traj = run_trajectory(spec, lam_t_max=3.0, steps=600)
        peak = find_tf(traj)
        idx = int(np.argmin(np.abs(traj.times - peak.t_f)))
        value = battery_entanglement_entropy(traj.state_at(idx))
        assert 0.5 < value < 1.0
