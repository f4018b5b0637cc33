import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbattery import (
    ModelSpec,
    ValidationError,
    build_battery,
    build_charger_paradigmatic,
    chain_spec,
    eigendecompose,
    entanglement_power_bound,
    evolve,
    fisher_energy,
    ghz_state,
    initial_state,
    moment_rate_bound,
    populations_and_rates,
    power,
    producibility_variance_cap,
    variance,
    witness_entangled_block_size,
)
from qbattery.bounds import (
    ABSOLUTE_FLOOR,
    bound_ratio,
    check_inequality,
    fisher_power_bound,
    heisenberg_power_bound,
)
from qbattery.trajectory import run_trajectory

from oracles import dephasing_fisher_report


class TestProducibilityCap:
    def test_blocked_pairs(self):
        assert producibility_variance_cap(4, 2) == 2.0

    def test_full_block(self):
        for n in (3, 5, 8):
            assert producibility_variance_cap(n, n) == n**2 / 4

    def test_remainder_block(self):
        assert producibility_variance_cap(5, 2) == pytest.approx(2.25)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            producibility_variance_cap(4, 5)
        with pytest.raises(ValidationError):
            producibility_variance_cap(4, 0)

    @given(st.integers(min_value=2, max_value=24))
    def test_nondecreasing_in_block_size(self, n):
        caps = [producibility_variance_cap(n, k) for k in range(1, n + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3), (5, 2)])
    def test_ghz_block_products_saturate(self, n, k):
        r = n // k
        blocks = [k] * r + ([n - r * k] if n - r * k else [])
        psi = ghz_state(n, blocks)
        var = variance(psi, build_battery(n))
        assert abs(var - producibility_variance_cap(n, k)) < 1e-10


class TestWitness:
    def test_product_state_variance(self):
        assert witness_entangled_block_size(4 / 4, 4) == 1  # N/4 at p = 1/2

    def test_ghz_variance(self):
        for n in (3, 6):
            assert witness_entangled_block_size(n**2 / 4, n) == n

    def test_scan_order(self):
        assert witness_entangled_block_size(2.1, 4) == 3

    def test_unphysical_variance(self):
        with pytest.raises(ValidationError):
            witness_entangled_block_size(4.2, 4)  # above N^2/4 = 4

    def test_witness_tracks_hybrid_blocks(self):
        for q, r in ((1, 8), (2, 4), (4, 2), (8, 1)):
            spec = ModelSpec(family="hybrid", n_cells=8, lam=1.0, q=q, r=r)
            charger = eigendecompose(build_charger_paradigmatic(spec))
            psi = evolve(charger, initial_state(spec), math.pi / 4)
            var = variance(psi, build_battery(8))
            assert witness_entangled_block_size(var, 8) == r


class TestPowerBounds:
    def test_entanglement_bound_divisible(self):
        assert entanglement_power_bound(6, 4, 1.0) == pytest.approx(5.0)
        assert entanglement_power_bound(8, 2, 3.0) == pytest.approx((8 * 2 / 4) * 3.0)

    def test_hybrid_saturates_block_bound_at_half_charge(self):
        spec = ModelSpec(family="hybrid", n_cells=4, lam=1.0, q=2, r=2)
        charger = eigendecompose(build_charger_paradigmatic(spec))
        battery = eigendecompose(build_battery(4))
        psi = evolve(charger, initial_state(spec), math.pi / 4)
        rec = populations_and_rates(psi, battery, charger)
        fisher = fisher_energy(rec)
        p_val = power(psi, battery, charger)
        cap = entanglement_power_bound(4, 2, fisher)
        assert p_val**2 == pytest.approx(cap, rel=1e-8)

    def test_parallel_peak_power_hits_product_bound(self):
        n, lam = 5, 1.0
        spec = ModelSpec(family="parallel", n_cells=n, lam=lam)
        charger = eigendecompose(build_charger_paradigmatic(spec))
        battery = eigendecompose(build_battery(n))
        psi = evolve(charger, initial_state(spec), math.pi / 4)
        p_val = power(psi, battery, charger)
        assert p_val**2 == pytest.approx(n**2 * lam**2, rel=1e-10)
        assert p_val**2 <= entanglement_power_bound(n, 1, 4 * n * lam**2) * (1 + 1e-10)

    def test_moment_bound_saturated_for_parallel(self):
        spec = ModelSpec(family="parallel", n_cells=4, lam=1.0)
        traj = run_trajectory(spec, steps=100)
        for i in (10, 40, 80):
            report = moment_rate_bound(
                float(traj.times[i]),
                traj.levels.energies,
                traj.populations[:, i],
                traj.population_rates[:, i],
                1,
            )
            assert report.satisfied and report.ratio == pytest.approx(1.0, abs=1e-9)

    def test_moment_bound_stationary_state(self):
        report = moment_rate_bound(
            0.0, np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.zeros(3), 1
        )
        assert report.satisfied and report.lhs == 0.0

    def test_second_moment_bound_on_chain(self):
        traj = run_trajectory(chain_spec("xx_nn", 6), steps=200)
        for i in range(0, 200, 7):
            report = moment_rate_bound(
                float(traj.times[i]),
                traj.levels.energies,
                traj.populations[:, i],
                traj.population_rates[:, i],
                2,
            )
            assert report.satisfied

    def test_moment_order_validated(self):
        with pytest.raises(ValidationError):
            moment_rate_bound(0.0, np.array([1.0]), np.array([1.0]), np.array([0.0]), 0)


class TestHeisenbergComparison:
    def test_parallel_equality(self):
        spec = ModelSpec(family="parallel", n_cells=4, lam=1.0)
        traj = run_trajectory(spec, steps=100)
        for i in (15, 55):
            report = heisenberg_power_bound(
                float(traj.times[i]),
                float(traj.power[i]),
                float(traj.var_battery[i]),
                float(traj.var_charger[i]),
            )
            assert report.satisfied
            # I_E = 4 var(H_C) for independent-cell charging: same bound.
            assert report.ratio == pytest.approx(
                float(traj.power[i]) ** 2
                / (traj.var_battery[i] * traj.fisher_energy[i]),
                rel=1e-6,
            )

    def test_commuting_pair_trivial(self):
        report = heisenberg_power_bound(0.0, 0.0, 0.0, 1.0)
        assert report.satisfied and math.isnan(report.ratio)

    def test_chain_heisenberg_looser_than_fisher(self):
        traj = run_trajectory(chain_spec("xy_nn", 8), steps=400)
        mask = traj.var_battery * traj.fisher_energy > 1e-10
        tight = traj.power[mask] ** 2 / (traj.var_battery[mask] * traj.fisher_energy[mask])
        loose = traj.power[mask] ** 2 / (4 * traj.var_battery[mask] * traj.var_charger[mask])
        assert np.all(loose <= tight * (1 + 1e-8) + 1e-12)


class TestDephasing:
    def test_energy_speed_below_state_speed(self):
        for spec in (
            ModelSpec(family="dicke", n_cells=4, lam=0.5),
            ModelSpec(family="lmg", n_cells=14, lam=5.0),
        ):
            traj = run_trajectory(spec, steps=300)
            for i in range(0, 300, 23):
                assert dephasing_fisher_report(
                    float(traj.times[i]), float(traj.fisher_energy[i]), float(traj.var_charger[i])
                ).satisfied


class TestInequalityReporting:
    def test_tolerance_policy(self):
        assert check_inequality(0.0, 1.0, 1.0).satisfied
        assert check_inequality(0.0, 1.0 + 5e-9, 1.0).satisfied
        assert not check_inequality(0.0, 1.0 + 5e-8, 1.0).satisfied
        assert check_inequality(0.0, 1e-13, 0.0).satisfied

    def test_ratio_guard(self):
        report = check_inequality(0.0, 0.0, 0.0)
        assert math.isnan(report.ratio)

    def test_rhs_at_the_floor_is_undefined(self):
        assert math.isnan(check_inequality(0.0, 0.5e-12, ABSOLUTE_FLOOR).ratio)
        assert check_inequality(0.0, 1e-12, 2 * ABSOLUTE_FLOOR).ratio == 0.5
        ratios = bound_ratio(np.array([0.5e-12, 1e-12]), np.array([ABSOLUTE_FLOOR, 2 * ABSOLUTE_FLOOR]))
        assert math.isnan(ratios[0]) and ratios[1] == 0.5
