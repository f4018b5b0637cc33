import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbattery import (
    ModelSpec,
    ValidationError,
    chain_spec,
    dispersion,
    fisher_energy_analytic,
    pair_distribution,
)
from qbattery import freefermion
from qbattery.freefermion import (
    PAIR_PROBABILITY_FLOOR,
    TIME_CHUNK,
    ModeSet,
    fisher_energy_series,
    observables_on_grid,
    pair_excitations,
)
from qbattery.trajectory import run_trajectory
from qbattery.verification import chain_oracle_comparison

from oracles import (
    poisson_binomial_enumerated,
    poisson_binomial_leave_one_out,
    poisson_binomial_rate_enumerated,
)


class TestDispersion:
    def test_nearest_neighbor_sample_point(self):
        # k = pi/4 is the first antiperiodic mode at N = 4; substitute into
        # the dispersion: omega = 2 sqrt((1/2 - cos k)^2 + sin^2 k)
        # = sqrt(5 - 2 sqrt 2), sin theta = 2 sin k / omega = sqrt 2 / omega.
        modes = dispersion(chain_spec("xx_nn", 4))
        assert modes.k[0] == pytest.approx(math.pi / 4)
        assert modes.omega[0] == pytest.approx(1.473626, abs=1e-6)
        assert modes.sin_theta[0] == pytest.approx(0.959683, abs=1e-6)

    def test_no_pairing_means_flat_angle(self):
        spec = ModelSpec(family="jw_chain", n_cells=8, lambdas=(0.5, 0.2), gammas=(0.0, 0.0))
        modes = dispersion(spec)
        assert np.abs(modes.sin_theta).max() == 0.0

    def test_grid_sizes(self):
        spec = chain_spec("xx_nn", 10)
        assert dispersion(spec).n_modes == 5

    def test_rejects_odd_sizes(self):
        with pytest.raises(ValidationError):
            dispersion(ModelSpec(family="jw_chain", n_cells=5, lambdas=(1.0,), gammas=(1.0,)))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    def test_dispersion_ranges(self, half_n, seed):
        rng = np.random.default_rng(seed)
        n = 2 * half_n + 2
        m_max = max(n // 2 - 1, 1)
        spec = ModelSpec(
            family="jw_chain",
            n_cells=n,
            lambdas=tuple(rng.normal(size=m_max)),
            gammas=tuple(rng.normal(size=m_max)),
        )
        modes = dispersion(spec)
        assert np.all(modes.omega >= 0)
        assert np.abs(modes.sin_theta).max() <= 1 + 1e-12


class TestPairExcitations:
    def test_initial_instant(self):
        modes = dispersion(chain_spec("xy_nn", 8))
        series = observables_on_grid(modes, np.array([0.0]))
        assert series["energy"][0] == series["power"][0] == series["var_battery"][0] == 0.0

    def test_charger_variance_conserved(self):
        # The dense run's charger variance is the same at every time and is
        # the modes' sum of sin^2(theta) omega^2.
        spec = chain_spec("xx_pow", 8)
        traj = run_trajectory(spec, lam_t_max=5.0, steps=4)
        assert np.ptp(traj.var_charger) == 0.0
        assert traj.var_charger[0] == pytest.approx(dispersion(spec).var_charger, rel=1e-12)

    @given(st.floats(min_value=0, max_value=50))
    def test_pair_energy_range(self, t):
        modes = dispersion(chain_spec("xx_nn", 10))
        eps, _ = pair_excitations(modes, t)
        assert np.all(eps >= 0) and np.all(eps <= 2)
        assert observables_on_grid(modes, np.array([t]))["var_battery"][0] >= -1e-12

    def test_grid_evaluation_matches_scalar(self, monkeypatch):
        monkeypatch.setattr(freefermion, "TIME_CHUNK", 16)
        modes = dispersion(chain_spec("xy_pow", 16))
        times = np.linspace(0, 8, 57)
        series = observables_on_grid(modes, times)
        for i in (0, 13, 56):
            eps, eps_dot = pair_excitations(modes, float(times[i]))
            assert series["energy"][i] == pytest.approx(eps.sum(), abs=1e-12)
            assert series["power"][i] == pytest.approx(eps_dot.sum(), abs=1e-12)
            assert series["var_battery"][i] == pytest.approx((eps * (2.0 - eps)).sum(), abs=1e-12)
            one = observables_on_grid(modes, times[i : i + 1])
            for key, column in series.items():
                assert one[key][0] == pytest.approx(column[i], abs=1e-12)


class TestPairDistribution:
    def test_single_pair(self):
        modes = dispersion(chain_spec("xx_nn", 2))
        t = 0.9
        eps, _ = pair_excitations(modes, t)
        dist = pair_distribution(modes, t)
        assert np.allclose(dist.p, [1 - eps[0] / 2, eps[0] / 2])
        assert np.array_equal(dist.l_values, [0, 2])

    def test_frozen_modes(self):
        spec = ModelSpec(family="jw_chain", n_cells=6, lambdas=(0.4,), gammas=(0.0,))
        dist = pair_distribution(dispersion(spec), 2.2)
        assert dist.p[0] == pytest.approx(1.0)
        assert np.abs(dist.p_dot).max() == 0.0

    def test_matches_enumeration_oracle(self):
        modes = dispersion(chain_spec("xy_pow", 12))  # 6 pairs: enumerable
        for t in (0.35, 1.7):
            eps, eps_dot = pair_excitations(modes, t)
            dist = pair_distribution(modes, t)
            assert np.abs(dist.p - poisson_binomial_enumerated(eps / 2)).max() < 1e-12
            rate = poisson_binomial_rate_enumerated(eps / 2, eps_dot / 2)
            assert np.abs(dist.p_dot - rate).max() < 1e-12

    def test_conservation(self):
        modes = dispersion(chain_spec("xx_nn", 20))
        for t in (0.2, 2.9):
            dist = pair_distribution(modes, t)
            assert abs(dist.p.sum() - 1) < 1e-10
            assert abs(dist.p_dot.sum()) < 1e-9
            assert dist.p.min() >= -1e-12


class TestAnalyticFisher:
    def test_frozen_distribution(self):
        spec = ModelSpec(family="jw_chain", n_cells=6, lambdas=(0.4,), gammas=(0.0,))
        dist = pair_distribution(dispersion(spec), 1.0)
        assert fisher_energy_analytic(dist) == 0.0

    def test_single_pair_closed_form(self):
        modes = dispersion(chain_spec("xx_nn", 2))
        t = 0.7
        eps, eps_dot = pair_excitations(modes, t)
        dist = pair_distribution(modes, t)
        closed = eps_dot[0] ** 2 / (eps[0] * (2 - eps[0]))
        assert fisher_energy_analytic(dist) == pytest.approx(closed, rel=1e-12)

    def test_series_evaluation(self):
        # Longer than one time block: the blocks must agree with single times.
        modes = dispersion(chain_spec("xy_nn", 8))
        times = np.linspace(0.0, 4.0, TIME_CHUNK + 9)
        series = fisher_energy_series(modes, times)
        single = [fisher_energy_analytic(pair_distribution(modes, float(t))) for t in times]
        np.testing.assert_allclose(series, single, rtol=1e-12, atol=0.0)


class TestForwardRecursion:
    @pytest.mark.parametrize("n", [20, 200, 400])
    @pytest.mark.parametrize("variant", ["xx_nn", "xy_nn", "xy_pow"])
    def test_matches_leave_one_out_oracle(self, variant, n):
        modes = dispersion(chain_spec(variant, n))
        times = np.linspace(0.3, 9.7, 5)
        expected = []
        for t in times:
            eps, eps_dot = pair_excitations(modes, float(t))
            p, p_dot = poisson_binomial_leave_one_out(eps / 2, eps_dot / 2)
            keep = p > PAIR_PROBABILITY_FLOOR
            expected.append((p_dot[keep] ** 2 / p[keep]).sum())
        dist = pair_distribution(modes, float(times[-1]))
        assert np.abs(dist.p - p).max() <= 1e-12 * np.abs(p).max()
        assert np.abs(dist.p_dot - p_dot).max() <= 1e-12 * np.abs(p_dot).max()
        np.testing.assert_allclose(fisher_energy_series(modes, times), expected, rtol=1e-12)

    def test_unphysical_pairing_rejected_in_every_block(self):
        # |sin theta| > 1 pushes the pair occupation above 1 near omega t = pi/2,
        # which leaves a negative probability; that time sits in the second block.
        modes = ModeSet(k=np.array([0.3]), omega=np.array([1.0]), sin_theta=np.array([1.01]))
        times = np.linspace(0.0, 1.0, TIME_CHUNK)
        assert np.all(np.isfinite(fisher_energy_series(modes, times)))
        with pytest.raises(ValidationError):
            fisher_energy_series(modes, np.append(times, np.pi / 2))

    def test_large_chain_obeys_dephasing_bound(self):
        # I_E <= 4 var(H_C): the energy-space Fisher information never exceeds
        # the quantum Fisher information of the charging unitary.
        modes = dispersion(chain_spec("xy_nn", 10_000))
        fisher = fisher_energy_series(modes, np.array([1.3, 3.7, 6.1]))
        assert np.all(np.isfinite(fisher)) and np.all(fisher > 0)
        assert np.all(fisher <= 4.0 * modes.var_charger)


class TestDenseEquivalence:
    @pytest.mark.parametrize("variant", ["xx_nn", "xy_nn"])
    def test_all_observables_match_small_chain(self, variant):
        worst = chain_oracle_comparison(6, variant, n_times=30)
        assert max(worst.values()) < 1e-8

    def test_power_law_variant_matches(self):
        worst = chain_oracle_comparison(8, "xy_pow", n_times=20)
        assert max(worst.values()) < 1e-8

    def test_linear_scaling_of_intensive_quantities(self):
        # Stored-energy peak per cell and windowed variance per cell are
        # size-independent at large N.
        from qbattery.observables import time_average
        from qbattery.trajectory import find_peak_time, time_grid

        values = {}
        for n in (1000, 10000):
            spec = chain_spec("xx_nn", n)
            modes = dispersion(spec)
            times = time_grid(spec, 10.0, 800)
            series = observables_on_grid(modes, times)

            def energy_at(t):
                eps, _ = pair_excitations(modes, t)
                return float(eps.sum())

            peak = find_peak_time(times, series["energy"], energy_at)
            stop = max(int(np.searchsorted(times, peak.t_f, side="right")), 2)
            avg_var = time_average(series["var_battery"][:stop], float(times[1] - times[0]))
            values[n] = (peak.energy_max / n, avg_var / n)
        for a, b in zip(values[1000], values[10000]):
            assert abs(a - b) / abs(b) < 0.01
