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
)
from qbattery import models
from qbattery.freefermion import (
    ModeSet,
    fisher_energy_analytic,
    fisher_energy_series,
    observables_on_grid,
    pair_distribution,
    pair_excitations,
)
from qbattery.observables import POPULATION_FLOOR
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

    def test_odd_sizes_take_the_periodic_grid(self):
        # The boundary sign (-1)^N picks periodic fermions at odd N: the
        # (N - 1)/2 pairs k = 2 pi m / N, without the unpaired k = 0 mode.
        for n in (3, 5, 9):
            spec = ModelSpec(family="jw_chain", n_cells=n, lambdas=(1.0,), gammas=(1.0,))
            expected = 2 * np.pi * np.arange(1, n // 2 + 1) / n
            np.testing.assert_allclose(dispersion(spec).k, expected, rtol=1e-15)

    @given(st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=2**31 - 1))
    def test_dispersion_ranges(self, n, seed):
        rng = np.random.default_rng(seed)
        m_max = max(n // 2 - 1, 1)
        spec = ModelSpec(
            family="jw_chain",
            n_cells=n,
            lambdas=tuple(rng.normal(size=m_max)),
            gammas=tuple(rng.normal(size=m_max)),
        )
        modes = dispersion(spec)
        assert modes.n_modes == n // 2
        assert np.all((modes.k > 0) & (modes.k < np.pi))
        assert np.all(modes.omega >= 0)
        assert np.abs(modes.sin_theta).max() <= 1 + 1e-12


class TestPairExcitations:
    def test_initial_instant(self):
        modes = dispersion(chain_spec("xy_nn", 8))
        series = observables_on_grid(modes, np.array([0.0]))
        assert series["energy"][0] == series["power"][0] == series["var_battery"][0] == 0.0

    def test_charger_variance_conserved(self):
        # The dense run's charger variance is the modes' sum of
        # sin^2(theta) omega^2.
        spec = chain_spec("xx_pow", 8)
        traj = run_trajectory(spec, lam_t_max=5.0, steps=4, path="dense")
        assert traj.var_charger == pytest.approx(dispersion(spec).var_charger, rel=1e-12)

    @given(st.floats(min_value=0, max_value=50))
    def test_pair_energy_range(self, t):
        modes = dispersion(chain_spec("xx_nn", 10))
        eps, _ = pair_excitations(modes, t)
        assert np.all(eps >= 0) and np.all(eps <= 2)
        assert observables_on_grid(modes, np.array([t]))["var_battery"][0] >= -1e-12

    def test_grid_evaluation_matches_scalar(self, monkeypatch):
        monkeypatch.setattr(models, "TIME_CHUNK", 16)
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
        times = np.linspace(0.0, 4.0, models.TIME_CHUNK + 9)
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
            keep = p > POPULATION_FLOOR
            expected.append((p_dot[keep] ** 2 / p[keep]).sum())
        dist = pair_distribution(modes, float(times[-1]))
        assert np.abs(dist.p - p).max() <= 1e-12 * np.abs(p).max()
        assert np.abs(dist.p_dot - p_dot).max() <= 1e-12 * np.abs(p_dot).max()
        np.testing.assert_allclose(fisher_energy_series(modes, times), expected, rtol=1e-12)

    def test_unphysical_pairing_rejected_in_every_block(self):
        # |sin theta| > 1 pushes the pair occupation above 1 near omega t = pi/2,
        # which leaves a negative probability; that time sits in the second
        # block (two times long, since a lone last time would join the first).
        modes = ModeSet(k=np.array([0.3]), omega=np.array([1.0]), sin_theta=np.array([1.01]))
        times = np.linspace(0.0, 1.0, models.TIME_CHUNK)
        assert np.all(np.isfinite(fisher_energy_series(modes, times)))
        assert len(models.time_blocks(len(times) + 2)) == 2
        with pytest.raises(ValidationError, match="negative population"):
            fisher_energy_series(modes, np.append(times, [1.2, np.pi / 2]))

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

    @given(st.sampled_from([3, 5, 7, 9]), st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_odd_chain_matches_the_dense_run(self, n, seed):
        # Any couplings of range M <= N - 1 on the periodic grid: every column
        # of the record, to 1e-11 of 1 + 4 var(H_C), the scale that bounds I_E.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, n))
        spec = ModelSpec(
            family="jw_chain", n_cells=n,
            lambdas=tuple(rng.normal(size=m)), gammas=tuple(rng.normal(size=m)),
        )
        dense, chain = (run_trajectory(spec, 10.0, 60, path) for path in ("dense", "auto"))
        assert chain.backend == "free-fermion"
        scale = 1.0 + 4.0 * dense.var_charger
        for name in (
            "initial_energy", "energy", "power", "var_battery", "populations",
            "population_rates", "fisher_energy", "fisher_energy_full", "var_charger",
        ):
            deviation = np.abs(np.subtract(getattr(chain, name), getattr(dense, name))).max()
            assert deviation <= 1e-11 * scale, (name, deviation)

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
