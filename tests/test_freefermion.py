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
    GROUP_MODES,
    _fold_groups,
    _group_factors,
    ModeSet,
    energy_at,
    fisher_energy_analytic,
    fisher_energy_series,
    observables_on_grid,
    pair_distribution,
    pair_distributions,
    pair_excitations,
    power_at,
)
from qbattery.errors import CapacityLimitError
from qbattery.freefermion import check_chain_size, unit_count
from qbattery.linalg import PHASE_STRIDE
from qbattery.observables import POPULATION_FLOOR, fisher_sum
from qbattery.output import trajectory_rows
from qbattery.sweeps import quantities_for
from qbattery.trajectory import run_trajectory
from qbattery.verification import chain_oracle_comparison

from oracles import (
    poisson_binomial_enumerated,
    poisson_binomial_forward,
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


    @pytest.mark.parametrize("tail", [1, 7])
    def test_blocks_have_the_bits_of_the_whole_grid(self, tail, monkeypatch):
        modes = dispersion(chain_spec("xy_pow", 30))
        times = np.linspace(0.0, 12.0, 2 * models.TIME_CHUNK + tail)
        blocked = observables_on_grid(modes, times)
        monkeypatch.setattr(models, "TIME_CHUNK", len(times))
        whole = observables_on_grid(modes, times)
        for key, column in blocked.items():
            assert np.array_equal(column, whole[key]), key
        assert blocked["energy"][0] == blocked["power"][0] == blocked["var_battery"][0] == 0.0

    def test_off_grid_values_are_the_grid_at_table_rows(self):
        modes = dispersion(chain_spec("xx_pow", 12))
        times = np.linspace(0.0, 9.0, 200)
        series = observables_on_grid(modes, times)
        for i in (16, 48, 160, 5, 101):
            eps, eps_dot = pair_excitations(modes, float(times[i]))
            energy, power = energy_at(modes, times[i]), power_at(modes, times[i])
            assert energy == pytest.approx(eps.sum(), abs=1e-13)
            assert power == pytest.approx(eps_dot.sum(), abs=1e-13)
            if i % PHASE_STRIDE == 0:
                assert (energy, power) == (series["energy"][i], series["power"][i])

    def test_a_grid_must_be_uniform(self):
        modes = dispersion(chain_spec("xy_nn", 8))
        with pytest.raises(ValidationError, match="not consecutive points of a uniform grid"):
            observables_on_grid(modes, np.array([0.0, 0.5, 1.5, 2.0]))


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


G = GROUP_MODES


def _occupations(modes, times):
    eps, eps_dot = pair_excitations(modes, np.asarray(times)[:, None])
    return eps.T / 2, eps_dot.T / 2


def _blocked(q, q_dot):
    # The unchecked kernel of pair_distributions on (modes x times) occupations.
    return _fold_groups(*_group_factors(q, q_dot, 1.0 - q), len(q) + 1)


def _relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestBlockedRecursion:
    @pytest.mark.parametrize("n", [2, 9, 40, 64, 65])
    def test_one_group_is_the_plain_recursion_bit_for_bit(self, n):
        # N <= 2G + 1 has at most G pairs: the one group's factor is the result.
        modes = dispersion(chain_spec("xy_pow", n))
        times = np.linspace(0.0, 9.0, 37)
        q, q_dot = _occupations(modes, times)
        p, p_dot = poisson_binomial_forward(q, q_dot)
        got_p, got_p_dot = pair_distributions(modes, times)
        assert np.array_equal(got_p, p) and np.array_equal(got_p_dot, p_dot)

    @pytest.mark.parametrize("n_modes", [G + 1, 2 * G, 2 * G + 1, 3 * G + 5])
    @pytest.mark.parametrize("odd", [0, 1])
    def test_groups_match_leave_one_out_oracle(self, n_modes, odd):
        modes = dispersion(chain_spec("xy_nn", 2 * n_modes + odd))
        assert modes.n_modes == n_modes
        times = np.array([0.4, 1.9, 5.3])
        p, p_dot = pair_distributions(modes, times)
        for j, t in enumerate(times):
            eps, eps_dot = pair_excitations(modes, float(t))
            want_p, want_p_dot = poisson_binomial_leave_one_out(eps / 2, eps_dot / 2)
            assert _relative(p[:, j], want_p) <= 1e-12
            assert _relative(p_dot[:, j], want_p_dot) <= 1e-12
            keep = want_p > POPULATION_FLOOR
            want_fisher = (want_p_dot[keep] ** 2 / want_p[keep]).sum()
            assert fisher_sum(p[:, j], p_dot[:, j], POPULATION_FLOOR) == pytest.approx(
                want_fisher, rel=1e-12
            )

    @pytest.mark.parametrize("n, n_times", [(2000, 12), (10_000, 4)])
    def test_large_chains_match_the_plain_recursion(self, n, n_times):
        # Floored and unfloored Fisher sums, and every population above the
        # floor, to 1e-12 relative.
        modes = dispersion(chain_spec("xy_nn", n))
        times = np.linspace(0.7, 11.0, n_times)
        p, p_dot = poisson_binomial_forward(*_occupations(modes, times))
        got_p, got_p_dot = pair_distributions(modes, times)
        for floor in (POPULATION_FLOOR, 0.0):
            np.testing.assert_allclose(
                fisher_sum(got_p, got_p_dot, floor), fisher_sum(p, p_dot, floor), rtol=1e-12
            )
        keep = p > POPULATION_FLOOR
        np.testing.assert_allclose(got_p[keep], p[keep], rtol=1e-12)

    @given(
        st.integers(min_value=0, max_value=4 * G + 3),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_occupations_match_the_plain_recursion(self, n_modes, n_times, seed):
        # Any q in [0, 1], with exact 0s and 1s, and any signed rates.
        rng = np.random.default_rng(seed)
        q = rng.choice([0.0, 1.0, 0.5], size=(n_modes, n_times), p=[0.1, 0.1, 0.8])
        q[q == 0.5] = rng.random(int((q == 0.5).sum()))
        q_dot = rng.normal(size=(n_modes, n_times)) * rng.choice([0.0, 1.0, 1e3], size=n_modes)[:, None]
        p, p_dot = poisson_binomial_forward(q, q_dot)
        got_p, got_p_dot = _blocked(q, q_dot)
        if n_modes <= G:
            assert np.array_equal(got_p, p) and np.array_equal(got_p_dot, p_dot)
        assert got_p.shape == got_p_dot.shape == (n_modes + 1, n_times)
        assert np.abs(got_p - p).max() <= 1e-12 * np.abs(p).max()
        assert np.abs(got_p_dot - p_dot).max() <= 1e-12 * np.abs(p_dot).max()

    def test_no_modes_leave_the_vacuum(self):
        p, p_dot = _blocked(np.empty((0, 3)), np.empty((0, 3)))
        assert np.array_equal(p, np.ones((1, 3))) and np.array_equal(p_dot, np.zeros((1, 3)))


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

            def power_at(t):
                _, eps_dot = pair_excitations(modes, t)
                return float(eps_dot.sum())

            peak = find_peak_time(times, series["energy"], series["power"], energy_at, power_at)
            stop = max(int(np.searchsorted(times, peak.t_f, side="right")), 2)
            avg_var = time_average(series["var_battery"][:stop], float(times[1] - times[0]))
            values[n] = (peak.energy_max / n, avg_var / n)
        for a, b in zip(values[1000], values[10000]):
            assert abs(a - b) / abs(b) < 0.01


def unit_splits(n, lam):
    """Every q x r = N split as its family: parallel at r = 1, global at q = 1."""
    for q in (q for q in range(1, n + 1) if n % q == 0):
        if n // q == 1:
            yield ModelSpec(family="parallel", n_cells=n, lam=lam)
        elif q == 1:
            yield ModelSpec(family="global", n_cells=n, lam=lam)
        else:
            yield ModelSpec(family="hybrid", n_cells=n, lam=lam, q=q, r=n // q)


class TestParadigmaticUnits:
    """The parallel, global and hybrid chargers as q units of r cells on the
    free-fermion kernel, against the dense run and the closed forms
    E = q r sin^2(lam t) and I_E = 4 q lam^2."""

    @pytest.mark.parametrize(
        "spec,units,step",
        [
            (ModelSpec(family="parallel", n_cells=5, lam=0.7), 5, 1),
            (ModelSpec(family="global", n_cells=6, lam=3.0), 1, 6),
            (ModelSpec(family="hybrid", n_cells=12, q=4, r=3), 4, 3),
            (chain_spec("xy_nn", 9), 4, 2),
        ],
        ids=["parallel", "global", "hybrid", "chain"],
    )
    def test_units_and_level_steps(self, spec, units, step):
        modes = dispersion(spec)
        assert unit_count(spec) == modes.n_modes == units and modes.step == step
        if spec.family != "jw_chain":
            assert np.array_equal(modes.omega, np.full(units, spec.lam))
            assert np.array_equal(modes.sin_theta, np.ones(units))
            assert modes.var_charger == units * spec.lam**2

    def test_other_families_have_no_units(self):
        for spec in (ModelSpec(family="lmg", n_cells=4), ModelSpec(family="dicke", n_cells=2)):
            with pytest.raises(ValidationError, match="dispersion needs a jw_chain"):
                dispersion(spec)
            with pytest.raises(ValidationError, match="not a run of independent units"):
                unit_count(spec)

    @pytest.mark.parametrize("lam", [0.7, 1.0, 3.0])
    def test_every_split_matches_the_dense_run(self, lam):
        # The dense run is on psi0's sector of 2^q states, lumped into
        # q + 1 groups past q = 8.
        for n in range(1, 13):
            for spec in unit_splits(n, lam):
                units = run_trajectory(spec, steps=200)
                lumped = unit_count(spec) > 8
                dense = run_trajectory(spec, steps=200, path="dense", lumped=lumped)
                assert (units.backend, dense.backend) == ("closed-form", "dense")
                for name in ("populations", "population_rates", "energy", "power", "var_battery"):
                    deviation = np.abs(getattr(units, name) - getattr(dense, name)).max()
                    assert deviation <= 1e-13, (spec, name, deviation)
                assert units.initial_energy == -n / 2
                assert abs(dense.initial_energy - units.initial_energy) <= 1e-13
                undefined, dense_undefined = (
                    np.isnan(trajectory_rows(traj, True)[1]) for traj in (units, dense)
                )
                assert np.array_equal(undefined[1:], dense_undefined[1:]), spec
                # At t = 0 the dense var(H_B) may be rounding noise (up to
                # 4.3e-14 here) that passes the ratios' absolute floor where
                # the exact 0 / 0 is undefined: a ratio of 0.0, not empty.
                assert (undefined[0] >= dense_undefined[0]).all(), spec
                if not np.array_equal(undefined[0], dense_undefined[0]):
                    assert 0.0 < dense.var_battery[0] <= 1e-13 and units.var_battery[0] == 0.0

    @pytest.mark.parametrize("lam", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize(
        "family,n,q,r", [("parallel", 8, None, None), ("global", 8, None, None), ("hybrid", 12, 4, 3),
                         ("parallel", 1000, None, None)],
        ids=["parallel", "global", "hybrid", "parallel-n1000"],
    )
    def test_fisher_information_is_exact_through_the_full_charge(self, family, n, q, r, lam):
        # Grid point 100 is lam t = pi/2 to rounding: there sin^2(lam t)
        # rounds to 1, so a complement taken as 1 - sin^2 is 0 and drops
        # the level below the full charge, which carries all of I_E.  The
        # off-grid points are 1e-9 and 1e-6 from pi/2.
        spec = ModelSpec(family=family, n_cells=n, lam=lam, q=q, r=r)
        modes = dispersion(spec)
        exact = 4 * modes.n_modes * lam**2
        grid = run_trajectory(spec, math.pi, 201)
        assert abs(lam * grid.times[100] - math.pi / 2) <= 1e-15
        assert np.abs(grid.fisher_energy_full[1:] / exact - 1.0).max() <= 1e-12
        for offset in (-1e-9, 1e-9, 1e-6):
            p, p_dot = pair_distributions(modes, np.array([(math.pi / 2 + offset) / lam]))
            assert abs(fisher_sum(p, p_dot, 0.0)[0] / exact - 1.0) <= 1e-12, offset
        energy = grid.energy - n * np.sin(lam * grid.times) ** 2
        assert np.abs(energy).max() <= 1e-13 * n

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec(family="parallel", n_cells=6, lam=0.7), ModelSpec(family="global", n_cells=5),
         ModelSpec(family="hybrid", n_cells=8, lam=3.0, q=2, r=4)],
        ids=["parallel", "global", "hybrid"],
    )
    def test_sweep_quantities_match_the_dense_point(self, spec):
        units, dense = (quantities_for(spec, steps=400, path=path) for path in ("auto", "dense"))
        assert units.keys() == dense.keys()
        for key, value in dense.items():
            assert units[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key

    def test_size_rule_counts_the_units(self):
        # q + 1 levels size the recursion: global's single unit is sized
        # below parallel's N units at the same N.
        parallel, global_ = (ModelSpec(family=f, n_cells=1000) for f in ("parallel", "global"))
        assert check_chain_size(global_, 1000) < check_chain_size(parallel, 1000)
        with pytest.raises(CapacityLimitError, match="^closed-form run of parallel N = 8 "):
            check_chain_size(ModelSpec(family="parallel", n_cells=8), 10**12)
        with pytest.raises(CapacityLimitError, match="^closed-form sweep point of global N = 8 "):
            check_chain_size(ModelSpec(family="global", n_cells=8), 10**14, record=False)

    def test_a_run_far_past_the_dense_limit_certifies(self):
        from qbattery.verification import certify_trajectory

        spec = ModelSpec(family="parallel", n_cells=600)
        traj = run_trajectory(spec, steps=300)
        assert traj.backend == "closed-form" and traj.sector is None
        assert certify_trajectory(traj).ok
        with pytest.raises(ValidationError, match="holds no states; run parallel with path='dense'"):
            traj.state_at(3)
