import math
from dataclasses import replace

import numpy as np
import pytest

from qbattery import (
    CapacityLimitError,
    HermitianOperator,
    ModelSpec,
    ValidationError,
    chain_spec,
    eigendecompose,
    find_tf,
    group_levels,
    models,
    run_trajectory,
)
from qbattery import trajectory
from qbattery.observables import battery_entanglement_entropy, populations_and_rates
from qbattery.config import load_scenario
from qbattery.output import write_trajectory_csv
from qbattery.trajectory import DEFAULT_LAM_T_MAX, find_peak_time, time_grid
from qbattery.verification import certify_trajectory

from oracles import permutation_run_path, run_trajectory_doubling, stored_energy_by_permutation


class TestTimeGrid:
    def test_units_of_inverse_coupling(self):
        spec = ModelSpec(family="lmg", n_cells=4, lam=5.0)
        times = time_grid(spec, 6.0, 100)
        assert times[0] == 0.0 and times[-1] == pytest.approx(6.0 / 5.0)

    def test_family_defaults(self):
        for family, kw in (("parallel", {}), ("jw_chain", {"lambdas": (1.0,), "gammas": (1.0,)})):
            spec = ModelSpec(family=family, n_cells=4, **kw)
            times = time_grid(spec, None, 10)
            assert times[-1] == pytest.approx(DEFAULT_LAM_T_MAX[family] / spec.lam)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            time_grid(ModelSpec(family="parallel", n_cells=2), 1.0, 1)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_needs_positive_charging_frequency(self, lam):
        # The spec itself admits lam = 0 (a decoupled charger); a grid in
        # units of 1/lam does not.
        spec = ModelSpec(family="parallel", n_cells=2, lam=lam)
        with pytest.raises(ValidationError, match="lam must be positive"):
            time_grid(spec, 1.0, 10)


class TestRunTrajectory:
    def test_norm_conservation(self):
        traj = run_trajectory(chain_spec("xx_pow", 8), steps=250)
        norms = np.abs(traj.states**2).sum(axis=0)
        assert np.abs(norms - 1).max() < 1e-10

    def test_population_conservation(self):
        traj = run_trajectory(ModelSpec(family="lmg", n_cells=16, lam=5.0), steps=300)
        assert np.abs(traj.populations.sum(axis=0) - 1).max() < 1e-9
        assert np.abs(traj.population_rates.sum(axis=0)).max() < 1e-8

    def test_global_occupies_only_extremes(self):
        traj = run_trajectory(ModelSpec(family="global", n_cells=6), steps=300)
        assert traj.populations[1:-1, :].max() < 1e-10

    def test_collective_parity_ladder(self):
        # The collective charger couples m -> m +- 2 only: starting parity is
        # frozen, so every second level stays empty.
        traj = run_trajectory(ModelSpec(family="lmg", n_cells=20, lam=5.0), steps=300)
        assert traj.populations[1::2, :].max() < 1e-10

    def test_weak_cavity_variance_stays_extensive(self):
        n = 8
        traj = run_trajectory(ModelSpec(family="dicke", n_cells=n, lam=0.01), steps=500)
        assert traj.var_battery.max() < 2 * n  # independent-cell-like spread

    def test_record_accessors(self):
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=3), steps=50)
        psi = traj.state_at(20)
        record = populations_and_rates(psi, traj.battery, traj.charger, float(traj.times[20]))
        assert record.t == float(traj.times[20])
        assert np.abs(record.p - traj.populations[:, 20]).max() < 1e-12
        assert np.abs(record.p_dot - traj.population_rates[:, 20]).max() < 1e-12
        assert traj.populations[:, 20].sum() == pytest.approx(1.0, abs=1e-9)

    def test_exact_offgrid_energy(self):
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=4), steps=60)
        t = 0.3137
        assert traj.stored_energy_at(t) == pytest.approx(4 * math.sin(t) ** 2, abs=1e-10)

    def test_charger_amplitudes_taken_once_per_run(self, monkeypatch):
        calls = []
        original = HermitianOperator.to_eigenbasis
        monkeypatch.setattr(
            HermitianOperator, "to_eigenbasis", lambda op, amp: calls.append(op) or original(op, amp)
        )
        traj = run_trajectory(ModelSpec(family="lmg", n_cells=6, lam=5.0), steps=200)
        find_tf(traj)
        assert len(calls) == 1
        charger = traj.charger
        assert np.array_equal(
            traj.charger_amplitudes, charger.eigenvectors.conj().T @ traj.psi0.amplitudes
        )


RUN_PATH_SPECS = [
    ModelSpec(family="parallel", n_cells=5, lam=0.9),
    ModelSpec(family="global", n_cells=5),
    ModelSpec(family="hybrid", n_cells=6, q=2, r=3),
    chain_spec("xy_pow", 8),
    ModelSpec(family="lmg", n_cells=12, lam=5.0, gamma=0.3),
    ModelSpec(family="dicke", n_cells=4, lam=0.05),
]


@pytest.mark.parametrize("spec", RUN_PATH_SPECS, ids=lambda s: s.family)
def test_run_path_builds_no_battery(spec, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the run path built the dense battery")

    monkeypatch.setattr(trajectory, "build_battery_for", refuse)
    traj = run_trajectory(spec, steps=150)
    assert certify_trajectory(traj).ok
    assert find_tf(traj).energy_max >= traj.energy.max()
    with pytest.raises(AssertionError, match="dense battery"):
        traj.battery


@pytest.mark.parametrize("spec", RUN_PATH_SPECS, ids=lambda s: s.family)
def test_run_path_matches_permutation_products(spec):
    traj = run_trajectory(spec, steps=150)
    populations, rates, var_charger = permutation_run_path(traj)
    assert np.array_equal(traj.populations, populations)
    assert np.array_equal(traj.population_rates, rates)
    assert np.abs(traj.var_charger - var_charger).max() <= 1e-10 * np.abs(var_charger).max()
    assert np.array_equal(traj.fisher_state, 4.0 * traj.var_charger)
    for t in (0.0, 0.3137 * traj.times[-1], 0.771 * traj.times[-1]):
        assert traj.stored_energy_at(t) == stored_energy_by_permutation(traj, t)


LADDER_SPECS = [
    ModelSpec(family="parallel", n_cells=5),
    ModelSpec(family="hybrid", n_cells=6, q=2, r=3),
    chain_spec("xx_nn", 6),
    ModelSpec(family="lmg", n_cells=7, lam=5.0),
    ModelSpec(family="lmg", n_cells=8, lam=5.0, gamma=0.3),
    ModelSpec(family="dicke", n_cells=3, lam=0.3),
    ModelSpec(family="dicke", n_cells=3, lam=0.3, n_max=7),
]


@pytest.mark.parametrize(
    "spec", LADDER_SPECS, ids=lambda s: f"{s.family}-N{s.n_cells}-nmax{s.n_max}"
)
def test_ladder_levels_match_battery_spectrum(spec):
    traj = run_trajectory(spec, steps=20)
    battery = eigendecompose(traj.battery)
    levels = group_levels(battery.eigenvalues)
    assert np.array_equal(traj.levels.energies, levels.energies)
    assert np.array_equal(traj.levels.starts, levels.starts)
    # A diagonal operator's k-th eigenvector is the unit vector at order[k].
    assert np.array_equal(traj.battery_order, battery.order)
    stable = np.argsort(np.diagonal(battery.matrix).real, kind="stable")
    assert np.array_equal(traj.battery_order, stable)


@pytest.mark.parametrize(
    "spec,builder",
    [
        (ModelSpec(family="lmg", n_cells=7, lam=5.0), "build_lmg"),
        (ModelSpec(family="dicke", n_cells=3, lam=0.3, n_max=7), "build_dicke"),
        (ModelSpec(family="dicke", n_cells=3, lam=0.3), "build_dicke"),
    ],
    ids=["lmg", "dicke-explicit", "dicke-auto"],
)
def test_charger_built_once_per_cutoff(spec, builder, monkeypatch):
    calls = []
    original = getattr(models, builder)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(models, builder, counting)
    traj = run_trajectory(spec, steps=50)
    if spec.family == "lmg" or spec.n_max is not None:
        assert len(calls) == 1
        return
    # The automatic cutoff builds one charger per cutoff tried: 2N+8, then doublings.
    cutoffs = [args[0].n_max for args in calls]
    assert cutoffs == [14 * 2**k for k in range(len(cutoffs))]
    assert len(cutoffs) > 1 and cutoffs[-1] == traj.spec.n_max


class TestFockTruncation:
    def test_auto_cutoff_converges(self):
        traj = run_trajectory(ModelSpec(family="dicke", n_cells=4, lam=0.5), steps=200)
        assert traj.spec.n_max >= 2 * 4 + 8
        assert traj.fock_edge_population < 1e-8

    def test_explicit_cutoff_respected(self):
        traj = run_trajectory(ModelSpec(family="dicke", n_cells=3, lam=0.2, n_max=9), steps=100)
        assert traj.spec.n_max == 9
        assert traj.states.shape[0] == 4 * 10

    @pytest.mark.parametrize(
        "make_spec,steps,n_max_used",
        [
            (lambda: load_scenario("configs/dicke_n8_strong.json").spec, 2000, 48),
            (lambda: ModelSpec(family="dicke", n_cells=2, lam=1.0), 200, 48),  # doubles twice
        ],
        ids=["dicke_n8_strong", "doubles-twice"],
    )
    def test_screen_picks_the_doubling_cutoff(self, tmp_path, make_spec, steps, n_max_used):
        spec = make_spec()
        traj = run_trajectory(spec, steps=steps)
        oracle = run_trajectory_doubling(spec, steps=steps)
        assert traj.spec.n_max == oracle.spec.n_max == n_max_used
        assert traj.fock_edge_population == oracle.fock_edge_population
        assert traj.states.tobytes() == oracle.states.tobytes()
        write_trajectory_csv(traj, tmp_path / "screened.csv", include_populations=True)
        write_trajectory_csv(oracle, tmp_path / "oracle.csv", include_populations=True)
        assert (tmp_path / "screened.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize(
        "make_spec,steps",
        [
            (lambda: load_scenario("configs/dicke_n8_strong.json").spec, 2000),  # 24 -> 48
            (lambda: ModelSpec(family="dicke", n_cells=2, lam=1.0), 200),  # 12 -> 24 -> 48
        ],
        ids=["dicke_n8_strong", "doubles-twice"],
    )
    def test_run_spec_carries_the_cutoff(self, make_spec, steps):
        spec = make_spec()
        traj = run_trajectory(spec, steps=steps)
        assert spec.n_max is None and traj.spec == replace(spec, n_max=48)
        assert traj.spec.n_max == traj.charger.basis.n_max
        assert traj.battery.basis == traj.charger.basis == traj.psi0.basis

    def test_screen_that_misses_the_leak_still_doubles(self, monkeypatch):
        # A sub-grid of t = 0 alone sees no leak, so every cutoff passes the
        # screen; the full-grid check must still reject 12 and 24.
        spec = ModelSpec(family="dicke", n_cells=2, lam=1.0)
        monkeypatch.setattr(trajectory, "_screen_times", lambda times: times[:1])
        built = []
        original = models.build_dicke
        monkeypatch.setattr(
            models, "build_dicke", lambda *args: built.append(args[0].n_max) or original(*args)
        )
        traj = run_trajectory(spec, steps=200)
        assert built == [12, 24, 48]
        assert traj.spec.n_max == 48 and traj.fock_edge_population < trajectory.FOCK_LEAK_TOL
        oracle = run_trajectory_doubling(spec, steps=200)
        assert traj.states.tobytes() == oracle.states.tobytes()

    def test_non_convergence_names_the_cutoffs_tried(self, monkeypatch):
        monkeypatch.setattr(trajectory, "FOCK_LEAK_TOL", 0.0)  # no cutoff can pass
        built = []
        original = models.build_dicke
        monkeypatch.setattr(
            models, "build_dicke", lambda *args: built.append(args[0].n_max) or original(*args)
        )
        with pytest.raises(ValidationError, match=r"\(tried n_max = 12, 24, 48, 96, 192\)$"):
            run_trajectory(ModelSpec(family="dicke", n_cells=2, lam=0.3), steps=40)
        assert built == [12, 24, 48, 96, 192]

    def test_doubling_over_the_dense_limit_is_refused_before_it_is_built(self, monkeypatch):
        # At N = 2 even the 16th doubling fits 4 GiB; a limit that admits
        # n_max = 48 over 200 steps refuses the doubling to 96.
        monkeypatch.setattr(trajectory, "FOCK_LEAK_TOL", 0.0)  # no cutoff can pass
        spec = ModelSpec(family="dicke", n_cells=2, lam=0.3)
        limit = models.check_dense_size(replace(spec, n_max=48), 200)
        monkeypatch.setattr(models, "DENSE_BYTES_MAX", limit)
        built = []
        original = models.build_dicke
        monkeypatch.setattr(
            models, "build_dicke", lambda *args: built.append(args[0].n_max) or original(*args)
        )
        refused = r"^dense run of dicke N = 2 \(dim 291, n_max 96, 200 steps\)"
        with pytest.raises(CapacityLimitError, match=refused):
            run_trajectory(spec, steps=200)
        assert built == [12, 24, 48]

    def test_screen_is_a_subset_ending_on_the_last_time(self):
        times = time_grid(ModelSpec(family="dicke", n_cells=2), steps=2000)
        screen = trajectory._screen_times(times)
        assert screen[-1] == times[-1]
        assert np.isin(screen, times).all() and len(screen) == 200

    def test_entropy_series_shape(self):
        traj = run_trajectory(ModelSpec(family="dicke", n_cells=2, lam=0.3), steps=40)
        series = np.array([battery_entanglement_entropy(traj.state_at(i)) for i in range(40)])
        assert series.shape == (40,)
        assert series[0] == pytest.approx(0.0, abs=1e-9)
        assert series.min() >= -1e-12 and series.max() <= 1 + 1e-9


class TestPeakSearch:
    def test_quarter_period_peak(self):
        for family, kw in (("parallel", {}), ("global", {}), ("hybrid", {"q": 3, "r": 2})):
            spec = ModelSpec(family=family, n_cells=6, lam=1.0, **kw)
            traj = run_trajectory(spec, steps=400)
            peak = find_tf(traj)
            assert not peak.at_boundary
            assert peak.t_f == pytest.approx(math.pi / 2, abs=5e-6)
            assert peak.energy_max == pytest.approx(6.0, abs=1e-9)

    def test_never_below_grid_maximum(self):
        traj = run_trajectory(chain_spec("xy_nn", 8), steps=300)
        peak = find_tf(traj)
        assert peak.energy_max >= traj.energy.max() - 1e-15

    def test_boundary_flagged(self):
        # A window ending before the first peak puts the argmax on the edge.
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=4), lam_t_max=1.0, steps=100)
        peak = find_tf(traj)
        assert peak.at_boundary and peak.t_f == pytest.approx(1.0)

    def test_flat_series(self):
        spec = ModelSpec(family="jw_chain", n_cells=4, lambdas=(0.5,), gammas=(0.0,))
        traj = run_trajectory(spec, steps=50)
        peak = find_tf(traj)
        assert peak.energy_max == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            find_peak_time(np.array([0.0, 1.0]), np.array([0.0, 1.0]), lambda t: t)


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            traj = run_trajectory(ModelSpec(family="dicke", n_cells=3, lam=0.5), steps=120)
            path = tmp_path / f"run_{tag}.csv"
            write_trajectory_csv(traj, path, include_populations=True)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
