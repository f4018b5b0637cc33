import gc
import math
import tracemalloc
from dataclasses import fields, replace

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
from qbattery.cli import simulation_summary
from qbattery.linalg import SparseHermitian
from qbattery.observables import (
    POPULATION_FLOOR, battery_entanglement_entropy, fisher_sum, populations_and_rates,
)
from qbattery.config import load_scenario
from qbattery.output import trajectory_rows, write_trajectory_csv
from qbattery.trajectory import DEFAULT_LAM_T_MAX, find_peak_time, time_grid
from qbattery.verification import certify_trajectory

from oracles import (
    permutation_run_path,
    probability_flux,
    run_trajectory_doubling,
    squared_moduli,
    stored_energy_by_permutation,
    whole_grid_states,
)


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
        traj = run_trajectory(chain_spec("xx_pow", 8), steps=250, path="dense")
        norms = (np.abs(whole_grid_states(traj)) ** 2).sum(axis=0)
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
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=3), steps=50, path="dense")
        psi = traj.state_at(20)
        battery = models.build_battery_for(traj.spec)
        charger = models.build_charger_for(traj.spec).dense()
        record = populations_and_rates(psi, battery, charger, float(traj.times[20]))
        assert record.t == float(traj.times[20])
        assert np.abs(record.p - traj.populations[:, 20]).max() < 1e-12
        assert np.abs(record.p_dot - traj.population_rates[:, 20]).max() < 1e-12
        assert traj.populations[:, 20].sum() == pytest.approx(1.0, abs=1e-9)

    def test_exact_offgrid_energy(self):
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=4), steps=60)
        t = 0.3137
        assert traj.energy_at(t) == pytest.approx(4 * math.sin(t) ** 2, abs=1e-10)

    def test_charger_amplitudes_taken_once_per_run(self, monkeypatch):
        calls = []
        original = HermitianOperator.to_eigenbasis
        monkeypatch.setattr(
            HermitianOperator, "to_eigenbasis", lambda op, amp: calls.append(op) or original(op, amp)
        )
        steps = 2 * models.TIME_CHUNK + 1  # the last time joins the second block
        traj = run_trajectory(ModelSpec(family="lmg", n_cells=6, lam=5.0), steps=steps)
        find_tf(traj)
        assert len(calls) == 1
        # The run propagates V^dag psi0 on the charger eigenvectors, block by
        # block, and state_at gives back its states.
        states = np.column_stack([traj.state_at(i).amplitudes for i in range(steps)])
        assert np.array_equal(states, whole_grid_states(traj))
        assert np.array_equal(traj.state_at(-1).amplitudes, states[:, -1])
        with pytest.raises(IndexError):
            traj.state_at(steps)


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

    monkeypatch.setattr(models, "build_battery_for", refuse)
    monkeypatch.setattr(trajectory, "build_battery_for", refuse)
    traj = run_trajectory(spec, steps=150, path="dense")
    assert certify_trajectory(traj).ok
    assert find_tf(traj).energy_max >= traj.energy.max()
    assert not hasattr(traj, "battery")  # the oracles build it from traj.spec


@pytest.mark.parametrize("spec", RUN_PATH_SPECS, ids=lambda s: s.family)
def test_run_path_matches_permutation_products(spec):
    traj = run_trajectory(spec, steps=150, path="dense")
    populations, rates, var_charger = permutation_run_path(traj)
    assert np.array_equal(traj.populations, populations)
    assert np.array_equal(traj.population_rates, rates)
    assert np.abs(traj.var_charger - var_charger).max() <= 1e-10 * np.abs(var_charger).max()
    for t in (0.0, 0.3137 * traj.times[-1], 0.771 * traj.times[-1]):
        assert traj.energy_at(t) == stored_energy_by_permutation(traj, t)


@pytest.mark.parametrize("tail", [7, 1])
def test_level_sums_in_time_blocks_match_the_whole_grid(tail):
    # Three blocks, the last one partial (at tail 1, the last time joins the
    # second block): the populations equal the sums over whole-grid states
    # exactly, and the rates, whose H_C products are blocked, to rounding.
    steps = 2 * models.TIME_CHUNK + tail
    traj = run_trajectory(chain_spec("xy_pow", 9), steps=steps, path="dense")
    battery, states = eigendecompose(models.build_battery_for(traj.spec)), whole_grid_states(traj)
    order, starts = battery.order, group_levels(battery.eigenvalues).starts[:-1]
    overlaps, driven = states[order], (models.build_charger_for(traj.spec).matrix @ states)[order]
    populations = np.add.reduceat(squared_moduli(overlaps), starts, axis=0)
    rates = 2.0 * np.add.reduceat(probability_flux(overlaps, driven), starts, axis=0)
    assert np.array_equal(traj.populations, populations)
    assert np.abs(traj.population_rates - rates).max() <= 1e-14 * np.abs(rates).max()


def test_both_fisher_series_are_the_fisher_sums_at_their_floors():
    # The record forms pdot^2 / p once for both series; each must keep the
    # bits of observables.fisher_sum at its floor, over levels exactly at 0,
    # at the floor, just above it, subnormal, negative by rounding and near
    # 1, across three blocks of times.
    rng = np.random.default_rng(12)
    steps, levels = 2 * models.TIME_CHUNK + 9, 7
    special = np.array([0.0, -0.0, POPULATION_FLOOR, np.nextafter(POPULATION_FLOOR, 1.0), 5e-324,
                        1e-310, -1e-17, 1.0 - 2**-52, 1.0])
    p = np.where(rng.random((levels, steps)) < 0.5, rng.choice(special, (levels, steps)),
                 rng.random((levels, steps)))
    # Rates scale as sqrt(p), as a level's amplitude does.
    p_dot = np.where(rng.random((levels, steps)) < 0.2, 0.0,
                     rng.normal(size=(levels, steps)) * np.sqrt(np.abs(p)))
    times = np.linspace(0.0, 1.0, steps)
    zeros = np.zeros(steps)
    traj = trajectory.Trajectory(
        ModelSpec(family="parallel", n_cells=levels - 1), times, 0.0, zeros, zeros, zeros, 0.0,
        None, None, (p, p_dot),
    )
    assert traj.fisher_energy.tobytes() == fisher_sum(p, p_dot, POPULATION_FLOOR).tobytes()
    assert traj.fisher_energy_full.tobytes() == fisher_sum(p, p_dot, 0.0).tobytes()


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
    # The run's levels are the register's, k - N/2 with the basis states of k
    # excited cells, in the stable order of their excitation counts.
    traj = run_trajectory(spec, steps=20, path="dense")
    battery = eigendecompose(models.build_battery_for(traj.spec))
    levels = group_levels(battery.eigenvalues)
    n = spec.n_cells
    assert np.array_equal(models.register_spectrum(n)[0], levels.energies)
    assert len(traj.populations) == len(levels.energies)
    counts = models.excitation_counts(models.model_basis(traj.spec))
    assert np.array_equal(np.bincount(counts, minlength=n + 1), levels.multiplicities)
    # A diagonal operator's k-th eigenvector is the unit vector at order[k].
    order = np.argsort(counts, kind="stable")
    assert np.array_equal(order, battery.order)
    stable = np.argsort(np.diagonal(battery.matrix).real, kind="stable")
    assert np.array_equal(order, stable)


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


def spy_propagated_columns(monkeypatch) -> dict[int, int]:
    """Grid times propagated by the run path, per Fock cutoff, filled in as
    the run propagates."""
    columns: dict[int, int] = {}
    original = trajectory.evolve_batch

    def counting(charger, amplitudes, phases):
        n_max = charger.basis.n_max
        columns[n_max] = columns.get(n_max, 0) + phases.shape[1]
        return original(charger, amplitudes, phases)

    monkeypatch.setattr(trajectory, "evolve_batch", counting)
    return columns


def assert_matches_full_doubling(traj, spec, steps, tmp_path):
    """The automatic cutoff's run equals the reference that runs every
    cutoff in full: cutoff, leak, level series and CSV bytes."""
    oracle = run_trajectory_doubling(spec, steps=steps)
    assert traj.spec == oracle.spec
    assert traj.fock_edge_population == oracle.fock_edge_population
    assert np.array_equal(traj.populations, oracle.populations)
    assert np.array_equal(traj.population_rates, oracle.population_rates)
    write_trajectory_csv(traj, tmp_path / "searched.csv", include_populations=True)
    write_trajectory_csv(oracle, tmp_path / "oracle.csv", include_populations=True)
    assert (tmp_path / "searched.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestFockTruncation:
    def test_auto_cutoff_converges(self):
        traj = run_trajectory(ModelSpec(family="dicke", n_cells=4, lam=0.5), steps=200)
        assert traj.spec.n_max >= 2 * 4 + 8
        assert traj.fock_edge_population < 1e-8

    def test_explicit_cutoff_respected(self):
        # An explicit cutoff runs in full and reports its leak, even one over
        # the automatic search's tolerance.
        traj = run_trajectory(ModelSpec(family="dicke", n_cells=3, lam=0.2, n_max=9), steps=100)
        assert traj.spec.n_max == 9
        assert models.model_basis(traj.spec).dim == traj.state_at(99).amplitudes.shape[0] == 4 * 10
        assert traj.fock_edge_population > trajectory.FOCK_LEAK_TOL
        assert np.abs(traj.populations.sum(axis=0) - 1).max() < 1e-9

    @pytest.mark.parametrize(
        "make_spec,steps,n_max_used",
        [
            (lambda: load_scenario("configs/dicke_n8_strong.json").spec, 2000, 48),
            (lambda: ModelSpec(family="dicke", n_cells=2, lam=1.0), 200, 48),  # doubles twice
        ],
        ids=["dicke_n8_strong", "doubles-twice"],
    )
    def test_search_picks_the_doubling_cutoff(self, tmp_path, make_spec, steps, n_max_used):
        spec = make_spec()
        traj = run_trajectory(spec, steps=steps)
        assert traj.spec.n_max == n_max_used
        assert_matches_full_doubling(traj, spec, steps, tmp_path)

    def test_cutoff_leaking_in_block_0_propagates_only_that_block(self, monkeypatch):
        spec = load_scenario("configs/dicke_n8_strong.json").spec
        columns = spy_propagated_columns(monkeypatch)
        traj = run_trajectory(spec, steps=2000)
        assert traj.spec.n_max == 48
        assert columns == {24: models.TIME_CHUNK, 48: 2000}

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
        assert traj.spec.n_max == traj.sector.basis.n_max
        full_basis = replace(traj.sector.basis, groups=None)
        assert models.build_battery_for(traj.spec).basis == full_basis == traj.state_at(0).basis

    def test_leak_in_a_later_block_still_doubles(self, monkeypatch, tmp_path):
        # In blocks of 4 times, n_max 12 first leaks at grid index 5 (block 1)
        # and 24 at index 15 (block 3): each stops after the block that leaks.
        spec = ModelSpec(family="dicke", n_cells=2, lam=1.0)
        monkeypatch.setattr(models, "TIME_CHUNK", 4)
        columns = spy_propagated_columns(monkeypatch)
        traj = run_trajectory(spec, steps=200)
        assert columns == {12: 8, 24: 16, 48: 200}
        assert traj.spec.n_max == 48 and traj.fock_edge_population < trajectory.FOCK_LEAK_TOL
        assert_matches_full_doubling(traj, spec, 200, tmp_path)

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
        # At N = 2 even the 16th doubling fits 4 GiB; a limit that admits the
        # whole run at n_max = 48 over 200 steps refuses the doubling to 96
        # on its sector: its entry list is built, its dense matrix is not.
        monkeypatch.setattr(trajectory, "FOCK_LEAK_TOL", 0.0)  # no cutoff can pass
        spec = ModelSpec(family="dicke", n_cells=2, lam=0.3)
        at_48 = replace(spec, n_max=48)
        sector = run_trajectory(at_48, steps=200).sector.dim
        limit = models.check_dense_size(at_48, 200, sector)
        monkeypatch.setattr(models, "RUN_BYTES_MAX", limit)
        built, lumped = [], []
        original, lump = models.build_dicke, SparseHermitian.lump
        monkeypatch.setattr(
            models, "build_dicke", lambda *args: built.append(args[0].n_max) or original(*args)
        )
        monkeypatch.setattr(
            SparseHermitian, "lump", lambda op, groups: lumped.append(op.basis.n_max) or lump(op, groups)
        )
        refused = r"^dense run of dicke N = 2 \(dim 291, n_max 96, 200 steps\) on \d+ states"
        with pytest.raises(CapacityLimitError, match=refused):
            run_trajectory(spec, steps=200)
        assert built == [12, 24, 48, 96] and lumped == [12, 24, 48]

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
        for path in ("dense", "auto"):
            traj = run_trajectory(chain_spec("xy_nn", 8), steps=300, path=path)
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

    def test_a_peak_midway_between_grid_points_refines_alike_from_either(self):
        # At 400 steps pi/2 lies midway between t_332 and t_333, whose
        # energies tie up to rounding; either argmax refines to one time.
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=6), steps=400)
        assert abs(traj.times[332] + traj.times[333] - math.pi) < 1e-12
        peaks = []
        for argmax in (332, 333):
            energies = traj.energy.copy()
            energies[argmax] += 1e-12
            peaks.append(
                find_peak_time(traj.times, energies, traj.power, traj.energy_at, traj.power_at)
            )
        assert peaks[0].t_f == pytest.approx(peaks[1].t_f, rel=2 * trajectory.PEAK_REL_TOL)
        assert peaks[0].t_f == pytest.approx(math.pi / 2, rel=2 * trajectory.PEAK_REL_TOL)

    @pytest.mark.parametrize("lam", [1e-8, 1.0, 1e16, 1e20])
    def test_the_refinement_is_relative(self, lam):
        traj = run_trajectory(ModelSpec(family="global", n_cells=4, lam=lam), steps=300)
        peak = find_tf(traj)
        assert lam * peak.t_f == pytest.approx(math.pi / 2, rel=2 * trajectory.PEAK_REL_TOL)
        assert peak.energy_max == pytest.approx(4.0, rel=1e-12)

    def test_no_sign_change_keeps_the_grid_point(self):
        times = np.linspace(0.0, 1.0, 5)
        energies = np.array([0.0, 1.0, 3.0, 2.0, 2.5])
        refine = lambda t: pytest.fail("refined without a sign change")  # noqa: E731
        peak = find_peak_time(times, energies, np.ones(5), refine, refine)
        assert (peak.t_f, peak.energy_max, peak.at_boundary) == (0.5, 3.0, False)

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            find_peak_time(
                np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                lambda t: t, lambda t: 1.0,
            )


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            traj = run_trajectory(ModelSpec(family="dicke", n_cells=3, lam=0.5), steps=120)
            path = tmp_path / f"run_{tag}.csv"
            write_trajectory_csv(traj, path, include_populations=True)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


SHIPPED_CHAINS = ["jw_xx_nn_n8", "jw_xx_pow_n8", "jw_xy_nn_n8", "jw_xy_pow_n8"]


class TestFreeFermionBackend:
    @pytest.mark.parametrize("name", SHIPPED_CHAINS)
    def test_shipped_chain_outputs_match_the_dense_run(self, name):
        # Every CSV column (populations included), the peak, the certification
        # counts and the summary agree between the two backends.
        cfg = load_scenario(f"configs/{name}.json")
        runs = {}
        for path in ("dense", "analytic"):
            traj = run_trajectory(cfg.spec, cfg.lam_t_max, cfg.steps, path)
            peak, report = find_tf(traj), certify_trajectory(traj)
            runs[path] = traj, peak, report, simulation_summary(traj, peak, report)
        (dense, dense_peak, dense_report, dense_summary) = runs["dense"]
        (chain, chain_peak, chain_report, chain_summary) = runs["analytic"]
        assert (dense.backend, chain.backend) == ("dense", "free-fermion")
        header, dense_rows = trajectory_rows(dense, include_populations=True)
        assert trajectory_rows(chain, include_populations=True)[0] == header
        chain_rows = trajectory_rows(chain, include_populations=True)[1]
        assert np.array_equal(np.isnan(dense_rows), np.isnan(chain_rows))
        assert np.nanmax(np.abs(dense_rows - chain_rows)) <= 1e-10
        assert chain_peak.t_f == dense_peak.t_f
        assert chain_report.witness_block_max == dense_report.witness_block_max
        assert chain_report.n_checks == dense_report.n_checks
        assert chain_summary.keys() == dense_summary.keys()
        for key, value in dense_summary.items():
            if isinstance(value, float):
                assert chain_summary[key] == pytest.approx(value, abs=1e-10), key
            else:
                assert chain_summary[key] == value, key

    @pytest.mark.parametrize(
        "n,path,backend",
        [(8, "auto", "free-fermion"), (7, "analytic", "free-fermion"),
         (8, "analytic", "free-fermion"), (8, "dense", "dense"), (7, "auto", "free-fermion")],
    )
    def test_path_picks_the_backend(self, n, path, backend):
        # A chain of either parity runs free-fermion unless the path is "dense".
        assert run_trajectory(chain_spec("xy_nn", n), steps=20, path=path).backend == backend

    def test_analytic_path_is_only_for_unit_families(self):
        with pytest.raises(ValidationError, match="'analytic' exists only for jw_chain"):
            run_trajectory(ModelSpec(family="lmg", n_cells=2), steps=20, path="analytic")
        with pytest.raises(ValidationError, match="unknown evaluation path 'fast'"):
            run_trajectory(chain_spec("xx_nn", 4), steps=20, path="fast")

    def test_chain_record_holds_no_states(self):
        traj = run_trajectory(chain_spec("xx_nn", 6), steps=20)
        assert traj.sector is None and traj.coefficients is None
        with pytest.raises(ValidationError, match="holds no states; run jw_chain with path='dense'"):
            traj.state_at(3)

    def test_record_holds_each_fact_once(self):
        # The levels follow from N, and I_Q from the conserved var(H_C).
        names = {f.name for f in fields(trajectory.Trajectory)}
        # The whole-basis charger and psi0 are build_charger_for and
        # initial_state of the spec.
        assert not names & {
            "levels", "fisher_state", "battery_order", "charger_amplitudes", "charger", "psi0",
        }
        for path in ("dense", "analytic"):
            traj = run_trajectory(chain_spec("xx_nn", 6), steps=20, path=path)
            assert type(traj.var_charger) is float

    def test_a_dense_record_retains_its_sector_and_series_alone(self):
        # The float64 sector matrix and eigenvectors, 2 x 8 d^2 bytes, and the
        # series; the whole-basis charger, psi0 or a complex sector matrix
        # would add 8 d^2 bytes or more.  The first run makes the one-time
        # allocations of the path.
        spec = ModelSpec(family="dicke", n_cells=12, lam=0.5)
        run_trajectory(spec, steps=200)
        gc.collect()
        tracemalloc.start()
        try:
            traj = run_trajectory(spec, steps=200)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        d = traj.sector.dim
        series = sum(value.nbytes for value in vars(traj).values() if isinstance(value, np.ndarray))
        assert traj.sector.values.dtype == traj.sector.eigenvectors.dtype == np.float64
        assert retained <= 2 * 8 * d**2 + series + 128 * 1024

    def test_a_unit_kernel_record_retains_only_its_series(self, tmp_path):
        # After run, certify and the CSV, the record holds O(T) series (the
        # grid, E, P, var(H_B), both Fisher series, cos theta and the four
        # moment-rate operands) and its mode set, not the 2 x 1001 x 4000
        # float64 (64 MB) of p and pdot.  The first run makes the one-time
        # allocations of the path.
        spec, steps = chain_spec("xy_nn", 1000), 4000

        def run():
            traj = run_trajectory(spec, steps=steps)
            certify_trajectory(traj)
            write_trajectory_csv(traj, tmp_path / "trajectory.csv")
            return traj

        run()
        gc.collect()
        tracemalloc.start()
        try:
            traj = run()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert traj.backend == "free-fermion"
        assert retained <= 16 * 8 * steps + 128 * 1024

    def test_levels_stay_exact_past_int64(self):
        # C(N, k) passes int64 at N = 67; the levels come from N alone.
        n = 100
        traj = run_trajectory(chain_spec("xx_nn", n), steps=20)
        levels = models.register_spectrum(n)[0]
        assert np.array_equal(levels, np.arange(n + 1) - n / 2)
        assert traj.populations.shape == traj.population_rates.shape == (n + 1, 20)
        stored = levels @ traj.populations - traj.initial_energy
        assert np.abs(stored - traj.energy).max() <= 1e-10 * n
        assert not traj.populations[1::2].any() and not traj.population_rates[1::2].any()
        assert traj.initial_energy == -n / 2 and traj.fock_edge_population == 0.0

    def test_off_grid_energy_matches_the_dense_run(self):
        spec = chain_spec("xy_pow", 8)
        chain = run_trajectory(spec, steps=50)
        dense = run_trajectory(spec, steps=50, path="dense")
        # The grid takes cos and sin at every PHASE_STRIDE-th time and a
        # table product between; energy_at takes them at its own time.
        assert chain.energy_at(float(chain.times[16])) == chain.energy[16]
        off_table = [chain.energy_at(float(t)) for t in chain.times] - chain.energy
        assert np.abs(off_table).max() <= 16 * np.spacing(float(spec.n_cells))
        for t in (0.3137, 2.71, 7.77):
            assert chain.energy_at(t) == pytest.approx(dense.energy_at(t), abs=1e-12)

    def test_size_rule_runs_before_the_grid(self, monkeypatch):
        monkeypatch.setattr(trajectory, "time_grid", lambda *a: pytest.fail("a grid was built"))
        with pytest.raises(CapacityLimitError, match=r"^free-fermion run of jw_chain N = 8 "):
            run_trajectory(chain_spec("xx_nn", 8), steps=10**12)
