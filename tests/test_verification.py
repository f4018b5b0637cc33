import copy
import dataclasses
import glob
import math
import tracemalloc

import numpy as np
import pytest

from qbattery import (
    ModelSpec,
    ValidationError,
    certify_trajectory,
    chain_spec,
    run_trajectory,
    verify_benchmark_table,
    witness_entangled_block_size,
)
from qbattery.bounds import ABSOLUTE_FLOOR, producibility_variance_cap, witness_block_sizes
from qbattery.cli import _read_trajectory_csv
from qbattery.config import load_scenario
from qbattery.output import write_trajectory_csv
from qbattery import verification
from qbattery.verification import (
    CSV_BOUNDS,
    MEMORY_BOUNDS,
    certify_series,
    run_oracle_checks,
)

from oracles import certify_stepwise

# The cases the series certifier is compared with the stepwise oracle on,
# each with the path it runs on.
ORACLE_SPECS = {
    "parallel": (ModelSpec(family="parallel", n_cells=4), "auto"),
    "hybrid": (ModelSpec(family="hybrid", n_cells=6, q=3, r=2), "auto"),  # closed-form
    "hybrid_dense": (ModelSpec(family="hybrid", n_cells=6, q=3, r=2), "dense"),
    "chain": (chain_spec("xy_pow", 6), "auto"),  # the free-fermion record
    "chain_odd": (chain_spec("xy_pow", 5), "dense"),  # the dense chain
    "lmg": (ModelSpec(family="lmg", n_cells=12, lam=5.0), "auto"),
    "dicke": (ModelSpec(family="dicke", n_cells=4, lam=0.5), "auto"),
}
CORRUPTIONS = {
    "clean": None,
    "power_x2": ("power", 2.0),
    "var_charger_x0.5": ("var_charger", 0.5),
    "fisher_full_x3": ("fisher_energy_full", 3.0),
}
# Shared inequalities: in-memory label, CSV label, the CSV column that may be
# empty at a step.
SHARED_BOUNDS = (
    ("fisher_power", "fisher_power_ratio", "bound_ratio_cor1"),
    ("heisenberg_power", "heisenberg_power", "P"),
    ("heisenberg_power", "heisenberg_ratio", "bound_ratio_heis"),
    ("dephasing_fisher", "dephasing_fisher", "I_E"),
    ("fisher_vs_state", "fisher_vs_state", "I_E"),
)


@pytest.fixture(scope="module")
def oracle_trajectories():
    return {
        name: run_trajectory(spec, steps=150, path=path) for name, (spec, path) in ORACLE_SPECS.items()
    }


def _csv_round_trip(traj, tmp_path):
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    return certify_series(_read_trajectory_csv(str(path)), CSV_BOUNDS, undefined_fails=False)


def _violated_times(report, label):
    return {v.t for v in report.violations if v.label == label}


class TestCertification:
    def test_reference_models_certify_clean(self):
        for spec, path in (
            (ModelSpec(family="global", n_cells=5), "auto"),
            (chain_spec("xx_nn", 6), "dense"),
            (chain_spec("xx_nn", 6), "auto"),
            (ModelSpec(family="lmg", n_cells=12, lam=5.0), "auto"),
        ):
            traj = run_trajectory(spec, steps=300, path=path)
            report = certify_trajectory(traj)
            assert report.ok, report.violations[:3]
            assert report.n_checks == 7 * traj.n_steps
            assert report.max_ratio_fisher_power <= 1 + 1e-8

    def test_corrupted_power_is_flagged(self):
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=4), steps=120)
        traj.power = 2.0 * traj.power
        report = certify_trajectory(traj)
        assert not report.ok
        labels = {v.label for v in report.violations}
        assert "fisher_power" in labels

    def test_report_serializes(self):
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=3), steps=60)
        payload = certify_trajectory(traj).to_dict()
        assert payload["ok"] is True
        assert payload["n_steps"] == 60
        assert list(payload["bounds"]) == list(MEMORY_BOUNDS)
        for entry in payload["bounds"].values():
            assert entry["checks"] == 60 and entry["violations"] == 0
        assert payload["bounds"]["fisher_power"]["worst_ratio"] == payload["max_ratio_fisher_power"]

    def test_parallel_saturation_at_rescaled_coupling(self):
        # The raw moment variance <O^4> - <O^2>^2 cancels near the energy peak
        # and missed moment_rate_m2 by 2.4e-8 relative at t = 1.6949 here.
        cfg = load_scenario("configs/parallel_n8.json")
        spec = dataclasses.replace(cfg.spec, lam=0.9268728488224802)
        report = certify_trajectory(run_trajectory(spec, cfg.lam_t_max, cfg.steps))
        assert report.ok, report.violations[:3]

    def test_witness_reported(self):
        traj = run_trajectory(ModelSpec(family="global", n_cells=6), steps=200)
        report = certify_trajectory(traj)
        assert report.witness_block_max == 6


class TestSeriesCertifier:
    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @pytest.mark.parametrize("name", list(ORACLE_SPECS))
    def test_matches_stepwise_oracle(self, oracle_trajectories, name, corruption):
        traj = copy.copy(oracle_trajectories[name])
        if CORRUPTIONS[corruption]:
            attr, factor = CORRUPTIONS[corruption]
            setattr(traj, attr, factor * getattr(traj, attr))
        report = certify_trajectory(traj)
        reports, ks = certify_stepwise(traj)
        assert report.n_checks == len(reports) == 7 * traj.n_steps
        # Same violations in the same order: by step, then by inequality.
        assert [(v.label, v.t) for v in report.violations] == [
            (r.label, r.t) for r in reports if not r.satisfied
        ]
        assert witness_block_sizes(traj.var_battery, traj.spec.n_cells)[0].tolist() == ks
        assert report.witness_block_max == max(ks)
        for label, entry in report.per_bound.items():
            ratios = [r.ratio for r in reports if r.label == label]
            want = max((x for x in ratios if math.isfinite(x)), default=0.0)
            assert entry["worst_ratio"] == pytest.approx(want, rel=1e-15, abs=0.0)
        if corruption != "clean":
            assert not report.ok

    def test_reads_the_record_without_copying_it(self):
        # The moment-rate sums reduce the (levels x times) p and pdot as they
        # lie; a transposed copy of both would put the peak at 2x.
        traj = run_trajectory(chain_spec("xy_nn", 400), steps=1000)
        tracemalloc.start()
        try:
            certify_trajectory(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (traj.populations.nbytes + traj.population_rates.nbytes)

    def test_nan_in_memory_is_a_violation(self, oracle_trajectories):
        traj = copy.copy(oracle_trajectories["parallel"])
        traj.power = traj.power.copy()
        traj.power[7] = math.nan
        report = certify_trajectory(traj)
        assert report.n_checks == 7 * traj.n_steps
        assert {v.label for v in report.violations if v.t == traj.times[7]} == {
            "fisher_power", "heisenberg_power", "entanglement_power"
        }

    def test_worst_ratio_skips_rhs_at_the_floor(self):
        # Step 0 has rhs = 4 var_HB var_HC exactly at the floor and lhs / rhs
        # = 1.5, within tolerance; only step 1's 0.5 is a defined ratio.
        columns = {
            "t": np.array([0.0, 1.0]),
            "P": np.sqrt([1.5e-12, 0.5]),
            "var_HB": np.ones(2),
            "var_HC": np.array([ABSOLUTE_FLOOR / 4, 0.25]),
        }
        assert 4.0 * columns["var_HB"][0] * columns["var_HC"][0] == ABSOLUTE_FLOOR
        report = certify_series(columns, ("heisenberg_power",), undefined_fails=True)
        assert report.ok and report.n_checks == 2
        assert report.per_bound["heisenberg_power"]["worst_ratio"] == pytest.approx(0.5, rel=1e-15)

    def test_witness_series_matches_scalar(self):
        for n in (1, 2, 5, 8, 12):
            caps = np.array([producibility_variance_cap(n, k) for k in range(1, n + 1)])
            var = np.concatenate([
                np.linspace(0.0, n**2 / 4 * (1 + 1e-6), 97),
                caps, caps * (1 + 1e-9), caps * (1 + 2e-9), [math.nan],
            ])
            want = [witness_entangled_block_size(float(v), n) for v in var]
            assert witness_block_sizes(var, n)[0].tolist() == want

    @pytest.mark.parametrize("bad", [-1e-3, 16 * (1 + 2e-6)])
    def test_witness_series_raises_like_scalar(self, bad):
        with pytest.raises(ValidationError) as scalar:
            witness_entangled_block_size(bad, 8)
        with pytest.raises(ValidationError) as series:
            witness_block_sizes(np.array([1.0, bad, 2.0]), 8)
        assert str(series.value) == str(scalar.value)


class TestCsvRecertification:
    @pytest.mark.parametrize("corruption", ["clean", "power_x2"])
    def test_agrees_with_memory_on_shipped_scenarios(self, tmp_path, corruption):
        paths = sorted(
            p for p in glob.glob("configs/*.json")
            if "sweep" not in p and "capacity" not in p and "gamma" not in p
        )
        assert len(paths) == 11, paths
        for path in paths:
            cfg = load_scenario(path)
            traj = run_trajectory(cfg.spec, cfg.lam_t_max, 300)
            if corruption == "power_x2":
                traj.power = 2.0 * traj.power
            memory = certify_trajectory(traj)
            csv_path = tmp_path / "trajectory.csv"
            write_trajectory_csv(traj, csv_path)
            columns = _read_trajectory_csv(str(csv_path))
            csv = certify_series(columns, CSV_BOUNDS, undefined_fails=False)
            assert csv.n_steps == memory.n_steps
            for mem_label, csv_label, column in SHARED_BOUNDS:
                # Steps with an empty ratio field are skipped in the CSV.
                defined = set(columns["t"][~np.isnan(columns[column])].tolist())
                assert _violated_times(memory, mem_label) & defined == _violated_times(
                    csv, csv_label
                ), (path, csv_label)
            assert csv.ok == (corruption == "clean"), path

    @pytest.mark.parametrize(
        "column,factor,expected",
        [
            ("P", 2.0, {"heisenberg_power"}),
            ("var_HB", 0.5, {"heisenberg_power"}),
            ("var_HC", 0.5, {"heisenberg_power", "dephasing_fisher"}),
            ("I_E", 2.0, {"dephasing_fisher", "fisher_vs_state"}),
            ("I_Q", 0.5, {"fisher_vs_state"}),
            ("cos_theta_P", 2.0, {"cos_theta_range"}),
            ("bound_ratio_cor1", 2.0, {"fisher_power_ratio"}),
            ("bound_ratio_heis", 2.0, {"heisenberg_ratio"}),
        ],
    )
    def test_column_corruption_trips_expected_bounds(self, tmp_path, column, factor, expected):
        # Independent-cell charging saturates every CSV inequality.
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=4), steps=120)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        columns = _read_trajectory_csv(str(path))
        assert certify_series(columns, CSV_BOUNDS, undefined_fails=False).ok
        columns[column] = factor * columns[column]
        report = certify_series(columns, CSV_BOUNDS, undefined_fails=False)
        assert {v.label for v in report.violations} == expected

    def test_empty_fields_are_skipped(self, tmp_path):
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=4), steps=120)
        report = _csv_round_trip(traj, tmp_path)
        assert 0 < report.per_bound["fisher_power_ratio"]["checks"] < traj.n_steps  # t = 0 has no ratio
        assert report.n_checks < len(CSV_BOUNDS) * traj.n_steps


class TestBenchmarkTable:
    def test_small_sizes_pass(self):
        report = verify_benchmark_table(n_values=(2, 4), lam=1.0)
        assert report.all_passed, report.failed()[:5]

    def test_rescaled_coupling_passes(self):
        report = verify_benchmark_table(n_values=(4,), lam=0.8)
        assert report.all_passed, report.failed()[:5]

    def test_table_is_checked_against_dense_runs(self, monkeypatch):
        # The table's entries are the closed forms, so its runs must not be
        # the closed-form runs that these families take on "auto".
        backends = []

        def run(spec, *args, **kwargs):
            traj = run_trajectory(spec, *args, **kwargs)
            backends.append(traj.backend)
            return traj

        monkeypatch.setattr(verification, "run_trajectory", run)
        report = verify_benchmark_table(n_values=(2, 3))
        specs = [s for n in (2, 3) for s in verification.benchmark_specs(n, 1.0)]
        assert report.all_passed and backends == ["dense"] * len(specs)

    def test_cells_cover_all_layouts(self):
        report = verify_benchmark_table(n_values=(6,))
        hybrid_layouts = {
            (c.q, c.r) for c in report.cells if c.family == "hybrid"
        }
        assert hybrid_layouts == {(1, 6), (2, 3), (3, 2), (6, 1)}


class TestOracles:
    def test_full_oracle_battery(self):
        checks = run_oracle_checks(seed=1)
        for check in checks:
            assert check.passed, f"{check.name}: {check.detail}"
        names = {c.name for c in checks}
        assert "chain_analytic_vs_dense" in names
        assert "spectral_vs_runge_kutta" in names
