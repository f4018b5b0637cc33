from dataclasses import replace

import numpy as np
import pytest

from qbattery import (
    CapacityLimitError,
    ConfigError,
    ModelSpec,
    ValidationError,
    chain_spec,
    fit_exponent,
    sweep_scaling,
)
from qbattery import sweeps
from qbattery.freefermion import check_chain_size
from qbattery.models import CHAIN_VARIANTS, check_dense_size
from qbattery.config import load_scenario, parse_scenario
from qbattery.observables import COS_THETA_DENOM_FLOOR
from qbattery.sweeps import check_sweep, quantities_for, trajectory_quantities
from qbattery.trajectory import DEFAULT_STEPS, Trajectory, run_trajectory


def dense_rule(spec):
    return check_dense_size(spec, DEFAULT_STEPS)


def chain_point_rule(spec):
    return check_chain_size(spec, DEFAULT_STEPS)


class TestExponentFit:
    def test_exact_power_law(self):
        ns = [4, 8, 16, 32]
        values = [2.5 * n**1.7 for n in ns]
        result = fit_exponent(ns, values, "demo")
        assert result.exponent == pytest.approx(1.7, abs=1e-12)
        assert result.residual < 1e-12
        assert result.excluded == ()

    def test_nonpositive_values_dropped(self):
        result = fit_exponent([2, 4, 8, 16], [0.0, 1.0, 2.0, 4.0])
        assert result.excluded == (2,)
        assert result.exponent == pytest.approx(1.0, abs=1e-12)

    def test_too_few_usable_points(self):
        with pytest.raises(ValidationError):
            fit_exponent([2, 4, 8], [0.0, -1.0, 3.0])

    def test_small_size_transient_excluded(self):
        ns = [4, 8, 16, 32, 64]
        values = [50.0] + [n**2.0 for n in ns[1:]]  # first point off the law
        result = fit_exponent(ns, values)
        assert 4 in result.excluded
        assert result.exponent == pytest.approx(2.0, abs=1e-9)


class TestSweep:
    def test_parallel_average_power_is_linear(self):
        spec = ModelSpec(family="parallel", n_cells=2, lam=1.0)
        result, rows = sweep_scaling(spec, [2, 4, 6, 8], "avg_power", steps=300)
        assert result.exponent == pytest.approx(1.0, abs=0.01)
        assert len(rows) == 4 and all("t_f" in row for row in rows)

    def test_input_validation(self):
        spec = ModelSpec(family="parallel", n_cells=2)
        with pytest.raises(ValidationError):
            sweep_scaling(spec, [2, 4, 6], "avg_power")
        with pytest.raises(ValidationError):
            sweep_scaling(spec, [2, 4, 4, 8], "avg_power")
        with pytest.raises(ValidationError):
            sweep_scaling(spec, [2, 4, 6, 8], "not_a_quantity")

    def test_hybrid_resizing_keeps_blocks(self):
        spec = ModelSpec(family="hybrid", n_cells=4, lam=1.0, q=2, r=2)
        result, rows = sweep_scaling(spec, [4, 6, 8, 10], "avg_power", steps=200)
        assert result.exponent == pytest.approx(1.0, abs=0.02)

    def test_analytic_path_matches_dense(self):
        spec = chain_spec("xy_nn", 8)
        dense = quantities_for(spec, lam_t_max=6.0, steps=400, path="dense")
        analytic = quantities_for(spec, lam_t_max=6.0, steps=400, path="analytic")
        for key in ("energy_at_tf", "avg_power", "avg_var_battery", "avg_fisher_energy",
                    "cos_theta_timeavg", "cos_theta_timeavg_heis"):
            assert analytic[key] == pytest.approx(dense[key], rel=1e-6), key

    def test_analytic_path_reserved_for_chains(self):
        with pytest.raises(ValidationError):
            quantities_for(ModelSpec(family="lmg", n_cells=6, lam=5.0), path="analytic")

    def test_custom_multirange_chain_cannot_resize(self):
        spec = ModelSpec(
            family="jw_chain", n_cells=8, lambdas=(0.3, 0.9), gammas=(1.0, 0.1)
        )
        with pytest.raises(ValidationError):
            sweep_scaling(spec, [8, 10, 12, 14], "avg_power", steps=100)


PARALLEL = {"family": "parallel", "N": 2}
LMG = {"family": "lmg", "N": 2}
CUSTOM_CHAIN = {"family": "jw_chain", "N": 8, "lambdas": [0.3, 0.9], "gammas": [1.0, 0.1]}
XX_NN = {"family": "jw_chain", "N": 4, "variant": "xx_nn"}


class TestSweepRules:
    """Each sweep rule is one check: the config and the API raise one text."""

    @pytest.mark.parametrize(
        "model,sweep,text",
        [
            (PARALLEL, {"values": [2, 4, 4, 8], "quantity": "avg_power"}, "strictly increasing"),
            (PARALLEL, {"values": [2, 4, 6], "quantity": "avg_power"}, "at least 4 values"),
            (PARALLEL, {"values": [2, 4, 6, 8], "quantity": "nonsense"}, "unknown quantity"),
            (
                PARALLEL,
                {"values": [2, 4, 6, 8], "quantity": "avg_power", "path": "nonsense"},
                "unknown evaluation path",
            ),
            (
                LMG,
                {"values": [2, 4, 6, 8], "quantity": "avg_power", "path": "analytic"},
                "exists only for jw_chain",
            ),
            (
                {"family": "hybrid", "N": 4, "q": 2, "r": 2},
                {"values": [4, 6, 8, 9], "quantity": "avg_power"},
                "N = 9: hybrid block size r = 2 does not divide N",
            ),
            (CUSTOM_CHAIN, {"values": [8, 10, 12, 14], "quantity": "avg_power"}, "custom couplings"),
            (
                XX_NN,
                {"values": [4, 6, 8, 2 * 10**6 + 1], "quantity": "avg_power"},
                "N = 2000001: free-fermion run of jw_chain",
            ),
            (
                XX_NN,
                {"values": [4, 6, 8, 22], "quantity": "avg_power", "path": "dense"},
                "N = 22: dense run of jw_chain",
            ),
            (
                PARALLEL,
                {"values": [4, 6, 8, 24], "quantity": "avg_power", "path": "dense"},
                "N = 24: dense run of parallel",
            ),
            (
                {"family": "lmg", "N": 10},
                {"values": [10, 12, 14, 16], "quantity": "final_battery_entropy"},
                "sweep.quantity: 'final_battery_entropy' exists only for dicke, not lmg",
            ),
        ],
        ids=[
            "increasing", "four-values", "quantity", "path", "analytic-path", "hybrid", "chain",
            "auto-odd-chain", "dense-chain-cap", "charger-cap", "entropy-off-dicke",
        ],
    )
    def test_n_sweep_rule_text_is_shared(self, monkeypatch, model, sweep, text):
        monkeypatch.setattr(sweeps, "quantities_for", lambda *a: pytest.fail("a point ran"))
        with pytest.raises(ConfigError) as from_config:
            parse_scenario({"model": model, "sweep": sweep})
        spec = parse_scenario({"model": model}).spec
        with pytest.raises(ValidationError) as from_api:
            sweep_scaling(spec, sweep["values"], sweep["quantity"], path=sweep.get("path", "auto"))
        assert text in str(from_config.value)
        assert str(from_config.value) == str(from_api.value)

    @pytest.mark.parametrize(
        "base,path,n,solve",
        [
            (chain_spec("xx_nn", 4), "analytic", 2 * 10**6, chain_point_rule),
            (chain_spec("xx_nn", 4), "auto", 2 * 10**6 + 1, chain_point_rule),
            (chain_spec("xx_nn", 4), "dense", 22, dense_rule),
            (ModelSpec(family="parallel", n_cells=4), "dense", 24, dense_rule),
            (ModelSpec(family="parallel", n_cells=4), "auto", 2 * 10**5, chain_point_rule),
        ],
        ids=["even-n", "odd-n", "chain-cap", "charger-cap", "closed-form-cap"],
    )
    def test_point_rule_is_the_solvers_own(self, base, path, n, solve):
        # check_sweep reports the error that the point's own size rule raises
        # over the sweep's steps: the unit kernel's point, or the dense run's.
        with pytest.raises((ValidationError, CapacityLimitError)) as from_solver:
            solve(replace(base, n_cells=n))
        with pytest.raises(ValidationError) as from_sweep:
            check_sweep(base, "N", [4, 6, 8, n], "avg_power", path)
        assert str(from_sweep.value) == f"sweep.values: N = {n}: {from_solver.value}"

    def test_analytic_point_is_sized_as_a_sweep_point(self):
        # N = 10^4 over 4000 steps: a run record holds O(T) series and one
        # block of levels, so a sweep point and a run share one rule.
        check_chain_size(chain_spec("xx_nn", 10**4), 4000)
        check_sweep(chain_spec("xx_nn", 4), "N", [4, 100, 1000, 10**4], "avg_power", "auto", 4000)

    @pytest.mark.parametrize(
        "n,path,taken",
        [(4, "auto", "analytic"), (14, "auto", "analytic"), (1000, "auto", "analytic"),
         (9, "auto", "analytic"), (13, "auto", "analytic"), (10, "dense", "dense")],
    )
    def test_auto_path_sends_every_chain_to_the_solver(self, monkeypatch, n, path, taken):
        # A chain of either parity goes to the free-fermion solver; "dense" stays dense.
        calls = []
        monkeypatch.setattr(
            sweeps, "trajectory_quantities",
            lambda traj: calls.append("analytic" if traj.sector is None else "dense"),
        )
        quantities_for(chain_spec("xy_nn", n), path=path)
        assert calls == [taken]

    @pytest.mark.parametrize(
        "model,sweep,text",
        [
            (PARALLEL, {"parameter": "beta", "values": [1], "quantity": "avg_power"}, "expected 'N'"),
            (
                PARALLEL,
                {"parameter": "gamma", "values": [0.5], "quantity": "avg_power"},
                "is an lmg parameter",
            ),
            (
                {"family": "lmg", "N": 4},
                {"parameter": "gamma", "values": [], "quantity": "avg_power"},
                "at least one value",
            ),
        ],
        ids=["parameter", "gamma-family", "gamma-empty"],
    )
    def test_parameter_rule_text_is_shared(self, model, sweep, text):
        with pytest.raises(ConfigError) as from_config:
            parse_scenario({"model": model, "sweep": sweep})
        spec = parse_scenario({"model": model}).spec
        with pytest.raises(ValidationError) as from_api:
            check_sweep(spec, sweep["parameter"], sweep["values"], sweep["quantity"], "auto")
        assert text in str(from_config.value)
        assert str(from_config.value) == str(from_api.value)

    def test_gamma_sweep_sets_the_anisotropy(self):
        spec = ModelSpec(family="lmg", n_cells=6, lam=5.0)
        rows = sweeps.sweep(spec, "gamma", [-1.0, 0], lam_t_max=2.0, steps=200)
        for gamma, row in zip([-1.0, 0.0], rows):
            want = quantities_for(ModelSpec(family="lmg", n_cells=6, lam=5.0, gamma=gamma),
                                  lam_t_max=2.0, steps=200)
            assert row == want


class TestQuantities:
    @pytest.mark.parametrize("gamma", [0.75, 0.99, 1.0])
    def test_a_run_with_nothing_to_charge_has_no_peak(self, gamma):
        # At gamma = 1 H_C commutes with J_z, and E(t) is rounding noise.
        cfg = load_scenario("configs/lmg_gamma_scan.json")
        row = quantities_for(replace(cfg.spec, gamma=gamma), cfg.lam_t_max, cfg.steps)
        if gamma == 1.0:
            assert row["t_f"] == 0 and row["avg_power"] == 0 and row["energy_at_tf"] == 0
        else:
            assert row["t_f"] > 0 and row["avg_power"] > 0

    def test_ratio_denominator_at_the_floor_is_undefined(self):
        # One unit-step window [0, 1] of constant series: the averages are
        # the constants, so each ratio's var * I product is exactly the floor.
        # The record's one level carries I_E = pdot^2 / p = rate^2; its grid
        # peak, where P is 0, is t = 1.
        floor_sq = COS_THETA_DENOM_FLOOR**2

        def record(rate, var_charger):
            p, p_dot = np.repeat([[1.0], [0.0]], 3, axis=1), np.repeat([[rate], [-rate]], 3, axis=1)
            return Trajectory(
                ModelSpec(family="parallel", n_cells=1), np.array([0.0, 1.0, 2.0]), -0.5,
                np.array([0.0, 1.0, 0.5]), np.array([1.0, 0.0, -1.0]), np.ones(3), var_charger,
                None, None, (p, p_dot),
            )

        out = trajectory_quantities(record(COS_THETA_DENOM_FLOOR, floor_sq / 4))
        assert out["t_f"] == 1.0 and out["energy_at_tf"] == 1.0
        assert out["avg_var_battery"] == 1.0 and out["avg_fisher_energy"] == floor_sq
        assert np.isnan(out["cos_theta_timeavg"]) and np.isnan(out["cos_theta_timeavg_heis"])
        out = trajectory_quantities(record(2 * COS_THETA_DENOM_FLOOR, floor_sq))
        assert out["avg_fisher_energy"] == 4 * floor_sq
        assert out["cos_theta_timeavg"] == out["cos_theta_timeavg_heis"] == pytest.approx(0.5e12)

    def test_trajectory_quantities_consistency(self):
        traj = run_trajectory(ModelSpec(family="parallel", n_cells=4), steps=400)
        out = trajectory_quantities(traj)
        assert out["energy_at_tf"] == pytest.approx(4.0, abs=1e-8)
        assert out["avg_power"] == pytest.approx(4.0 / (np.pi / 2), rel=1e-6)
        assert out["cos_theta_timeavg"] == pytest.approx(2 * np.sqrt(2) / np.pi, rel=1e-3)
        assert out["initial_var_charger"] == pytest.approx(4.0, rel=1e-10)

    def test_cavity_quantities_include_entropy(self):
        out = quantities_for(
            ModelSpec(family="dicke", n_cells=3, lam=0.5), lam_t_max=3.0, steps=200
        )
        assert 0.0 <= out["final_battery_entropy"] <= 1.0

    @pytest.mark.parametrize("steps", [200, 801])
    @pytest.mark.parametrize("n", [8, 20, 50])
    @pytest.mark.parametrize("variant", CHAIN_VARIANTS)
    def test_analytic_point_equals_the_run_record(self, variant, n, steps):
        # The sweep point, whose level distribution stops at the window, and
        # the free-fermion run record with its whole-grid populations held
        # agree bit for bit, key for key.
        spec = chain_spec(variant, n)
        point = quantities_for(spec, None, steps)
        traj = run_trajectory(spec, None, steps, "analytic")
        record = trajectory_quantities(replace(traj, source=(traj.populations, traj.population_rates)))
        assert list(point) == list(record)
        for key in point:
            assert point[key] == record[key] or np.isnan(point[key]) and np.isnan(record[key]), key

    def test_chain_quantities_at_scale(self):
        out = quantities_for(chain_spec("xx_nn", 100), steps=400)
        assert out["energy_at_tf"] > 0
        assert np.isfinite(out["avg_fisher_energy"])

    def test_chain_relative_spread_decays_as_root_n(self):
        ns = [20, 50, 100, 200]
        for variant in ("xx_nn", "xy_nn"):
            rels = [
                quantities_for(chain_spec(variant, n), steps=600)["rel_final_std"]
                for n in ns
            ]
            fit = fit_exponent(ns, rels, "rel_final_std")
            assert fit.exponent == pytest.approx(-0.5, abs=0.15)

    def test_collective_relative_spread_does_not_decay(self):
        # Needs the full sweep range: the small-N transient is excluded by
        # the residual rule only when more than 4 points remain.
        spec = ModelSpec(family="lmg", n_cells=10, lam=5.0, gamma=-1.0)
        result, _ = sweep_scaling(spec, [10, 20, 30, 40, 50, 60], "rel_final_std", steps=1000)
        assert result.exponent >= -0.1
