import json
import math
import re
import sys
import warnings
from pathlib import Path

import pytest

from qbattery import ConfigError, ModelSpec, cli, models, sweeps, trajectory
from qbattery.cli import main
from qbattery.config import load_scenario, parse_capacity, parse_model, parse_scenario
from qbattery.linalg import SparseHermitian
from qbattery.output import write_csv


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


MINIMAL = {"model": {"family": "parallel", "N": 4}}


class TestSchema:
    def test_minimal_scenario(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.spec.family == "parallel"
        assert cfg.steps == 2000

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*extra"):
            parse_scenario({**MINIMAL, "extra": 1})

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError, match="model.*unknown keys.*coupling"):
            parse_scenario({"model": {"family": "parallel", "N": 4, "coupling": 2}})

    def test_unknown_time_key(self):
        with pytest.raises(ConfigError, match="time.*unknown"):
            parse_scenario({**MINIMAL, "time": {"dt": 0.1}})

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required.*model"):
            parse_scenario({})
        with pytest.raises(ConfigError, match="missing required.*N"):
            parse_scenario({"model": {"family": "parallel"}})

    def test_type_errors_carry_path(self):
        with pytest.raises(ConfigError, match="model.N"):
            parse_scenario({"model": {"family": "parallel", "N": "four"}})
        with pytest.raises(ConfigError, match="time.steps"):
            parse_scenario({**MINIMAL, "time": {"steps": 2.5}})

    def test_model_invariants_wrapped(self):
        with pytest.raises(ConfigError, match="model"):
            parse_model({"family": "hybrid", "N": 4, "q": 3, "r": 2})
        with pytest.raises(ConfigError, match="model"):
            parse_model({"family": "dicke", "N": 4, "n_max": 4})

    def test_chain_variant_or_couplings(self):
        spec = parse_model({"family": "jw_chain", "N": 8, "variant": "xy_pow"})
        assert spec.gammas[0] == 1.0 and len(spec.gammas) == 3
        with pytest.raises(ConfigError, match="variant"):
            parse_model({"family": "jw_chain", "N": 8, "variant": "zz_nn"})
        with pytest.raises(ConfigError, match="not both"):
            parse_model(
                {"family": "jw_chain", "N": 8, "variant": "xx_nn", "lambdas": [1.0], "gammas": [1.0]}
            )
        with pytest.raises(ConfigError, match="jw_chain needs"):
            parse_model({"family": "jw_chain", "N": 8})

    def test_sweep_validation(self):
        base = {**MINIMAL, "sweep": {"values": [4, 2], "quantity": "avg_power"}}
        with pytest.raises(ConfigError, match="increasing"):
            parse_scenario(base)
        with pytest.raises(ConfigError, match="parameter"):
            parse_scenario(
                {**MINIMAL, "sweep": {"values": [1], "quantity": "x", "parameter": "beta"}}
            )

    @pytest.mark.parametrize(
        "model,key",
        [
            ({"family": "parallel", "N": 4, "gamma": 0.5}, "model.gamma"),
            ({"family": "parallel", "N": 4, "q": 3}, "model.q"),
            ({"family": "global", "N": 4, "n_max": 50}, "model.n_max"),
            ({"family": "hybrid", "N": 4, "q": 2, "r": 2, "variant": "xx_nn"}, "model.variant"),
            ({"family": "jw_chain", "N": 8, "variant": "xx_nn", "gamma": 0.5}, "model.gamma"),
            ({"family": "lmg", "N": 4, "normalize_coupling": False}, "model.normalize_coupling"),
            ({"family": "dicke", "N": 4, "gamma": 0.5}, "model.gamma"),
        ],
    )
    def test_foreign_family_key(self, model, key):
        with pytest.raises(ConfigError, match=f"{key}: not a key of the {model['family']} family"):
            parse_model(model)

    def test_normalize_coupling_is_a_bool(self):
        spec = parse_model({"family": "dicke", "N": 4, "normalize_coupling": False})
        assert spec.normalize_coupling is False
        for value in ("false", 0, 1):
            with pytest.raises(ConfigError, match="model.normalize_coupling: expected bool"):
                parse_model({"family": "dicke", "N": 4, "normalize_coupling": value})

    def test_output_series_names(self):
        cfg = parse_scenario({**MINIMAL, "outputs": {"series": ["populations"]}})
        assert cfg.series == ("populations",)
        with pytest.raises(ConfigError, match="outputs.series.*populatoins"):
            parse_scenario({**MINIMAL, "outputs": {"series": ["populatoins"]}})

    def test_gamma_sweep_needs_lmg(self):
        sweep = {"parameter": "gamma", "values": [0.0, 0.5], "quantity": "energy_at_tf"}
        assert parse_scenario({"model": {"family": "lmg", "N": 4}, "sweep": sweep}).sweep
        with pytest.raises(ConfigError, match="sweep.parameter.*parallel"):
            parse_scenario({**MINIMAL, "sweep": sweep})

    @pytest.mark.parametrize(
        "parse,raw,key",
        [
            (parse_scenario, {"model": {"family": "parallel", "N": True}}, "model.N"),
            (parse_scenario, {"model": {"family": "hybrid", "N": 4, "q": True, "r": 2}}, "model.q"),
            (parse_scenario, {"model": {"family": "hybrid", "N": 4, "q": 2, "r": True}}, "model.r"),
            (parse_scenario, {"model": {"family": "dicke", "N": 2, "n_max": True}}, "model.n_max"),
            (parse_scenario, {"model": {"family": "parallel", "N": 2, "lam": True}}, "model.lam"),
            (parse_scenario, {"model": {"family": "lmg", "N": 4, "gamma": False}}, "model.gamma"),
            (
                parse_scenario,
                {"model": {"family": "jw_chain", "N": 4, "lambdas": [True], "gammas": [1.0]}},
                "model.lambdas[0]",
            ),
            (
                parse_scenario,
                {"model": {"family": "jw_chain", "N": 4, "lambdas": [1.0], "gammas": [False]}},
                "model.gammas[0]",
            ),
            (parse_scenario, {**MINIMAL, "time": {"steps": True}}, "time.steps"),
            (parse_scenario, {**MINIMAL, "time": {"lam_t_max": True}}, "time.lam_t_max"),
            (
                parse_scenario,
                {**MINIMAL, "sweep": {"values": [2, True, 4, 5], "quantity": "avg_power"}},
                "sweep.values[1]",
            ),
            (
                parse_scenario,
                {
                    "model": {"family": "lmg", "N": 4},
                    "sweep": {"parameter": "gamma", "values": [0.5, True], "quantity": "avg_power"},
                },
                "sweep.values[1]",
            ),
            (parse_capacity, {**MINIMAL, "beta": {"max_abs": True}}, "beta.max_abs"),
            (parse_capacity, {**MINIMAL, "beta": {"points_per_branch": True}}, "beta.points_per_branch"),
            (parse_capacity, {**MINIMAL, "entropy_targets_bits": [1.0, False]}, "entropy_targets_bits[1]"),
        ],
    )
    def test_json_booleans_are_not_numbers(self, parse, raw, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected .*, got bool$"):
            parse(raw)

    @pytest.mark.parametrize("key,value", [("seed", 0), ("tolerances", {"level_rel_tol": 1e-9})])
    def test_removed_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
            parse_scenario({**MINIMAL, key: value})

    def test_model_defaults_come_from_model_spec(self):
        assert parse_model({"family": "lmg", "N": 4}) == ModelSpec(family="lmg", n_cells=4)
        assert parse_model({"family": "dicke", "N": 4}) == ModelSpec(family="dicke", n_cells=4)
        spec = parse_model({"family": "jw_chain", "N": 8, "variant": "xy_nn", "lam": 2})
        assert spec == ModelSpec(
            family="jw_chain", n_cells=8, lam=2.0, lambdas=(0.0,), gammas=(1.0,)
        )

    def test_capacity_config(self):
        cfg = parse_capacity(
            {
                "model": {"family": "parallel", "N": 3},
                "beta": {"max_abs": 10.0},
                "entropy_targets_bits": [0.5, 1],
            }
        )
        assert cfg.beta_max_abs == 10.0
        assert cfg.entropy_targets_bits == (0.5, 1.0)

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(bad)

    def test_capacity_targets_that_print_alike_rejected(self):
        raw = {"model": {"family": "parallel", "N": 4}}
        for targets in ([1.0, 2.0, 1.0000001], [0.5, 0.5]):
            with pytest.raises(ConfigError, match=r"entropy_targets_bits: targets \['[0-9.]+'\] coincide"):
                parse_capacity({**raw, "entropy_targets_bits": targets})


class TestFormatting:
    def test_full_precision_roundtrip(self, tmp_path):
        values = (math.pi, 1 / 3, 1e-17, -2.5)
        write_csv(tmp_path / "out.csv", ["x"], [[x] for x in values])
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert tuple(float(line) for line in lines[1:]) == values

    def test_missing_values_are_empty(self, tmp_path):
        write_csv(tmp_path / "out.csv", ["x", "y"], [[float("nan"), None]])
        assert (tmp_path / "out.csv").read_text() == "x,y\n,\n"


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def scenario(self, tmp_path, **overrides):
        payload = {
            "model": {"family": "parallel", "N": 3},
            "time": {"steps": 120},
            "outputs": {"directory": str(tmp_path / "out"), "series": ["populations"]},
        }
        payload.update(overrides)
        return write_json(tmp_path / "scenario.json", payload)

    def test_simulate_and_certify(self, tmp_path):
        cfg = self.scenario(tmp_path)
        assert self.run("simulate", cfg) == 0
        csv_path = tmp_path / "out" / "trajectory.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith(
            "t,E,P,var_HB,var_HC,I_E,I_Q,cos_theta_P,bound_ratio_cor1,bound_ratio_heis"
        )
        assert ",p_0," in header + ","
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["certification_ok"] is True
        assert set(summary) == {
            "model", "N", "lam", "t_f", "t_f_at_boundary", "E_max", "stored_fraction",
            "witness_block_max", "max_ratio_fisher_power", "max_ratio_heisenberg",
            "certification_ok", "n_violations",
        }
        assert self.run("certify", str(csv_path)) == 0

    def test_certify_payload_reports_each_bound(self, tmp_path, capsys):
        self.run("simulate", self.scenario(tmp_path))
        capsys.readouterr()
        assert self.run("certify", str(tmp_path / "out" / "trajectory.csv")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["n_steps"] == 120
        assert sorted(payload["bounds"]) == sorted([
            "fisher_power_ratio", "heisenberg_ratio", "heisenberg_power",
            "dephasing_fisher", "fisher_vs_state", "cos_theta_range",
        ])
        assert payload["n_checks"] == sum(b["checks"] for b in payload["bounds"].values())
        assert payload["bounds"]["heisenberg_power"]["checks"] == 120
        assert payload["bounds"]["fisher_power_ratio"]["worst_ratio"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "name,lam", [("hybrid_n8", 0.9739910333096159), ("parallel_n8", 0.9268728488224802)]
    )
    def test_saturated_chargers_certify_at_rescaled_coupling(self, tmp_path, name, lam):
        # Near the energy peak both sides of the power bound vanish; the CSV
        # path once flagged ratio 1.0000000122 at rhs ~ 6e-6 (hybrid) and the
        # in-memory path a raw-variance moment_rate_m2 excess (parallel).
        raw = json.loads(Path(f"configs/{name}.json").read_text())
        raw["model"]["lam"] = lam
        raw["outputs"] = {"directory": str(tmp_path / "out")}
        assert self.run("simulate", write_json(tmp_path / "scenario.json", raw)) == 0
        assert self.run("certify", str(tmp_path / "out" / "trajectory.csv")) == 0

    def test_certify_flags_corruption(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path)
        self.run("simulate", cfg)
        capsys.readouterr()  # drop the simulate chatter
        csv_path = tmp_path / "out" / "trajectory.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        p_col = header.index("P")
        doctored = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            if cells[p_col]:
                cells[p_col] = format(2.0 * float(cells[p_col]), ".17g")
            doctored.append(",".join(cells))
        csv_path.write_text("\n".join(doctored) + "\n")
        assert self.run("certify", str(csv_path)) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(v["label"] == "heisenberg_power" for v in payload["violations"])

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"model": {"family": "nope", "N": 2}})
        assert self.run("simulate", cfg) == 2

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_too_few_steps_for_a_peak_exit_2_and_write_nothing(self, tmp_path, capsys, command):
        cfg = self.scenario(
            tmp_path, time={"steps": 2}, sweep={"values": [2, 3, 4, 5], "quantity": "avg_power"}
        )
        assert self.run(command, cfg) == 2
        assert "time.steps must be >= 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lam", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, lam):
        # Written as text: json.dumps cannot produce the overflowing literal 1e400.
        cfg = tmp_path / "nonfinite.json"
        cfg.write_text('{"model": {"family": "lmg", "N": 6, "lam": %s}}' % lam)
        assert self.run("simulate", str(cfg)) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model,key",
        [
            ({"family": "lmg", "N": 4, "gamma": 10**400}, "model.gamma"),
            ({"family": "lmg", "N": 4, "lam": -(10**400)}, "model.lam"),
            ({"family": "jw_chain", "N": 4, "lambdas": [10**400], "gammas": [1]}, "model.lambdas[0]"),
        ],
    )
    def test_integer_past_float_range_exit_code(self, tmp_path, capsys, model, key):
        assert self.run("simulate", self.scenario(tmp_path, model=model)) == 2
        assert f"config error: {key}: integer out of float range" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", [0, -1])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_nonpositive_charging_frequency_exit_code(self, tmp_path, capsys, command, lam):
        cfg = self.scenario(
            tmp_path,
            model={"family": "parallel", "N": 2, "lam": lam},
            sweep={"values": [2, 3, 4, 5], "quantity": "avg_power"},
        )
        assert self.run(command, cfg) == 2
        assert "lam must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,payload,key",
        [
            ("capacity", {"entropy_targets_bits": ["a"]}, "entropy_targets_bits[0]: expected"),
            ("capacity", {"entropy_targets_bits": "12"}, "entropy_targets_bits: expected list"),
            ("capacity", {"beta": {"max_abs": -5}}, "beta.max_abs: must be positive"),
            ("capacity", {"beta": {"points_per_branch": 0}}, "beta.points_per_branch: must be >= 1"),
            (
                "sweep",
                {"sweep": {"values": [2, "3", 4, 5], "quantity": "avg_power"}},
                "sweep.values[1]: expected int",
            ),
            (
                "sweep",
                {
                    "model": {"family": "lmg", "N": 4},
                    "sweep": {"parameter": "gamma", "values": [0.0, "x"], "quantity": "avg_power"},
                },
                "sweep.values[1]: expected int/float",
            ),
            (
                "sweep",
                {
                    "model": {"family": "lmg", "N": 4},
                    "sweep": {"parameter": "gamma", "values": [0.0, 0.5], "quantity": "nonsense"},
                },
                "sweep.quantity: unknown quantity 'nonsense'",
            ),
            (
                "sweep",
                {"sweep": {"values": [2, 3, 4, 5], "quantity": "nonsense"}},
                "sweep.quantity: unknown quantity 'nonsense'",
            ),
            (
                "sweep",
                {"sweep": {"values": [2, 3, 4, 5], "quantity": "avg_power", "path": "nonsense"}},
                "sweep.path: unknown evaluation path 'nonsense'",
            ),
            (
                "sweep",
                {
                    "model": {"family": "lmg", "N": 2},
                    "sweep": {"values": [2, 3, 4, 5], "quantity": "avg_power", "path": "analytic"},
                },
                "sweep.path: 'analytic' exists only for jw_chain",
            ),
            (
                "simulate",
                {"model": {"family": "jw_chain", "N": 4, "lambdas": "ab", "gammas": [1.0]}},
                "model.lambdas: expected list",
            ),
            (
                "simulate",
                {"model": {"family": "jw_chain", "N": 4, "lambdas": [1.0], "gammas": 2}},
                "model.gammas: expected list",
            ),
            (
                "simulate",
                {"model": {"family": "jw_chain", "N": 4, "lambdas": [1.0], "gammas": ["x"]}},
                "model.gammas[0]: expected int/float",
            ),
            (
                "simulate",
                {"model": {"family": "lmg", "N": 4, "gamma": "ab"}},
                "model.gamma: expected int/float",
            ),
            (
                "simulate",
                {"model": {"family": "hybrid", "N": 4, "q": "2", "r": 2}},
                "model.q: expected int",
            ),
            (
                "simulate",
                {"model": {"family": "dicke", "N": 2, "n_max": 12.5}},
                "model.n_max: expected int",
            ),
        ],
        ids=[
            "target-not-a-number", "targets-not-a-list", "beta-max-negative",
            "beta-no-points", "n-sweep-value-text", "gamma-sweep-value-text",
            "gamma-sweep-quantity", "n-sweep-quantity", "sweep-path", "sweep-analytic-path",
            "lambdas-text", "gammas-number", "gammas-entry-text", "gamma-text", "q-text",
            "n-max-float",
        ],
    )
    def test_bad_config_value_exit_code(self, tmp_path, capsys, command, payload, key):
        base = {"model": {"family": "parallel", "N": 2}, "outputs": {"directory": str(tmp_path / "o")}}
        cfg = write_json(tmp_path / "bad.json", {**base, **payload})
        assert self.run(command, cfg) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "model,sweep,message",
        [
            (
                {"family": "parallel", "N": 2},
                {"values": [2, 3, 4], "quantity": "avg_power"},
                "sweep.values: an N sweep needs at least 4 values, got 3",
            ),
            (
                {"family": "lmg", "N": 4},
                {"parameter": "gamma", "values": [], "quantity": "energy_at_tf"},
                "sweep.values: a gamma sweep needs at least one value",
            ),
            (
                {"family": "hybrid", "N": 4, "q": 2, "r": 2},
                {"values": [4, 6, 8, 9], "quantity": "avg_power"},
                "sweep.values: N = 9: hybrid block size r = 2 does not divide N",
            ),
            (
                {"family": "jw_chain", "N": 4, "variant": "xx_nn"},
                {"values": [4, 6, 8, 2000001], "quantity": "avg_power"},
                "sweep.values: N = 2000001: free-fermion sweep point of jw_chain N = 2000001 "
                "(120 steps) needs ~32.8 GB, over the 4.3 GB run limit",
            ),
            (
                {"family": "jw_chain", "N": 4, "variant": "xx_nn"},
                {"values": [4, 6, 8, 22], "quantity": "avg_power", "path": "dense"},
                "sweep.values: N = 22: dense run of jw_chain N = 22 (dim 4194304, 120 steps) "
                "needs ~16 GB, over the 4.3 GB run limit",
            ),
            (
                {"family": "parallel", "N": 4},
                {"values": [4, 6, 8, 24], "quantity": "avg_power", "path": "dense"},
                "sweep.values: N = 24: dense run of parallel N = 24 (dim 16777216, 120 steps) "
                "needs ~66.6 GB, over the 4.3 GB run limit",
            ),
            (
                {"family": "lmg", "N": 10},
                {"values": [10, 12, 14, 16], "quantity": "final_battery_entropy"},
                "sweep.quantity: 'final_battery_entropy' exists only for dicke, not lmg",
            ),
        ],
        ids=[
            "three-n-values", "empty-gamma-list", "hybrid-r-not-dividing",
            "auto-chain-odd-n-past-the-cap", "dense-chain-past-the-cap", "charger-past-the-cap",
            "entropy-off-dicke",
        ],
    )
    def test_rejected_sweep_runs_no_point(self, tmp_path, capsys, monkeypatch, model, sweep, message):
        calls = []
        monkeypatch.setattr(sweeps, "quantities_for", lambda *args: calls.append(args))
        cfg = self.scenario(tmp_path, model=model, sweep=sweep)
        assert self.run("sweep", cfg) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "out").exists()

    def test_a_sweep_point_refused_on_its_sector_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # Every point passes the first stage at parse time; the N = 10 point's
        # 226-state sector is known only when it runs, after N = 4, 6 and 8.
        model = {"family": "dicke", "N": 4, "lam": 0.01, "n_max": 40}
        last = ModelSpec(family="dicke", n_cells=10, lam=0.01, n_max=40)
        monkeypatch.setattr(models, "RUN_BYTES_MAX", models.check_dense_size(last, 120, 200))
        cfg = self.scenario(tmp_path, model=model, sweep={"values": [4, 6, 8, 10], "quantity": "avg_power"})
        assert self.run("sweep", cfg) == 2
        err = capsys.readouterr().err
        assert "error: dense run of dicke N = 10 (dim 451, n_max 40, 120 steps) on 226 states" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,model,time,sweep,message",
        [
            # Refused on psi0's 6507-state sector, after its entry list is built.
            ("simulate", {"family": "dicke", "N": 12, "n_max": 1000}, {}, None,
             "error: dense run of dicke N = 12 (dim 13013, n_max 1000, 120 steps) on 6507 states "
             "needs ~4.82 GB"),
            ("sweep", {"family": "jw_chain", "N": 4, "variant": "xy_nn"}, {},
             {"values": [4, 6, 8, 22], "quantity": "avg_power", "path": "dense"},
             "config error: sweep.values: N = 22: dense run of jw_chain N = 22 (dim 4194304, "
             "120 steps) needs ~16 GB"),
            # LMG's entry list is O(N); its 10001-state sector is what is refused.
            ("simulate", {"family": "lmg", "N": 20000}, {}, None,
             "error: dense run of lmg N = 20000 (dim 20001, 120 steps) on 10001 states "
             "needs ~11.5 GB"),
            ("simulate", {"family": "lmg", "N": 2}, {"steps": 10**12}, None,
             "error: dense run of lmg N = 2 (dim 3, 1000000000000 steps) needs ~1.92e+05 GB"),
            ("sweep", {"family": "lmg", "N": 20}, {"steps": 10**12},
             {"parameter": "gamma", "values": [-1.0, 0.0], "quantity": "energy_at_tf"},
             "error: dense run of lmg N = 20 (dim 21, 1000000000000 steps) needs ~1.34e+06 GB"),
            ("sweep", {"family": "lmg", "N": 10}, {},
             {"values": [10, 20, 40, 10**7], "quantity": "avg_power"},
             "config error: sweep.values: N = 10000000: dense run of lmg N = 10000000 "
             "(dim 10000001, 120 steps) needs ~82.9 GB"),
            # Byte counts past float range: formatted, not converted.
            ("sweep", {"family": "parallel", "N": 2}, {},
             {"values": [2, 3, 4, 600], "quantity": "avg_power", "path": "dense"},
             "config error: sweep.values: N = 600: dense run of parallel N = 600 (dim 2^600, "
             "120 steps) needs ~3.99e+176 GB"),
            ("sweep", {"family": "jw_chain", "N": 5, "variant": "xy_nn"}, {},
             {"values": [5, 7, 9, 1001], "quantity": "avg_power", "path": "dense"},
             "config error: sweep.values: N = 1001: dense run of jw_chain N = 1001 (dim 2^1001, "
             "120 steps) needs ~3.44e+297 GB"),
            ("sweep", {"family": "jw_chain", "N": 4, "variant": "xy_nn"}, {},
             {"values": [4, 6, 8, 601], "quantity": "avg_power", "path": "dense"},
             "config error: sweep.values: N = 601: dense run of jw_chain N = 601 (dim 2^601, "
             "120 steps) needs ~8e+176 GB"),
        ],
        ids=["dicke-n12-sector", "dense-chain-n22", "lmg-n20000", "simulate-steps", "sweep-steps",
             "lmg-sweep-point", "dense-parallel-sweep-n600", "odd-chain-n1001", "dense-sweep-n601"],
    )
    def test_dense_run_over_the_limit_exits_2_and_builds_nothing(
        self, tmp_path, capsys, monkeypatch, command, model, time, sweep, message
    ):
        def refuse(*args):
            pytest.fail("a dense run was started")

        # A run refused on its sector has built the charger's entries, and
        # nothing dense; any other is refused before the charger and the grid.
        if " states needs" not in message:
            for name in ("build_charger_for", "time_grid"):
                monkeypatch.setattr(trajectory, name, refuse)
        monkeypatch.setattr(SparseHermitian, "lump", refuse)
        monkeypatch.setattr(trajectory, "eigendecompose", refuse)
        monkeypatch.setattr(sweeps, "quantities_for", refuse)
        sections = {"sweep": sweep} if sweep else {}
        cfg = self.scenario(tmp_path, model=model, time={"steps": 120, **time}, **sections)
        assert self.run(command, cfg) == 2
        assert f"{message}, over the 4.3 GB run limit\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,sweep,message",
        [
            ("simulate", None, "error: free-fermion run of jw_chain N = 8 (1000000000000 steps) "
             "needs ~2.29e+06 GB"),
            ("sweep", {"values": [4, 6, 8, 10], "quantity": "avg_power", "path": "analytic"},
             "config error: sweep.values: N = 4: free-fermion sweep point of jw_chain N = 4 "
             "(1000000000000 steps) needs ~1.28e+05 GB"),
        ],
        ids=["simulate", "analytic-sweep"],
    )
    def test_free_fermion_run_over_the_limit_exits_2_and_builds_nothing(
        self, tmp_path, capsys, monkeypatch, command, sweep, message
    ):
        def refuse(*args):
            pytest.fail("a free-fermion run was started")

        for name in ("dispersion", "time_grid"):
            monkeypatch.setattr(trajectory, name, refuse)
        monkeypatch.setattr(sweeps, "quantities_for", refuse)
        sections = {"sweep": sweep} if sweep else {}
        model = {"family": "jw_chain", "N": 8, "variant": "xy_nn"}
        cfg = self.scenario(tmp_path, model=model, time={"steps": 10**12}, **sections)
        assert self.run(command, cfg) == 2
        assert f"{message}, over the 4.3 GB run limit\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,model,sweep,message",
        [
            ("simulate", {"family": "parallel", "N": 8}, None,
             "error: closed-form run of parallel N = 8 (1000000000000 steps) needs ~2.29e+06 GB"),
            ("simulate", {"family": "global", "N": 8}, None,
             "error: closed-form run of global N = 8 (1000000000000 steps) needs ~2.29e+06 GB"),
            ("sweep", {"family": "hybrid", "N": 4, "q": 2, "r": 2},
             {"values": [4, 6, 8, 10], "quantity": "avg_power", "path": "analytic"},
             "config error: sweep.values: N = 4: closed-form sweep point of hybrid N = 4 "
             "(1000000000000 steps) needs ~1.28e+05 GB"),
        ],
        ids=["parallel", "global", "hybrid-sweep"],
    )
    def test_closed_form_run_over_the_limit_exits_2_and_builds_nothing(
        self, tmp_path, capsys, monkeypatch, command, model, sweep, message
    ):
        def refuse(*args):
            pytest.fail("a closed-form run was started")

        for name in ("dispersion", "time_grid"):
            monkeypatch.setattr(trajectory, name, refuse)
        monkeypatch.setattr(sweeps, "quantities_for", refuse)
        sections = {"sweep": sweep} if sweep else {}
        cfg = self.scenario(tmp_path, model=model, time={"steps": 10**12}, **sections)
        assert self.run(command, cfg) == 2
        assert f"{message}, over the 4.3 GB run limit\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model,backend",
        [({"family": "jw_chain", "N": 4, "variant": "xy_nn"}, "free-fermion"),
         ({"family": "jw_chain", "N": 5, "variant": "xy_nn"}, "free-fermion"),
         ({"family": "jw_chain", "N": 1001, "variant": "xy_nn"}, "free-fermion"),
         ({"family": "parallel", "N": 3}, "closed-form"),
         ({"family": "parallel", "N": 600}, "closed-form"),
         ({"family": "global", "N": 5}, "closed-form"),
         ({"family": "hybrid", "N": 6, "q": 3, "r": 2}, "closed-form"),
         ({"family": "lmg", "N": 3}, "dense")],
        ids=["even-chain", "odd-chain", "odd-chain-n1001", "parallel", "parallel-n600", "global",
             "hybrid", "lmg"],
    )
    def test_simulate_names_the_backend(self, tmp_path, capsys, model, backend):
        assert self.run("simulate", self.scenario(tmp_path, model=model)) == 0
        assert capsys.readouterr().out.endswith(f" (120 steps, {backend} path)\n")
        assert self.run("certify", str(tmp_path / "out" / "trajectory.csv")) == 0

    @pytest.mark.parametrize("command", ["validate", "table1"])
    def test_negative_seed_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as usage:
            self.run(command, "--seed", "-1")
        assert usage.value.code == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["inf", "-inf", "nan", "-1", "0", "abc"])
    def test_table1_lam_not_finite_positive_is_a_usage_error(self, capsys, lam):
        with pytest.raises(SystemExit) as usage:
            self.run("table1", f"--lam={lam}")  # "--lam -inf" would read -inf as an option
        assert usage.value.code == 2
        assert f"argument --lam: expected a finite positive number, got {lam!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["1e200", "1e154"])
    def test_table1_lam_overflowing_the_closed_form_exits_2(self, capsys, lam):
        # lam**2 raises OverflowError at 1e200; 4 q lam^2 overflows to inf at 1e154.
        assert self.run("table1", "--lam", lam) == 2
        err = capsys.readouterr().err
        assert "the closed-form entry I_E = 4 q lam^2 of parallel N = 2 overflows a float" in err
        assert "Traceback" not in err

    def test_table1_at_a_large_lam_exits_0(self, capsys):
        # The population rates grow as N lam, and so does their sum's rounding.
        assert self.run("table1", "--lam", "1e8") == 0
        assert capsys.readouterr().out.endswith("210/210 cells passed\n")

    def test_the_parser_is_built_once_and_dispatches_at_call_time(self, tmp_path, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "cmd_certify", lambda args: 7 if args.trajectory == "x.csv" else 0)
        assert self.run("certify", "x.csv") == 7

    def test_repeated_config_key_exit_2_and_write_nothing(self, tmp_path, capsys):
        # The object is written by hand: a dict cannot hold the repeated key.
        cfg = tmp_path / "scenario.json"
        out = tmp_path / "out"
        cfg.write_text(
            '{"model": {"family": "parallel", "N": 4, "lam": 1.0, "lam": 2.0}, '
            f'"outputs": {{"directory": {json.dumps(str(out))}}}}}'
        )
        assert self.run("simulate", str(cfg)) == 2
        assert "repeated keys ['lam']" in capsys.readouterr().err
        assert not out.exists()

    def test_capacity_targets_that_print_alike_exit_2_and_write_nothing(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "capacity.json",
            {
                "model": {"family": "parallel", "N": 4},
                "entropy_targets_bits": [1.0, 2.0, 1.0000001],
                "outputs": {"directory": str(tmp_path / "out")},
            },
        )
        assert self.run("capacity", cfg) == 2
        assert "targets ['1'] coincide" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_capacity_with_an_unreachable_target_writes_nothing(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "capacity.json",
            {
                "model": {"family": "parallel", "N": 4},
                "entropy_targets_bits": [1.0, 5.0],
                "outputs": {"directory": str(tmp_path / "out")},
            },
        )
        assert self.run("capacity", cfg) == 2
        assert "target entropy 5.0 exceeds log2(dim)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_failing_at_its_first_point_writes_nothing(self, tmp_path, capsys):
        model = {"family": "parallel", "N": 2, "lam": 0}
        cfg = self.scenario(tmp_path, model=model, sweep={"values": [2, 3, 4, 5], "quantity": "avg_power"})
        assert self.run("sweep", cfg) == 2
        assert "lam must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_limit_exit_code(self, tmp_path):
        cfg = self.scenario(tmp_path, model={"family": "lmg", "N": 20000})
        assert self.run("simulate", cfg) == 2

    def test_sweep_command(self, tmp_path):
        cfg = self.scenario(
            tmp_path,
            sweep={"values": [2, 3, 4, 5], "quantity": "avg_power"},
        )
        assert self.run("sweep", cfg) == 0
        scaling = json.loads((tmp_path / "out" / "scaling.json").read_text())
        assert abs(scaling["exponent"] - 1.0) < 0.02
        rows = (tmp_path / "out" / "scaling.csv").read_text().splitlines()
        assert rows[0].startswith("N,") and len(rows) == 5

    def test_gamma_scan(self, tmp_path):
        cfg = self.scenario(
            tmp_path,
            model={"family": "lmg", "N": 10, "lam": 5.0},
            time={"steps": 300},
            sweep={"parameter": "gamma", "values": [-1.0, 0.0, 1.0], "quantity": "energy_at_tf"},
        )
        assert self.run("sweep", cfg) == 0
        rows = (tmp_path / "out" / "gamma_scan.csv").read_text().splitlines()
        header = rows[0].split(",")
        e_col = header.index("energy_at_tf")
        energies = [float(r.split(",")[e_col]) for r in rows[1:]]
        assert energies[0] > energies[1] > energies[2] - 1e-9
        assert abs(energies[2]) < 1e-9  # no charging at gamma = 1

    def test_capacity_command(self, tmp_path):
        cfg = write_json(
            tmp_path / "cap.json",
            {
                "model": {"family": "parallel", "N": 3},
                "entropy_targets_bits": [1.5],
                "outputs": {"directory": str(tmp_path / "cap")},
            },
        )
        assert self.run("capacity", cfg) == 0
        diagram = (tmp_path / "cap" / "diagram.csv").read_text().splitlines()
        assert diagram[0] == "beta,E,S_bits"
        summary = json.loads((tmp_path / "cap" / "capacity.json").read_text())
        assert summary["capacity_S0"] == 3.0
        target = summary["entropy_targets"]["1.5"]
        assert target["E_min"] == pytest.approx(-target["E_max"], abs=1e-9)

    def capacity_config(self, tmp_path, name, model, targets):
        return write_json(
            tmp_path / f"{name}.json",
            {
                "model": model,
                "entropy_targets_bits": targets,
                "outputs": {"directory": str(tmp_path / name)},
            },
        )

    def test_capacity_diagram_is_the_register_for_every_family(self, tmp_path):
        # The battery is the same four cells whatever charges them.
        models = {
            "parallel": {"family": "parallel", "N": 4},
            "lmg": {"family": "lmg", "N": 4, "lam": 5.0},
            "dicke": {"family": "dicke", "N": 4, "lam": 0.3},
        }
        outputs = []
        for name, model in models.items():
            assert self.run("capacity", self.capacity_config(tmp_path, name, model, [1.0, 2.5])) == 0
            outputs.append([(tmp_path / name / f).read_bytes() for f in ("capacity.json", "diagram.csv")])
        assert outputs[0] == outputs[1] == outputs[2]
        summary = json.loads(outputs[0][0])
        assert summary["dim"] == 16 and summary["capacity_S0"] == 4.0

    def test_capacity_at_large_n(self, tmp_path):
        model = {"family": "parallel", "N": 1000}
        assert self.run("capacity", self.capacity_config(tmp_path, "big", model, [1.0, 500.0])) == 0
        summary = json.loads((tmp_path / "big" / "capacity.json").read_text())
        assert summary["capacity_S0"] == 1000.0 and summary["dim"] == 2**1000
        assert 0.0 < summary["entropy_targets"]["500"]["capacity"] < 1000.0

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-string limit"
    )
    def test_capacity_dim_beyond_printable_integers(self, tmp_path, capsys):
        # Python writes integers of at most 4300 digits by default; 2^15000 has 4516.
        model = {"family": "parallel", "N": 15000}
        assert self.run("capacity", self.capacity_config(tmp_path, "huge", model, [1.0])) == 2
        assert "dim = 2^N cannot be written exactly" in capsys.readouterr().err
        assert not (tmp_path / "huge").exists()

    def test_momentum_sector_exit_code(self, tmp_path, capsys):
        model = {"family": "jw_chain", "N": 8, "variant": "xx_nn", "momentum_sector": "antiperiodic_grid"}
        assert self.run("simulate", self.scenario(tmp_path, model=model)) == 2
        assert "unknown keys ['momentum_sector']" in capsys.readouterr().err

    def test_foreign_family_key_exit_code(self, tmp_path, capsys):
        model = {"family": "parallel", "N": 3, "gamma": 0.5, "q": 3, "n_max": 50}
        assert self.run("simulate", self.scenario(tmp_path, model=model)) == 2
        assert "model.gamma, model.n_max, model.q" in capsys.readouterr().err

    def test_no_normalization_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run("simulate", self.scenario(tmp_path), "--no-normalization")
        assert exc.value.code == 2

    def simulated_csv(self, tmp_path) -> Path:
        assert self.run("simulate", self.scenario(tmp_path)) == 0
        return tmp_path / "out" / "trajectory.csv"

    def assert_certify_config_error(self, path, capsys, message):
        assert self.run("certify", str(path)) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err and message in err

    def test_certify_missing_file(self, tmp_path, capsys):
        self.assert_certify_config_error(tmp_path / "absent.csv", capsys, "cannot read")

    def test_certify_ragged_row(self, tmp_path, capsys):
        csv_path = self.simulated_csv(tmp_path)
        lines = csv_path.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:4])
        csv_path.write_text("\n".join(lines) + "\n")
        self.assert_certify_config_error(csv_path, capsys, "malformed")
        # Every row short of the header is ragged too.
        short = [lines[0]] + [",".join(line.split(",")[:4]) for line in lines[1:]]
        csv_path.write_text("\n".join(short) + "\n")
        self.assert_certify_config_error(csv_path, capsys, "rows have 4 fields")

    def test_certify_non_numeric_field(self, tmp_path, capsys):
        csv_path = self.simulated_csv(tmp_path)
        lines = csv_path.read_text().splitlines()
        lines[5] = "abc," + lines[5].split(",", 1)[1]
        csv_path.write_text("\n".join(lines) + "\n")
        self.assert_certify_config_error(csv_path, capsys, "malformed")

    def test_certify_header_only(self, tmp_path, capsys):
        # A body of blank lines holds no rows either.
        csv_path = self.simulated_csv(tmp_path)
        header = csv_path.read_text().splitlines()[0]
        for body in ("", "\n\n \r\n"):
            csv_path.write_text(header + "\n" + body)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.assert_certify_config_error(csv_path, capsys, "no data rows")

    def test_certify_repeated_column(self, tmp_path, capsys):
        # A second P column, equal to the first: read silently, the last P would win.
        csv_path = self.simulated_csv(tmp_path)
        lines = csv_path.read_text().splitlines()
        p = lines[0].split(",").index("P")
        lines = [line + "," + line.split(",")[p] for line in lines]
        csv_path.write_text("\n".join(lines) + "\n")
        self.assert_certify_config_error(csv_path, capsys, "repeated columns ['P']")

    def test_missing_command_column(self, tmp_path):
        bad = tmp_path / "partial.csv"
        bad.write_text("t,E\n0,0\n")
        assert self.run("certify", str(bad)) == 2

    def test_table1_command(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert self.run("table1", "--json", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith(("PASS", "FAIL")) or "cells passed" in line for line in lines)
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True

    def test_validate_command(self):
        assert self.run("validate") == 0
