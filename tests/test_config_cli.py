import json
import math
from pathlib import Path

import pytest

from qbattery import ConfigError
from qbattery.cli import main
from qbattery.config import load_scenario, parse_capacity, parse_model, parse_scenario
from qbattery.output import format_value


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


MINIMAL = {"model": {"family": "parallel", "N": 4}}


class TestSchema:
    def test_minimal_scenario(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.spec.family == "parallel"
        assert cfg.steps == 2000 and cfg.seed == 0

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


class TestFormatting:
    def test_full_precision_roundtrip(self):
        for x in (math.pi, 1 / 3, 1e-17, -2.5):
            assert float(format_value(x)) == x

    def test_missing_values_are_empty(self):
        assert format_value(float("nan")) == ""
        assert format_value(None) == ""


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
                cells[p_col] = format_value(2.0 * float(cells[p_col]))
            doctored.append(",".join(cells))
        csv_path.write_text("\n".join(doctored) + "\n")
        assert self.run("certify", str(csv_path)) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(v["label"] == "heisenberg_power" for v in payload["violations"])

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"model": {"family": "nope", "N": 2}})
        assert self.run("simulate", cfg) == 2

    def test_model_limit_exit_code(self, tmp_path):
        cfg = self.scenario(tmp_path, model={"family": "parallel", "N": 20})
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
