#!/usr/bin/env python3
"""Run every shipped charging scenario, emit trajectory CSVs, and certify.

Each scenario's summary.json holds the fields of ``qbattery simulate``'s
summary plus the scenario name.

Usage: python scripts/run_certification_suite.py [output_root]
"""

import sys
from pathlib import Path

from qbattery.cli import simulation_summary
from qbattery.config import load_scenario
from qbattery.output import write_json, write_trajectory_csv
from qbattery.trajectory import find_tf, run_trajectory
from qbattery.verification import certify_trajectory

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCENARIOS = [
    "parallel_n8", "global_n8", "hybrid_n8",
    "jw_xx_nn_n8", "jw_xy_nn_n8", "jw_xx_pow_n8", "jw_xy_pow_n8",
    "lmg_n20_lam5", "lmg_n20_lam20",
    "dicke_n8_weak", "dicke_n8_strong",
]


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    failures = 0
    for name in SCENARIOS:
        cfg = load_scenario(CONFIG_DIR / f"{name}.json")
        traj = run_trajectory(cfg.spec, cfg.lam_t_max, cfg.steps)
        peak = find_tf(traj)
        report = certify_trajectory(traj)
        out_dir = root / name
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out_dir / "trajectory.csv", "populations" in cfg.series)
        write_json(out_dir / "summary.json",
                   {"scenario": name, **simulation_summary(traj, peak, report)})
        status = "ok " if report.ok else "VIOLATED"
        failures += not report.ok
        print(f"{status} {name:18s} E_max={peak.energy_max:9.4f} "
              f"fraction={report.amplitude.stored_fraction:.4f} "
              f"witness<= {report.witness_block_max:2d} "
              f"max_ratio={report.max_ratio_fisher_power:.6f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
