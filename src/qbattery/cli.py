"""Command-line harness.

Subcommands: simulate, sweep, capacity, table1, certify, validate.
Exit codes: 0 success, 2 configuration error, 3 bound violation (certify),
4 numerical-validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .capacity import capacity_at_entropy, solve_beta_for_entropy, thermal_curve
from .config import load_capacity, load_scenario
from .errors import ConfigError, QBatteryError
from .models import register_spectrum
# No command uses these two; they are kept only for the benchmark tracer,
# which patches qbattery.cli.build_battery_for and qbattery.cli.eigendecompose.
from .linalg import eigendecompose  # noqa: F401
from .models import build_battery_for  # noqa: F401
from .output import (
    TRAJECTORY_COLUMNS,
    write_diagram_csv,
    write_json,
    write_scaling_outputs,
    write_sweep_csv,
    write_trajectory_csv,
)
from .sweeps import fit_exponent, sweep
from .trajectory import PeakResult, Trajectory, find_tf, run_trajectory
from .verification import (
    CSV_BOUNDS, CertificationReport, certify_series, certify_trajectory, run_oracle_checks,
    verify_benchmark_table,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_VALIDATION = 4


def simulation_summary(traj: Trajectory, peak: PeakResult, report: CertificationReport) -> dict:
    """The fields of ``simulate``'s summary.json for a run, its energy peak
    and its certification."""
    spec = traj.spec
    summary = {
        "model": spec.family,
        "N": spec.n_cells,
        "lam": spec.lam,
        "t_f": peak.t_f,
        "t_f_at_boundary": peak.at_boundary,
        "E_max": peak.energy_max,
        "stored_fraction": report.amplitude.stored_fraction,
        "witness_block_max": report.witness_block_max,
        "max_ratio_fisher_power": report.max_ratio_fisher_power,
        "max_ratio_heisenberg": report.max_ratio_heisenberg,
        "certification_ok": report.ok,
        "n_violations": len(report.violations),
    }
    if spec.family == "dicke":
        summary["n_max_used"] = spec.n_max
        summary["fock_edge_population"] = traj.fock_edge_population
        summary["initial_var_charger"] = float(traj.var_charger[0])
    return summary


def cmd_simulate(args) -> int:
    cfg = load_scenario(args.config)
    traj = run_trajectory(cfg.spec, cfg.lam_t_max, cfg.steps)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out_dir / "trajectory.csv", "populations" in cfg.series)
    peak = find_tf(traj)
    report = certify_trajectory(traj)
    write_json(out_dir / "summary.json", simulation_summary(traj, peak, report))
    print(f"wrote {out_dir / 'trajectory.csv'} and summary.json ({traj.n_steps} steps)")
    if not report.ok:
        print(f"certification found {len(report.violations)} violation(s)", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_scenario(args.config)  # checks every sweep rule before any point runs
    if cfg.sweep is None:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    parameter, values, quantity = cfg.sweep.parameter, list(cfg.sweep.values), cfg.sweep.quantity
    rows = sweep(cfg.spec, parameter, values, cfg.lam_t_max, cfg.steps, cfg.sweep.path)
    fit = fit_exponent(values, [row[quantity] for row in rows], quantity) if parameter == "N" else None
    out_dir = Path(cfg.output_dir)  # made only once every row and the fit exist
    out_dir.mkdir(parents=True, exist_ok=True)
    if fit is None:
        write_sweep_csv(out_dir / "gamma_scan.csv", "gamma", values, rows)
        print(f"wrote {out_dir / 'gamma_scan.csv'} ({len(rows)} points)")
        return EXIT_OK
    write_scaling_outputs(fit, values, rows, out_dir)
    print(
        f"{quantity}: exponent {fit.exponent:.4f} "
        f"(residual {fit.residual:.2e}, excluded {list(fit.excluded)})"
    )
    return EXIT_OK


def cmd_capacity(args) -> int:
    cfg = load_capacity(args.config)
    # Every family charges the same N non-interacting cells, so the diagram
    # is the register's level spectrum whatever the charger, at any N.
    n = cfg.spec.n_cells
    try:  # capacity.json records dim = 2^N exactly: fail before the work, not after
        str(2**n)
    except ValueError as exc:  # longer than sys.get_int_max_str_digits()
        raise ConfigError(f"model.N = {n}: dim = 2^N cannot be written exactly ({exc})") from exc
    battery = register_spectrum(n)
    pos = np.logspace(-3, math.log10(cfg.beta_max_abs), cfg.points_per_branch)
    betas = np.concatenate([-pos[::-1], [0.0], pos])
    curve = thermal_curve(battery, betas)
    targets = {}
    for s_bits in cfg.entropy_targets_bits:
        low = solve_beta_for_entropy(battery, s_bits, "positive_beta")
        high = solve_beta_for_entropy(battery, s_bits, "negative_beta")
        targets[format(s_bits, ".6g")] = {
            "E_min": low.energy,
            "E_max": high.energy,
            "beta_positive": low.beta,
            "beta_negative": high.beta,
            "capacity": capacity_at_entropy(battery, s_bits),
        }
    summary = {
        "N": n,
        "dim": 2**n,
        "capacity_S0": float(n),  # the spectral range N/2 - (-N/2)
        "entropy_targets": targets,
    }
    out_dir = Path(cfg.output_dir)  # made only once the curve and every target exist
    out_dir.mkdir(parents=True, exist_ok=True)
    write_diagram_csv(curve, out_dir / "diagram.csv")
    write_json(out_dir / "capacity.json", summary)
    print(f"wrote {out_dir / 'diagram.csv'} and capacity.json")
    return EXIT_OK


def cmd_table1(args) -> int:
    report = verify_benchmark_table(seed=args.seed, lam=args.lam)
    for cell in report.cells:
        tag = "PASS" if cell.passed else "FAIL"
        layout = f" q={cell.q} r={cell.r}" if cell.family == "hybrid" else ""
        print(
            f"{tag} {cell.family:8s} N={cell.n_cells}{layout:10s} {cell.cell:22s} "
            f"expected {cell.expected:.12g} actual {cell.actual:.12g}"
        )
    n_fail = len(report.failed())
    print(f"{len(report.cells) - n_fail}/{len(report.cells)} cells passed")
    if args.json:
        write_json(
            args.json,
            {
                "all_passed": report.all_passed,
                "cells": [
                    {
                        "family": c.family,
                        "N": c.n_cells,
                        "q": c.q,
                        "r": c.r,
                        "cell": c.cell,
                        "expected": c.expected,
                        "actual": c.actual,
                        "passed": c.passed,
                    }
                    for c in report.cells
                ],
            },
        )
    return EXIT_OK if report.all_passed else EXIT_VALIDATION


def _undefined_as_nan(body: str) -> list[str]:
    """The lines of a CSV body with "nan" in every empty (undefined) field,
    so that ``np.loadtxt`` parses them in C with no per-field converter.
    One pass over the lines; only a line with an empty field is rebuilt."""
    lines = body.splitlines()
    for i, line in enumerate(lines):
        if ",," in line or line[:1] == "," or line[-1:] == ",":
            lines[i] = ",".join(field or "nan" for field in line.split(","))
    return lines


def _read_trajectory_csv(path: str) -> dict[str, np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            header = handle.readline().rstrip("\r\n").split(",")
            body = handle.read()
        if not body:
            raise ConfigError(f"{path}: trajectory CSV has no data rows")
        data = np.loadtxt(_undefined_as_nan(body), delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read trajectory CSV ({exc.strerror})") from exc
    except ValueError as exc:  # a ragged row, a non-numeric field or bad bytes
        raise ConfigError(f"{path}: malformed trajectory CSV ({exc})") from exc
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: rows have {data.shape[1]} fields, the header {len(header)}")
    missing = [c for c in TRAJECTORY_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"{path}: missing trajectory columns {missing}")
    return dict(zip(header, data.T))


def cmd_certify(args) -> int:
    cols = _read_trajectory_csv(args.trajectory)
    report = certify_series(cols, CSV_BOUNDS, undefined_fails=False)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_validate(args) -> int:
    checks = run_oracle_checks(seed=args.seed)
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VALIDATION


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, the seeds numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Quantum-battery charging simulations with power and capacity bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory and emit CSV + summary JSON")
    p.add_argument("config", help="scenario JSON file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run an N or gamma sweep with a scaling fit")
    p.add_argument("config", help="scenario JSON file with a sweep section")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("capacity", help="emit the energy-entropy diagram and entropy targets")
    p.add_argument("config", help="capacity JSON file")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("table1", help="verify the closed-form benchmark table")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--json", help="optional JSON report path")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("certify", help="re-check bound columns of an emitted trajectory CSV")
    p.add_argument("trajectory", help="trajectory.csv produced by simulate")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("validate", help="run all independent-oracle cross-checks")
    p.add_argument("--seed", type=_seed, default=1)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QBatteryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
