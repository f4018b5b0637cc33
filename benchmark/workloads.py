"""The benchmark's three workloads, built from a seed, and their output checks.

Seed 0 uses the shipped configs unchanged.  Any other seed perturbs each
item within the shipped ranges: ``lam`` of the families shipped with several
values (lmg 5..20, dicke 0.01..0.5) is scaled by a factor in [0.9, 1.1] and
kept in that range, and a chain's coupling kind (xx or xy) is redrawn while
its coupling law (nearest-neighbour or power law) stays.  The other families
are shipped only at lam = 1, which they keep.  None of this changes the dense
dimensions, the number of steps or the Fock cutoffs, so the work per pass
stays nearly the same across seeds while the numbers differ.  The capacity
items take no ``lam``; they are the same on every seed.

The free-fermion ladder keeps ``xy_nn`` on every seed; the seed shifts its
Fisher sample times instead, by less than one sampling stride.  The Fisher
series costs depend on the variant (``xx_nn`` took 22% longer at N = 1000 on
a 2-core host), so redrawing it would make a pass's cost depend on the seed.

An item's ``run`` is the timed call into the package.  Its ``check`` reads the
outputs afterwards, untimed, and returns the values that are compared with the
frozen reference plus the problems found by checks that need no reference.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qbattery import capacity, cli, config, freefermion, linalg, models, sweeps, trajectory
from qbattery.errors import ValidationError

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("scenarios", "dense_scaling", "analytic_chain")

SCENARIOS = (
    "parallel_n8", "global_n8", "hybrid_n8",
    "jw_xx_nn_n8", "jw_xx_pow_n8", "jw_xy_nn_n8", "jw_xy_pow_n8",
    "lmg_n20_lam5", "lmg_n20_lam20", "dicke_n8_weak", "dicke_n8_strong",
)
LAM_FACTOR = (0.9, 1.1)
# Smallest and largest lam of the families shipped with more than one value.
LAM_RANGES = {"lmg": (5.0, 20.0), "dicke": (0.01, 0.5)}

DENSE_CHAIN_SWEEP = {
    "model": {"family": "jw_chain", "N": 4, "variant": "xy_nn"},
    "time": {"steps": 2000},
    "sweep": {"values": [4, 6, 8, 10], "quantity": "cos_theta_timeavg", "path": "dense"},
}
CAPACITY_N = 12
LADDER_STEPS = 2000
# Fisher-series steps per rung: every stride-th point of the time grid, so the
# N = 200, 1000 and 2000 rungs take 200, 40 and 10 steps, about 0.3, 1 and
# 1.7 s on a 2-core host.
LADDER = ((200, 10), (1000, 50), (2000, 200))
LADDER_VARIANT = "xy_nn"

# Tolerance of the comparison with the frozen reference: |got - want| <=
# ATOL + RTOL |want|.  Outputs of this commit reproduce it to the last digit;
# the slack admits reordered arithmetic (another BLAS, a real-valued path).
RTOL = 1e-6
ATOL = 1e-9
CSV_SAMPLE_STRIDE = 50
SUM_RULE_P_TOL = 1e-10
SUM_RULE_PDOT_TOL = 1e-9


@dataclass
class Item:
    key: str
    inputs: dict
    points: int  # time-grid points the item's outputs deliver
    run: Callable[[], Any]
    check: Callable[[Any], tuple[dict, list[str]]]


def _num(x):
    """JSON-safe copy of an output value; NaN becomes None."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, float, np.integer, np.floating)):
        x = float(x)
        return None if math.isnan(x) else x
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_num(v) for v in x]
    return x


def _close(got, want) -> bool:
    if want is None or got is None or isinstance(want, (bool, str)):
        return got == want
    return abs(got - want) <= ATOL + RTOL * abs(want)


def compare(values: dict, reference: dict) -> list[str]:
    """Mismatches between an item's values and its frozen reference values."""
    problems = []
    for key, want in reference.items():
        if key.endswith("sha256"):
            continue
        if key not in values:
            problems.append(f"{key}: missing")
            continue
        got = values[key]
        got_list = got if isinstance(got, list) else [got]
        want_list = want if isinstance(want, list) else [want]
        if len(got_list) != len(want_list):
            problems.append(f"{key}: {len(got_list)} values, reference has {len(want_list)}")
            continue
        for i, (g, w) in enumerate(zip(got_list, want_list)):
            if not _close(g, w):
                problems.append(f"{key}[{i}]: {g!r} differs from reference {w!r}")
                break
    return problems


def _read_csv(path: Path) -> tuple[list[str], np.ndarray, str]:
    raw = path.read_bytes()
    reader = csv.reader(io.StringIO(raw.decode("utf-8")))
    header = next(reader)
    rows = [[float(c) if c else math.nan for c in row] for row in reader]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header)), hashlib.sha256(raw).hexdigest()


def _csv_values(prefix: str, header: list[str], data: np.ndarray) -> dict:
    values = {}
    for j, name in enumerate(header):
        column = data[:, j]
        values[f"{prefix}.{name}"] = _num(column[::CSV_SAMPLE_STRIDE])
        values[f"{prefix}.{name}.sum"] = _num(np.nansum(column))
    return values


def _write_config(raw: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    return path


def _perturb(model: dict, rng: random.Random | None) -> dict:
    if rng is None:
        return model
    model = dict(model)
    if model["family"] in LAM_RANGES:
        low, high = LAM_RANGES[model["family"]]
        model["lam"] = min(max(model["lam"] * rng.uniform(*LAM_FACTOR), low), high)
    if "variant" in model:
        law = model["variant"].split("_")[1]
        model["variant"] = f"{rng.choice(('xx', 'xy'))}_{law}"
    return model


def _shipped(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))


# -- scenarios ---------------------------------------------------------------


def _scenario_item(name: str, rng, workdir: Path) -> Item:
    shipped = _shipped(name)
    inputs = {"model": _perturb(shipped["model"], rng), "time": shipped["time"]}
    out_dir = workdir / "out" / name
    outputs = {**shipped.get("outputs", {}), "directory": str(out_dir)}
    cfg = _write_config({**inputs, "outputs": outputs}, workdir / "configs" / f"{name}.json")
    steps = inputs["time"]["steps"]
    csv_path = out_dir / "trajectory.csv"

    def run():
        simulate_out, certify_out = io.StringIO(), io.StringIO()
        with redirect_stdout(simulate_out):
            rc_simulate = cli.main(["simulate", str(cfg)])
        with redirect_stdout(certify_out):
            rc_certify = cli.main(["certify", str(csv_path)])
        return rc_simulate, rc_certify, certify_out.getvalue()

    def check(result):
        rc_simulate, rc_certify, certify_text = result
        problems = []
        if rc_simulate != 0:
            problems.append(f"simulate exit code {rc_simulate}")
        if rc_certify != 0:
            problems.append(f"certify exit code {rc_certify}")
        payload = json.loads(certify_text)
        if not payload["ok"] or payload["n_steps"] != steps:
            problems.append(f"certify payload ok={payload['ok']} n_steps={payload['n_steps']}")
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        if summary["certification_ok"] is not True or summary["n_violations"] != 0:
            problems.append(f"summary certification_ok={summary['certification_ok']} "
                            f"n_violations={summary['n_violations']}")
        header, data, digest = _read_csv(csv_path)
        if data.shape[0] != steps:
            problems.append(f"trajectory.csv has {data.shape[0]} rows, expected {steps}")
        if not np.all(np.diff(data[:, header.index("t")]) > 0):
            problems.append("trajectory.csv time column is not increasing")
        values = {f"summary.{k}": _num(v) for k, v in summary.items()}
        values.update(_csv_values("csv", header, data))
        values["csv.sha256"] = digest
        return values, problems

    return Item(f"scenario/{name}", inputs, steps, run, check)


def _capacity_values(summary: dict, diagram: np.ndarray) -> tuple[dict, list[str]]:
    """Values and self-check problems shared by both capacity items."""
    problems = []
    s0 = summary["capacity_S0"]
    if not math.isclose(s0, summary["N"], rel_tol=1e-12):
        problems.append(f"capacity_S0 = {s0}, expected N = {summary['N']}")
    for s_bits, target in summary["entropy_targets"].items():
        if not target["E_min"] <= target["E_max"]:
            problems.append(f"S={s_bits}: E_min {target['E_min']} > E_max {target['E_max']}")
        if not -ATOL <= target["capacity"] <= s0 + ATOL:
            problems.append(f"S={s_bits}: capacity {target['capacity']} outside [0, {s0}]")
    entropy = diagram[:, 2]
    if not np.all((entropy >= -ATOL) & (entropy <= math.log2(summary["dim"]) + ATOL)):
        problems.append("diagram entropy outside [0, log2(dim)]")
    values = {
        "N": summary["N"],
        "dim": summary["dim"],
        "capacity_S0": _num(s0),
    }
    for s_bits, target in summary["entropy_targets"].items():
        for field_name, v in target.items():
            values[f"target.{s_bits}.{field_name}"] = _num(v)
    values.update(_csv_values("diagram", ["beta", "E", "S_bits"], diagram))
    return values, problems


def _capacity_cli_item(workdir: Path) -> Item:
    shipped = _shipped("capacity_n8")
    inputs = {k: v for k, v in shipped.items() if k != "outputs"}
    out_dir = workdir / "out" / "capacity_n8"
    cfg = _write_config({**inputs, "outputs": {"directory": str(out_dir)}},
                        workdir / "configs" / "capacity_n8.json")

    def run():
        with redirect_stdout(io.StringIO()):
            return cli.main(["capacity", str(cfg)])

    def check(rc):
        summary = json.loads((out_dir / "capacity.json").read_text(encoding="utf-8"))
        header, data, _ = _read_csv(out_dir / "diagram.csv")
        values, problems = _capacity_values(summary, data)
        if rc != 0:
            problems.append(f"capacity exit code {rc}")
        return values, problems

    return Item("scenario/capacity_n8", inputs, 0, run, check)


def scenarios(rng, workdir: Path) -> list[Item]:
    items = [_scenario_item(name, rng, workdir) for name in SCENARIOS]
    return items + [_capacity_cli_item(workdir)]


# -- dense_scaling ------------------------------------------------------------


def _sweep_item(key: str, raw: dict, rng, workdir: Path) -> Item:
    inputs = {"model": _perturb(raw["model"], rng), "time": raw["time"], "sweep": raw["sweep"]}
    cfg = _write_config(inputs, workdir / "configs" / f"{key.replace('/', '_')}.json")
    n_values = inputs["sweep"]["values"]
    quantity = inputs["sweep"]["quantity"]

    def run():
        c = config.load_scenario(cfg)
        return sweeps.sweep_scaling(
            c.spec, c.sweep.values, c.sweep.quantity, c.lam_t_max, c.steps, c.sweep.path
        )

    def check(result):
        fit, rows = result
        problems = []
        if len(rows) != len(n_values):
            problems.append(f"{len(rows)} sweep rows for {len(n_values)} N values")
        for n, row in zip(n_values, rows):
            if not (math.isfinite(row[quantity]) and row[quantity] > 0):
                problems.append(f"N={n}: {quantity} = {row[quantity]}")
        if not (math.isfinite(fit.exponent) and math.isfinite(fit.residual)):
            problems.append(f"fit exponent {fit.exponent}, residual {fit.residual}")
        values = {
            "exponent": _num(fit.exponent),
            "residual": _num(fit.residual),
            "excluded": _num(list(fit.excluded)),
        }
        for n, row in zip(n_values, rows):
            for k, v in row.items():
                values[f"N{n}.{k}"] = _num(v)
        return values, problems

    return Item(key, inputs, len(n_values) * inputs["time"]["steps"], run, check)


def _capacity_direct_item(workdir: Path) -> Item:
    shipped = _shipped("capacity_n8")
    inputs = {k: v for k, v in shipped.items() if k != "outputs"}
    inputs["model"] = {**inputs["model"], "N": CAPACITY_N}
    cfg = _write_config(inputs, workdir / "configs" / f"capacity_n{CAPACITY_N}.json")

    def run():
        # The capacity command's computation without its file writes.
        c = config.load_capacity(cfg)
        battery = linalg.eigendecompose(models.build_battery_for(c.spec))
        pos = np.logspace(-3, math.log10(c.beta_max_abs), c.points_per_branch)
        betas = np.concatenate([-pos[::-1], [0.0], pos])
        curve = capacity.thermal_curve(battery, betas)
        targets = {}
        for s_bits in c.entropy_targets_bits:
            low = capacity.solve_beta_for_entropy(battery, s_bits, "positive_beta")
            high = capacity.solve_beta_for_entropy(battery, s_bits, "negative_beta")
            targets[format(s_bits, ".6g")] = {
                "E_min": low.energy,
                "E_max": high.energy,
                "beta_positive": low.beta,
                "beta_negative": high.beta,
                "capacity": capacity.capacity_at_entropy(battery, s_bits),
            }
        summary = {
            "N": c.spec.n_cells,
            "dim": battery.dim,
            "capacity_S0": float(battery.eigenvalues[-1] - battery.eigenvalues[0]),
            "entropy_targets": targets,
        }
        return summary, np.array([[p.beta, p.energy, p.entropy_bits] for p in curve])

    def check(result):
        return _capacity_values(*result)

    return Item(f"capacity/N{CAPACITY_N}", inputs, 0, run, check)


def dense_scaling(rng, workdir: Path) -> list[Item]:
    dicke = _shipped("sweep_dicke_weak_power")
    lmg = _shipped("sweep_lmg_var")
    return [
        _sweep_item("sweep/dicke_weak_power", dicke, rng, workdir),
        _sweep_item("sweep/lmg_var", lmg, rng, workdir),
        _sweep_item("sweep/jw_dense_costheta", DENSE_CHAIN_SWEEP, rng, workdir),
        _capacity_direct_item(workdir),
    ]


# -- analytic_chain -----------------------------------------------------------


def _rung_item(n: int, stride: int, rng) -> Item:
    offset = rng.randrange(stride) if rng else 0
    model = {"family": "jw_chain", "N": n, "variant": LADDER_VARIANT}
    inputs = {"model": model, "steps": LADDER_STEPS, "stride": stride, "offset": offset}
    spec = models.chain_spec(LADDER_VARIANT, n)
    times = trajectory.time_grid(spec, steps=LADDER_STEPS)
    sample = times[offset::stride]

    def run():
        modes = freefermion.dispersion(spec)
        series = freefermion.observables_on_grid(modes, times)
        return modes, series, freefermion.fisher_energy_series(modes, sample)

    def check(result):
        modes, series, fisher = result
        problems = []
        if not np.all(np.isfinite(fisher) & (fisher >= 0)):
            problems.append("Fisher series has negative or non-finite entries")
        for j in (len(sample) // 2, len(sample) - 1):
            try:
                dist = freefermion.pair_distribution(modes, float(sample[j]))
            except ValidationError as exc:
                problems.append(f"t={sample[j]:.6g}: {exc}")
                continue
            if abs(dist.p.sum() - 1.0) > SUM_RULE_P_TOL:
                problems.append(f"t={sample[j]:.6g}: sum p - 1 = {dist.p.sum() - 1.0:.3e}")
            if abs(dist.p_dot.sum()) > SUM_RULE_PDOT_TOL:
                problems.append(f"t={sample[j]:.6g}: sum pdot = {dist.p_dot.sum():.3e}")
            if not _close(freefermion.fisher_energy_analytic(dist), float(fisher[j])):
                problems.append(f"t={sample[j]:.6g}: Fisher series disagrees with its distribution")
        values = {"fisher": _num(fisher)}
        for name, column in series.items():
            values[f"grid.{name}"] = _num(column[offset::stride])
        return values, problems

    return Item(f"ladder/N{n}", inputs, len(times) + len(sample), run, check)


def analytic_chain(rng, workdir: Path) -> list[Item]:
    items = [_rung_item(n, stride, rng) for n, stride in LADDER]
    sweep = _shipped("sweep_jw_costheta")
    return items + [_sweep_item("sweep/jw_costheta", sweep, rng, workdir)]


class Checker:
    """Checks each item's outputs and counts attempts, failures and CSVs
    byte-identical to their reference digest (the frozen one when the item's
    inputs match the frozen inputs, else the item's first run in this process)."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, item, result, error) -> int:
        """Checks one item; returns 1 if its CSV is byte-identical, else 0."""
        self.attempted += 1
        problems = [error] if error else []
        identical = 0
        if not error:
            try:
                values, problems = item.check(result)
            except Exception:
                values, problems = {}, [traceback.format_exc()]
            ref = self.reference.get(item.key)
            if ref is not None and ref["inputs"] == item.inputs:
                problems += compare(values, ref["values"])
                self.digests.setdefault(item.key, ref["values"].get("csv.sha256"))
            digest = values.get("csv.sha256")
            if digest is not None:
                identical = int(self.digests.setdefault(item.key, digest) == digest)
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"check failed: {item.key}: {problem}", file=sys.stderr)
        return identical


def build(workload: str, seed: int, workdir: Path) -> list[Item]:
    """Items of one workload; seed 0 is the shipped configs unchanged."""
    rng = random.Random(seed) if seed else None
    return {"scenarios": scenarios, "dense_scaling": dense_scaling,
            "analytic_chain": analytic_chain}[workload](rng, workdir)


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["items"]
