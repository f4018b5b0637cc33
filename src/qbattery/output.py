"""Deterministic CSV and JSON emission.

CSV files carry full double precision (17 significant digits), UTF-8, comma
separators, a header row, LF line endings, and empty fields for undefined
values, so identical configs reproduce byte-identical outputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bounds import bound_ratio
from .capacity import DiagramPoint
from .sweeps import ScalingResult
from .trajectory import Trajectory

TRAJECTORY_COLUMNS = (
    "t",
    "E",
    "P",
    "var_HB",
    "var_HC",
    "I_E",
    "I_Q",
    "cos_theta_P",
    "bound_ratio_cor1",
    "bound_ratio_heis",
)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header line and the rows, the whole block in one ``%`` call.

    ``rows`` is a 2-D float array or a sequence of equal-length rows.  A
    column that holds str cells is written as ``str(cell)``; every other
    cell is a number written as ``'%.17g' % float(x)``, and NaN or None as an
    empty field.
    """
    if isinstance(rows, np.ndarray):
        numbers, text_columns, texts = rows, (), ()
    else:
        rows = [list(row) for row in rows]
        text_columns = sorted(
            {j for row in rows for j, cell in enumerate(row) if isinstance(cell, str)}
        )
        texts = tuple(row[j] for row in rows for j in text_columns)
        for row in rows:
            for j in text_columns[::-1]:
                del row[j]
        width = len(rows[0]) if rows else 0
        numbers = np.array(rows, dtype=float).reshape(len(rows), width)
    n_fields = numbers.shape[1] + len(text_columns)
    # A text column is a "%%s" slot that the numeric pass turns into "%s".
    fields = ["%%s" if j in text_columns else "%.17g" for j in range(n_fields)]
    block = (",".join(fields) + "\n") * len(numbers) % tuple(numbers.ravel().tolist())
    # '%.17g' writes NaN of either sign as "nan", a text no other number
    # contains, so every "nan" is one whole undefined field.
    block = block.replace("nan", "")
    if text_columns:
        block %= texts
    Path(path).write_text(",".join(header) + "\n" + block, encoding="utf-8", newline="\n")


def trajectory_rows(traj: Trajectory, include_populations: bool = False):
    """Column header and (T, columns) value block of the trajectory CSV schema."""
    header = list(TRAJECTORY_COLUMNS)
    # Ratio columns come from the untruncated Fisher sum (the certification
    # arithmetic); the I_E column itself is the floored observable.
    ratio_cor1 = bound_ratio(traj.power**2, traj.var_battery * traj.fisher_energy_full)
    ratio_heis = bound_ratio(traj.power**2, 4.0 * traj.var_battery * traj.var_charger)
    columns = np.stack([
        traj.times,
        traj.energy,
        traj.power,
        traj.var_battery,
        traj.var_charger,
        traj.fisher_energy,
        traj.fisher_state,
        traj.cos_theta,
        ratio_cor1,
        ratio_heis,
    ])
    if include_populations:
        header += [f"p_{k}" for k in range(traj.levels.n_levels)]
        columns = np.concatenate([columns, traj.populations])
    return header, columns.T


def write_trajectory_csv(traj: Trajectory, path: str | Path, include_populations: bool = False) -> None:
    header, rows = trajectory_rows(traj, include_populations)
    write_csv(path, header, rows)


def write_json(path: str | Path, payload: dict) -> None:
    def default(obj):
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(f"not JSON serializable: {type(obj)}")

    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True, default=default)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def write_sweep_csv(path: str | Path, parameter: str, values, rows: list[dict]) -> None:
    """One line per swept value: the value, then its quantities in key order."""
    keys = sorted(rows[0]) if rows else []
    table = [[v] + [row.get(k) for k in keys] for v, row in zip(values, rows)]
    write_csv(path, [parameter] + keys, table)


def write_scaling_outputs(
    result: ScalingResult,
    n_values: list[int],
    rows: list[dict],
    directory: str | Path,
    stem: str = "scaling",
) -> None:
    directory = Path(directory)
    write_sweep_csv(directory / f"{stem}.csv", "N", n_values, rows)
    write_json(
        directory / f"{stem}.json",
        {
            "quantity": result.quantity,
            "N": n_values,
            "values": list(result.values),
            "exponent": result.exponent,
            "residual": result.residual,
            "excluded": list(result.excluded),
        },
    )


def write_diagram_csv(points: list[DiagramPoint], path: str | Path) -> None:
    rows = np.array([[p.beta, p.energy, p.entropy_bits] for p in points]).reshape(-1, 3)
    write_csv(path, ["beta", "E", "S_bits"], rows)
