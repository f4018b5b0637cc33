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
from .models import time_blocks
from .observables import cos_theta_power
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
# The most cells of the trajectory CSV that one block of lines holds.
CSV_CELLS = 2**16


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header line and the rows, the whole block in one ``%`` call.

    ``rows`` is a 2-D float array or a sequence of equal-length rows.  A
    column that holds str cells is written as ``str(cell)``; every other
    cell is a number written as ``'%.17g' % float(x)``, and NaN or None as an
    empty field.  A numeric column whose cells all have the same float64
    bits (so -0.0 and 0.0 differ) is formatted once, as a literal of the
    row format.
    """
    if isinstance(rows, np.ndarray):
        numbers, text_columns, texts = np.asarray(rows, dtype=float), (), ()
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
    _write_blocks(path, header, [_csv_block(numbers, text_columns, texts)])


def _csv_block(numbers: np.ndarray, text_columns=(), texts=()) -> str:
    """The CSV lines of a numeric block, with row-major ``texts`` in its ``text_columns``."""
    # A column of one bit pattern is formatted once, into the row format.
    bits = numbers.view(np.int64)
    constant = (bits == bits[:1]).all(axis=0) & (len(numbers) > 0)
    fields = [
        ("%.17g" % numbers[0, j]).replace("nan", "") if same else "%.17g"
        for j, same in enumerate(constant)
    ]
    # A text column is a "%%s" slot that the numeric pass turns into "%s";
    # in ascending order, each slot lands at its own index.
    for j in text_columns:
        fields.insert(j, "%%s")
    values = numbers[:, ~constant].ravel().tolist()
    block = (",".join(fields) + "\n") * len(numbers) % tuple(values)
    # '%.17g' writes NaN of either sign as "nan", a text no other number
    # contains, so every "nan" is one whole undefined field.
    block = block.replace("nan", "")
    if text_columns:
        block %= texts
    return block


def _write_blocks(path: str | Path, header: list[str], blocks) -> None:
    """The header line, then each block of CSV lines as it comes: UTF-8, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(blocks)


def _trajectory_blocks(traj: Trajectory, include_populations: bool):
    """The column header and the (times x columns) value blocks of the
    trajectory CSV schema, one per ``models.time_blocks`` slice, the p_k
    columns from ``traj.reduced_level_blocks``: no (N + 1) x T array is
    built, and the p_k columns and the Fisher columns come from one pass."""

    def series(block: slice, fisher: np.ndarray, fisher_full: np.ndarray) -> np.ndarray:
        power, var, floored = traj.power[block], traj.var_battery[block], fisher[block]
        return np.stack([
            traj.times[block], traj.energy[block], power, var,
            np.full_like(power, traj.var_charger),  # conserved
            floored,
            np.full_like(power, 4.0 * traj.var_charger),  # I_Q of a pure state
            cos_theta_power(power, var, floored),  # elementwise: traj.cos_theta's bits
            # Ratio columns come from the untruncated Fisher sum (the
            # certification arithmetic); the I_E column is the floored one.
            bound_ratio(power**2, var * fisher_full[block]),
            bound_ratio(power**2, 4.0 * var * traj.var_charger),
        ], axis=1)

    header = list(TRAJECTORY_COLUMNS)
    if not include_populations:
        sums = traj.fisher_energy, traj.fisher_energy_full
        return header, (series(block, *sums) for block in time_blocks(traj.n_steps))
    header += [f"p_{k}" for k in range(traj.spec.n_cells + 1)]
    rows = max(CSV_CELLS // len(header), 1)  # so that no block's text grows with N

    def blocks():
        for block, levels, p, _, (fisher, fisher_full, _) in traj.reduced_level_blocks():
            values = series(block, fisher, fisher_full)
            for lo in range(0, len(values), rows):
                part = slice(lo, lo + rows)
                columns = np.zeros((len(values[part]), len(header)))
                columns[:, : len(TRAJECTORY_COLUMNS)] = values[part]
                columns[:, len(TRAJECTORY_COLUMNS) :][:, levels] = p[:, part].T
                yield columns

    return header, blocks()


def trajectory_rows(traj: Trajectory, include_populations: bool = False):
    """Column header and (T, columns) value block of the trajectory CSV schema."""
    header, blocks = _trajectory_blocks(traj, include_populations)
    return header, np.concatenate(list(blocks))


def write_trajectory_csv(traj: Trajectory, path: str | Path, include_populations: bool = False) -> None:
    """The trajectory CSV, written one time block at a time."""
    header, blocks = _trajectory_blocks(traj, include_populations)
    _write_blocks(path, header, map(_csv_block, blocks))


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
