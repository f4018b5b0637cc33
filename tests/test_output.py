"""The block-formatted CSV writer and the converter-free trajectory reader
against the per-value references in ``oracles``."""

import copy
import glob
import math

import numpy as np
import pytest

from qbattery import ModelSpec
from qbattery.bounds import ABSOLUTE_FLOOR
from qbattery.cli import _read_trajectory_csv
from qbattery.config import load_scenario
from qbattery.output import TRAJECTORY_COLUMNS, trajectory_rows, write_csv
from qbattery.trajectory import run_trajectory

from oracles import read_csv_with_converter, write_csv_per_value

SCENARIOS = sorted(
    p for p in glob.glob("configs/*.json")
    if "sweep" not in p and "capacity" not in p and "gamma" not in p
)


def assert_same_bytes(tmp_path, header, rows):
    write_csv(tmp_path / "block.csv", header, rows)
    write_csv_per_value(tmp_path / "oracle.csv", header, rows)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestWriter:
    def test_all_shipped_scenarios_are_covered(self):
        assert len(SCENARIOS) == 11, SCENARIOS

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.split("/")[-1][:-5])
    def test_shipped_scenarios(self, tmp_path, path):
        cfg = load_scenario(path)
        traj = run_trajectory(cfg.spec, cfg.lam_t_max, 300)
        for populations in (False, True):
            header, block = trajectory_rows(traj, populations)
            assert_same_bytes(tmp_path, header, block)
            assert_same_bytes(tmp_path, header, block.tolist())

    def test_edge_values(self, tmp_path):
        edges = [
            math.nan, -math.nan, None, math.inf, -math.inf, -0.0, 0.0, 5e-324,
            1.7976931348623157e308, 1 / 3, 3, -7, 2**60, True, np.float64(0.1),
        ]
        rows = [[x, y] for x in edges for y in edges]
        assert_same_bytes(tmp_path, ["a", "b"], rows)
        assert_same_bytes(tmp_path, ["a"], [[x] for x in edges])
        floats = np.array([[x if x is not None else math.nan] for x in edges], dtype=float)
        assert_same_bytes(tmp_path, ["a"], floats)

    def test_undefined_values_are_empty_fields(self, tmp_path):
        write_csv(tmp_path / "out.csv", ["a", "b", "c"], [[None, math.nan, 1.0], [2, None, None]])
        assert (tmp_path / "out.csv").read_text() == "a,b,c\n,,1\n2,,\n"

    def test_text_columns_are_verbatim(self, tmp_path):
        # Shaped like the scaling study's chain rows: a variant name first.
        rows = [
            [variant, n, 0.5 / n, None, n / 3, math.nan]
            for variant in ("xx_nn", "xy_pow", "nan", "50%s", "")
            for n in (20, 36)
        ]
        assert_same_bytes(tmp_path, ["variant", "N", "a", "b", "c", "d"], rows)
        rows = [[1.5, "mid", None, "last"], [math.nan, "x,y", 2, "z"]]
        assert_same_bytes(tmp_path, ["a", "b", "c", "d"], rows)

    def test_ratio_columns_undefined_at_the_floor(self):
        traj = copy.copy(run_trajectory(ModelSpec(family="parallel", n_cells=2), steps=2))
        traj.power = np.array([1e-7, 1e-7])
        traj.var_battery = np.array([1.0, 2.0])
        traj.fisher_energy_full = np.full(2, ABSOLUTE_FLOOR)
        traj.var_charger = ABSOLUTE_FLOOR / 4
        header, block = trajectory_rows(traj)
        for column in ("bound_ratio_cor1", "bound_ratio_heis"):
            ratios = block[:, header.index(column)]
            assert math.isnan(ratios[0]) and ratios[1] == pytest.approx(1e-14 / (2 * ABSOLUTE_FLOOR))

    def test_empty_tables(self, tmp_path):
        assert_same_bytes(tmp_path, ["N"], [])
        assert_same_bytes(tmp_path, ["a", "b"], np.empty((0, 2)))


class TestReader:
    HEADER = ",".join(TRAJECTORY_COLUMNS)

    def both(self, tmp_path, text):
        path = tmp_path / "trajectory.csv"
        path.write_bytes(text.encode())
        new, old = _read_trajectory_csv(str(path)), read_csv_with_converter(path)
        assert list(new) == list(old)
        for column in new:
            assert new[column].tobytes() == old[column].tobytes(), column
        return new

    def rows(self, cells):
        return [",".join(row) for row in cells]

    def test_empty_fields_anywhere(self, tmp_path):
        full = [format(0.1 * j, ".17g") for j in range(10)]
        cells = []
        for i in range(10):  # empty first, middle and last fields
            row = [format(0.1 * (i + j), ".17g") for j in range(10)]
            row[i] = ""
            cells.append(row)
        cells.append([""] * 10)
        cells.append(["", ""] + full[2:7] + ["", "", ""])
        cells.append(full[:3] + ["", "", ""] + full[6:])
        columns = self.both(tmp_path, "\n".join([self.HEADER] + self.rows(cells)) + "\n")
        assert np.isnan(columns["t"][[0, 10, 11]]).all()
        assert np.isnan(columns["bound_ratio_heis"][[9, 10, 11]]).all()
        assert np.isnan(columns["var_HB"][12]) and not np.isnan(columns["t"][12])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("trailing", [True, False], ids=["trailing", "no-trailing"])
    def test_line_endings(self, tmp_path, newline, trailing):
        cells = [["", "1", "2", "", "3", "4", "5", "6", "7", ""], ["1e-300", *"234567", "inf", "-0", ""]]
        text = newline.join([self.HEADER] + self.rows(cells)) + (newline if trailing else "")
        columns = self.both(tmp_path, text)
        assert columns["t"].shape == (2,)
        assert np.isnan(columns["bound_ratio_heis"]).all()

    def test_shipped_writer_output(self, tmp_path):
        cfg = load_scenario("configs/parallel_n8.json")
        traj = run_trajectory(cfg.spec, cfg.lam_t_max, 300)
        header, block = trajectory_rows(traj, True)
        write_csv(tmp_path / "trajectory.csv", header, block)
        columns = self.both(tmp_path, (tmp_path / "trajectory.csv").read_text())
        assert np.array_equal(np.stack(list(columns.values()), axis=1), block, equal_nan=True)


class TestConstantColumns:
    """A column of one float64 bit pattern is formatted once; the text is
    the per-value writer's."""

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1 / 3, 2.0**60]
    )
    def test_each_constant_is_the_per_value_text(self, tmp_path, value):
        rows = np.column_stack([np.full(5, value), np.arange(5.0), np.full(5, value)])
        assert_same_bytes(tmp_path, ["a", "b", "c"], rows)
        assert_same_bytes(tmp_path, ["a", "b", "c"], rows.tolist())

    def test_signed_zeros_and_nans_are_not_one_constant(self, tmp_path):
        # -0.0 == 0.0 and NaN != NaN as floats; the bits decide.
        rows = [[0.0, math.nan, 1.0], [-0.0, -math.nan, 1.0], [0.0, math.nan, 1.0]]
        assert_same_bytes(tmp_path, ["a", "b", "c"], rows)
        write_csv(tmp_path / "out.csv", ["a", "b", "c"], rows)
        assert (tmp_path / "out.csv").read_text() == "a,b,c\n0,,1\n-0,,1\n0,,1\n"

    def test_constant_columns_beside_text_columns(self, tmp_path):
        rows = [["x", 2.5, math.nan, 1], ["y", 2.5, math.nan, 2]]
        write_csv(tmp_path / "out.csv", ["s", "a", "b", "c"], rows)
        assert (tmp_path / "out.csv").read_text() == "s,a,b,c\nx,2.5,,1\ny,2.5,,2\n"

    def test_no_rows(self, tmp_path):
        write_csv(tmp_path / "out.csv", ["a", "b"], np.empty((0, 2)))
        assert (tmp_path / "out.csv").read_text() == "a,b\n"
