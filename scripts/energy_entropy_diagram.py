#!/usr/bin/env python3
"""Emit the energy-entropy diagram of an N-cell battery with entropy targets.

The diagram is computed on the register's N + 1 binomial levels, so any N
runs in milliseconds.

Usage: python scripts/energy_entropy_diagram.py [N] [output_dir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from qbattery import capacity_at_entropy, register_spectrum, solve_beta_for_entropy
from qbattery.capacity import capacity_from_points, thermal_curve
from qbattery.output import write_csv, write_diagram_csv


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    out = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("results/diagram")
    out.mkdir(parents=True, exist_ok=True)
    battery = register_spectrum(n)
    pos = np.logspace(-3, math.log10(20.0), 300)
    betas = np.concatenate([-pos[::-1], [0.0], pos])
    write_diagram_csv(thermal_curve(battery, betas), out / "diagram.csv")

    rows = []
    for frac in (0.125, 0.25, 0.5, 0.75, 0.95):
        s_bits = frac * n
        low = solve_beta_for_entropy(battery, s_bits, "positive_beta")
        high = solve_beta_for_entropy(battery, s_bits, "negative_beta")
        cap = capacity_from_points(battery, s_bits, low, high)
        rows.append([s_bits, low.energy, high.energy, cap, low.beta])
        print(f"S={s_bits:6.3f} bits: E_min={low.energy:+.4f} E_max={high.energy:+.4f} "
              f"C(S)={cap:.4f}")
    write_csv(out / "targets.csv", ["S_bits", "E_min", "E_max", "capacity", "beta_positive"], rows)
    print(f"C(0) = {capacity_at_entropy(battery, 0.0)} (spectral range of {n} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
