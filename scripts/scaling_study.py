#!/usr/bin/env python3
"""Reproduce the size-scaling studies at desk scale.

Emits, under results/scaling/:
  chain_saturation.csv   time-averaged bound ratios of the four chain
                         variants for N up to 200 (analytic path)
  lmg_lam{5,20}.csv      collective-charger quantities over N = 10..60
                         with fitted exponents in the sidecar JSON
  dicke_lam{001,05}.csv  cavity-charger quantities over N = 4..12
  lmg_gamma_scan.csv     stored energy and power across the anisotropy range
"""

import sys
from pathlib import Path

from qbattery import ModelSpec, ValidationError, chain_spec, fit_exponent
from qbattery.output import write_csv, write_json, write_scaling_outputs
from qbattery.sweeps import sweep, sweep_scaling

OUT = Path("results/scaling")


def chain_saturation():
    ns = [20, 36, 50, 76, 100, 140, 200]
    rows = []
    for variant in ("xx_nn", "xy_nn", "xx_pow", "xy_pow"):
        spec = chain_spec(variant, ns[0])
        for n, q in zip(ns, sweep(spec, "N", ns, steps=800, path="analytic")):
            rows.append([variant, n, q["cos_theta_timeavg"], q["cos_theta_timeavg_heis"],
                         q["energy_at_tf"] / n, q["rel_final_std"]])
            print(f"chain {variant:7s} N={n:3d} ratio={rows[-1][2]:.4f} "
                  f"heis={rows[-1][3]:.4f} fraction={rows[-1][4]:.4f}")
    write_csv(OUT / "chain_saturation.csv",
              ["variant", "N", "cos_theta", "cos_theta_heis", "stored_fraction", "rel_final_std"],
              rows)


def collective_scalings():
    ns = [10, 20, 30, 40, 50, 60]
    for lam, tag in ((5.0, "lmg_lam5"), (20.0, "lmg_lam20")):
        spec = ModelSpec(family="lmg", n_cells=ns[0], lam=lam, gamma=-1.0)
        result, rows = sweep_scaling(spec, ns, "avg_var_battery", steps=2000)
        fits = {"avg_var_battery": result.exponent}
        for quantity in ("avg_power", "avg_fisher_energy", "energy_at_tf", "rel_final_std"):
            fits[quantity] = fit_exponent(ns, [r[quantity] for r in rows], quantity).exponent
        write_scaling_outputs(result, ns, rows, OUT, stem=tag)
        write_json(OUT / f"{tag}_exponents.json", fits)
        print(f"{tag}: " + " ".join(f"{k}~N^{v:.2f}" for k, v in fits.items()))


def cavity_scalings():
    ns = [4, 6, 8, 10, 12]
    for lam, tag in ((0.01, "dicke_lam001"), (0.5, "dicke_lam05")):
        spec = ModelSpec(family="dicke", n_cells=ns[0], lam=lam)
        # window bracketing the first stored-energy maximum
        result, rows = sweep_scaling(spec, ns, "avg_power", lam_t_max=3.0, steps=1500)
        fits = {"avg_power": result.exponent}
        for quantity in ("avg_var_battery", "avg_fisher_energy", "final_battery_entropy"):
            values = [r[quantity] for r in rows]
            try:
                fits[quantity] = fit_exponent(ns, values, quantity).exponent
            except ValidationError:  # fewer than 3 positive values to fit
                fits[quantity] = float("nan")
        write_scaling_outputs(result, ns, rows, OUT, stem=tag)
        write_json(OUT / f"{tag}_exponents.json", fits)
        print(f"{tag}: " + " ".join(f"{k}~N^{v:.2f}" for k, v in fits.items()))


def anisotropy_scan():
    gammas = [x / 10 for x in range(-10, 11, 2)]
    spec = ModelSpec(family="lmg", n_cells=50, lam=5.0)
    rows = sweep(spec, "gamma", gammas, lam_t_max=6.0, steps=1200)
    for gamma, q in zip(gammas, rows):
        print(f"gamma={gamma:+.1f} E(t_f)={q['energy_at_tf']:8.3f} <P>={q['avg_power']:8.3f}")
    write_csv(OUT / "lmg_gamma_scan.csv", ["gamma", "energy_at_tf", "avg_power"],
              [[gamma, q["energy_at_tf"], q["avg_power"]] for gamma, q in zip(gammas, rows)])


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    chain_saturation()
    collective_scalings()
    cavity_scalings()
    anisotropy_scan()
    return 0


if __name__ == "__main__":
    sys.exit(main())
