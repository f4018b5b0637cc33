"""The peak-time and entropy-target searches and the thermal curve against
the plain per-evaluation loops they replay (``oracles``), bit for bit, and
the evaluations they take on the shipped inputs."""

import math

import numpy as np
import pytest

from qbattery import capacity, chain_spec, register_spectrum, trajectory, verification
from qbattery.capacity import (
    _level_spectrum, solve_beta_for_entropy, thermal_curve, thermal_point,
)
from qbattery.config import load_capacity, load_scenario
from qbattery.linalg import eigendecompose
from qbattery.models import ModelSpec, build_battery_for
from qbattery.sweeps import _respecify
from qbattery.trajectory import PEAK_REL_TOL, find_peak_time, find_tf, run_trajectory

from oracles import (
    power_root_bisection, solve_beta_for_entropy_bisection, thermal_curve_per_beta,
    thermal_point_per_beta,
)

SCENARIOS = [
    "parallel_n8", "global_n8", "hybrid_n8", "jw_xx_nn_n8", "jw_xx_pow_n8", "jw_xy_nn_n8",
    "jw_xy_pow_n8", "lmg_n20_lam20", "lmg_n20_lam5", "dicke_n8_strong", "dicke_n8_weak",
]
# The dense N sweeps: the shipped Dicke and LMG ones and the dense chain sweep
# of the benchmark's dense workload.
DENSE_SWEEPS = {
    "sweep_dicke_weak_power": None,
    "sweep_lmg_var": None,
    "dense_chain": (chain_spec("xy_nn", 4), None, 2000, "dense", (4, 6, 8, 10)),
}
TABLE_LAMS = (1e-6, 1.0, 1e16, 1e20)
PEAK_CALLS_MAX = 8  # power evaluations per shipped peak
TARGET_EVALUATIONS_MAX = 12  # thermal evaluations per shipped entropy target


def sweep_points():
    for name, layout in DENSE_SWEEPS.items():
        if layout is None:
            cfg = load_scenario(f"configs/{name}.json")
            layout = cfg.spec, cfg.lam_t_max, cfg.steps, cfg.sweep.path, cfg.sweep.values
        spec, lam_t_max, steps, path, values = layout
        for n in values:
            yield f"{name}-N{n}", (_respecify(spec, n), lam_t_max, steps, path, True)


def table_points():
    for lam in TABLE_LAMS:
        for n in (2, 4, 6, 8):
            for spec in verification.benchmark_specs(n, lam):
                tag = f"{spec.family}-N{n}-q{spec.q}-lam{lam:g}"
                yield tag, (spec, None, 400, "dense", False)


def scenario_points():
    for name in SCENARIOS:
        cfg = load_scenario(f"configs/{name}.json")
        yield name, (cfg.spec, cfg.lam_t_max, cfg.steps, "auto", False)


PEAK_RUNS = dict([*scenario_points(), *sweep_points(), *table_points()])


@pytest.mark.parametrize("key", PEAK_RUNS)
def test_peak_search_matches_bisection_bit_for_bit(key, monkeypatch):
    spec, lam_t_max, steps, path, lumped = PEAK_RUNS[key]
    traj = run_trajectory(spec, lam_t_max, steps, path, lumped=lumped)
    calls = []
    exact = traj.power_at
    traj.power_at = lambda t: calls.append(t) or exact(t)
    peak = find_tf(traj)
    assert len(calls) <= PEAK_CALLS_MAX
    with monkeypatch.context() as patch:
        patch.setattr(trajectory, "_power_root", power_root_bisection)
        reference = find_tf(traj)
    assert (peak.t_f, peak.energy_max, peak.at_boundary) == (
        reference.t_f, reference.energy_max, reference.at_boundary
    )


@pytest.mark.parametrize("roots", [(0.3, 0.5, 0.7), (0.1, 0.11, 0.9), (0.41, 0.5, 0.62)])
def test_three_sign_changes_in_one_interval_still_give_a_bracketed_root(roots):
    # P > 0 at 0 and < 0 at 1 with three roots between: the result is one of
    # them to PEAK_REL_TOL, an exact zero of P or a turn from positive to
    # negative.  The first set's middle root is the first step of either
    # search; the last set's is bisection's first midpoint, which a located
    # root left of it decides positive unevaluated.
    a, b, c = roots

    def power(t):
        return -(t - a) * (t - b) * (t - c)

    t = trajectory._power_root(power, 0.0, 1.0, power(0.0), power(1.0))
    assert min(abs(t - r) for r in roots) <= PEAK_REL_TOL * t
    assert power(t) == 0.0 or power(t * (1 - PEAK_REL_TOL)) > 0 > power(t * (1 + PEAK_REL_TOL))


def test_an_exact_zero_is_returned_where_bisection_meets_it():
    # A power that is exactly zero at the first midpoint: both searches stop there.
    def power(t):
        return 0.5 - t

    assert trajectory._power_root(power, 0.0, 1.0, 0.5, -0.5) == 0.5
    assert power_root_bisection(power, 0.0, 1.0) == 0.5


@pytest.mark.parametrize("root", [0.6180339887498949, 0.25, 0.9])
@pytest.mark.parametrize("band", [0.0, 1e-14, 1e-12, 1e-9])
def test_a_power_rounded_to_zero_around_its_root_takes_the_bisection_steps(root, band):
    # Rounding can zero the power on a band around the root: every midpoint
    # that bisection evaluates there is evaluated, so the result is its own.
    def power(t):
        return 0.0 if abs(t - root) <= band else root - t

    result = trajectory._power_root(power, 0.0, 1.0, power(0.0), power(1.0))
    assert result == power_root_bisection(power, 0.0, 1.0)


def shipped_targets():
    """(tag, spectrum, target) of every shipped entropy target: capacity_n8's at
    N = 8, 12 (the dense workload's battery operator) and 1000, and the
    diagram script's fractions of N at N = 8 and 1000."""
    targets = load_capacity_targets()
    battery_12 = eigendecompose(build_battery_for(ModelSpec(family="parallel", n_cells=12)))
    spectra = {8: register_spectrum(8), 12: _level_spectrum(battery_12), 1000: register_spectrum(1000)}
    for n, spectrum in spectra.items():
        for s in targets:
            yield f"N{n}-S{s}", spectrum, s
    for n in (8, 1000):
        for frac in (0.125, 0.25, 0.5, 0.75, 0.95):
            yield f"N{n}-S{frac}N", spectra[n], frac * n


def load_capacity_targets():
    return load_capacity("configs/capacity_n8.json").entropy_targets_bits


SHIPPED_TARGETS = {tag: (spectrum, s) for tag, spectrum, s in shipped_targets()}


def point_bits(points) -> bytes:
    return np.array([[p.beta, p.energy, p.entropy_bits] for p in points], dtype=float).tobytes()


def count_thermal_evaluations(monkeypatch) -> list:
    evaluations = []
    kernel = capacity._thermal_points

    def counted(spectrum, betas, *args, **kwargs):
        evaluations.extend(np.asarray(betas, dtype=float).reshape(-1))
        return kernel(spectrum, betas, *args, **kwargs)

    monkeypatch.setattr(capacity, "_thermal_points", counted)
    return evaluations


@pytest.mark.parametrize("key", SHIPPED_TARGETS)
@pytest.mark.parametrize("branch", ["positive_beta", "negative_beta"])
def test_entropy_target_matches_bisection_bit_for_bit(key, branch, monkeypatch):
    spectrum, s_target = SHIPPED_TARGETS[key]
    reference_evaluations = [0]
    reference = solve_beta_for_entropy_bisection(spectrum, s_target, branch, reference_evaluations)
    evaluations = count_thermal_evaluations(monkeypatch)
    point = solve_beta_for_entropy(spectrum, s_target, branch)
    assert point_bits([point]) == point_bits([reference])
    assert len(evaluations) <= TARGET_EVALUATIONS_MAX < reference_evaluations[0]


@pytest.mark.parametrize("n", [1, 3, 20, 10000])
def test_entropy_targets_across_the_range_match_bisection(n):
    # Targets within rounding of both ends, where the band is widest in beta.
    spectrum = register_spectrum(n)
    targets = [n - 3e-12 * max(n, 1), n - 1e-9, n - 1e-5, 0.5 * n, 1e-3, 1e-9, 3e-11]
    for s_target in targets:
        for branch in ("positive_beta", "negative_beta"):
            point = solve_beta_for_entropy(spectrum, s_target, branch)
            reference = solve_beta_for_entropy_bisection(spectrum, s_target, branch)
            assert point_bits([point]) == point_bits([reference]), (s_target, branch)


def test_random_spectra_targets_match_bisection():
    rng = np.random.default_rng(7)
    for _ in range(20):
        levels = int(rng.integers(2, 30))
        energies = np.sort(rng.normal(size=levels) * rng.uniform(0.1, 10.0))
        log_multiplicities = np.log(rng.integers(1, 50, size=levels).astype(float))
        spectrum = energies, log_multiplicities
        s_max = capacity._entropy_range(spectrum)[0]
        floor = max(log_multiplicities[0], log_multiplicities[-1]) / math.log(2.0)
        for s_target in rng.uniform(floor, s_max, 4):
            for branch in ("positive_beta", "negative_beta"):
                point = solve_beta_for_entropy(spectrum, float(s_target), branch)
                reference = solve_beta_for_entropy_bisection(spectrum, float(s_target), branch)
                assert point_bits([point]) == point_bits([reference])


def test_the_dense_workload_targets_take_at_most_200_evaluations(monkeypatch):
    # Its capacity item: both branches and capacity_at_entropy at each target.
    battery = eigendecompose(build_battery_for(ModelSpec(family="parallel", n_cells=12)))
    evaluations = count_thermal_evaluations(monkeypatch)
    for s_bits in load_capacity_targets():
        for branch in ("positive_beta", "negative_beta"):
            solve_beta_for_entropy(battery, s_bits, branch)
        capacity.capacity_at_entropy(battery, s_bits)
    assert len(evaluations) <= 200


CURVE_BETAS = {
    "capacity": (20.0, 200),  # the capacity command's grid
    "script": (20.0, 300),  # scripts/energy_entropy_diagram.py's
}


@pytest.mark.parametrize("n", [8, 12, 1000])
@pytest.mark.parametrize("grid", CURVE_BETAS)
def test_thermal_curve_matches_the_per_beta_points_bit_for_bit(n, grid):
    beta_max, per_branch = CURVE_BETAS[grid]
    pos = np.logspace(-3, math.log10(beta_max), per_branch)
    betas = np.concatenate([-pos[::-1], [0.0], pos])
    spectrum = register_spectrum(n)
    assert point_bits(thermal_curve(spectrum, betas)) == point_bits(
        thermal_curve_per_beta(spectrum, betas)
    )


def test_thermal_curve_is_chunked_and_handles_infinite_betas(monkeypatch):
    # A chunk of one row per beta gives the same bits as one chunk for all.
    spectrum = register_spectrum(50)
    betas = np.array([-np.inf, -3.0, -1e-3, 0.0, 0.5, 7.0, np.inf])
    whole = point_bits(thermal_curve(spectrum, betas))
    monkeypatch.setattr(capacity, "THERMAL_CHUNK_CELLS", 1)
    assert point_bits(thermal_curve(spectrum, betas)) == whole
    assert whole == point_bits(thermal_curve_per_beta(spectrum, betas))
    for beta in betas:
        assert point_bits([thermal_point(spectrum, beta)]) == point_bits(
            [thermal_point_per_beta(spectrum, beta)]
        )
