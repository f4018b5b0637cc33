"""Dense runs on psi0's invariant sector of the charger, plain or lumped into
equitable groups, against the run in the whole model basis
(``oracles.full_space_run``)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qbattery import (
    ModelSpec, ValidationError, chain_spec, linalg, models, run_trajectory, sweeps, trajectory,
)
from qbattery.config import load_scenario
from qbattery.linalg import Basis, SparseHermitian, equitable_groups, invariant_sector
from qbattery.sweeps import quantities_for, sweep, trajectory_quantities
from qbattery.trajectory import _group_labels

from oracles import full_space_run, invariant_sector_unique

# Columns gated at 1e-12 absolute against the full-space run.
EXACT_COLUMNS = ("populations", "population_rates", "energy", "power", "var_battery")
# I_E sums p_dot^2 / p over levels down to POPULATION_FLOOR = 1e-12, so a
# rounding-level change in a nearly empty level's p moves it far more than p
# itself; cos theta divides P by sqrt(var_HB I_E), which vanishes where the
# charge starts and turns.  Measured maxima over the runs below: I_E 1.9e-11
# (lmg, gamma = -1), cos theta 9.7e-10 (xx_nn N = 3).
FISHER_BOUND = 1e-10
COS_THETA_BOUND = 1e-8


SHIPPED_SCENARIOS = (
    "parallel_n8", "global_n8", "hybrid_n8", "jw_xx_nn_n8", "jw_xy_nn_n8", "jw_xx_pow_n8",
    "jw_xy_pow_n8", "lmg_n20_lam5", "lmg_n20_lam20", "dicke_n8_weak", "dicke_n8_strong",
)


def _shipped(name):
    cfg = load_scenario(f"configs/{name}.json")
    return pytest.param(cfg.spec, cfg.steps, id=name)


ORACLE_RUNS = [
    pytest.param(ModelSpec(family="parallel", n_cells=6), 300, id="parallel"),
    pytest.param(ModelSpec(family="global", n_cells=6), 300, id="global"),
    pytest.param(ModelSpec(family="hybrid", n_cells=6, q=2, r=3), 300, id="hybrid-q2"),
    pytest.param(ModelSpec(family="hybrid", n_cells=6, q=3, r=2), 300, id="hybrid-q3"),
    *[
        pytest.param(chain_spec(v, n), 300, id=f"{v}-N{n}")
        for v in models.CHAIN_VARIANTS for n in range(3, 9)
    ],
    pytest.param(ModelSpec(family="lmg", n_cells=20, lam=5.0, gamma=-1.0), 300, id="lmg-gamma-1"),
    pytest.param(ModelSpec(family="lmg", n_cells=20, lam=5.0, gamma=0.3), 300, id="lmg-gamma0.3"),
    _shipped("dicke_n8_strong"),  # automatic cutoff, doubles 24 -> 48
    pytest.param(ModelSpec(family="dicke", n_cells=4, lam=0.3, n_max=12), 300, id="dicke-nmax12"),
]


def assert_matches_the_full_space_run(traj, steps):
    oracle, states = full_space_run(traj.spec, traj.times)
    for name in EXACT_COLUMNS:
        assert np.abs(getattr(traj, name) - getattr(oracle, name)).max() <= 1e-12, name
    assert traj.initial_energy == pytest.approx(oracle.initial_energy, abs=1e-12)
    assert traj.var_charger == pytest.approx(oracle.var_charger, rel=1e-12, abs=1e-12)
    assert abs(traj.fock_edge_population - oracle.fock_edge_population) <= 1e-12
    for name in ("fisher_energy", "fisher_energy_full"):
        assert np.abs(getattr(traj, name) - getattr(oracle, name)).max() <= FISHER_BOUND, name
    assert np.array_equal(np.isnan(traj.cos_theta), np.isnan(oracle.cos_theta))
    assert np.nanmax(np.abs(traj.cos_theta - oracle.cos_theta)) <= COS_THETA_BOUND
    for t in (0.3137 * traj.times[-1], 0.771 * traj.times[-1]):
        assert traj.energy_at(t) == pytest.approx(oracle.energy_at(t), abs=1e-12)
    for i in (0, 1, steps // 2, steps - 1):
        assert np.abs(traj.state_at(i).amplitudes - states[:, i]).max() <= 1e-12


@pytest.mark.parametrize("spec,steps", ORACLE_RUNS)
def test_sector_run_matches_the_full_space_run(spec, steps):
    traj = run_trajectory(spec, steps=steps, path="dense")
    if spec.family == "dicke" and spec.n_max is None:
        assert traj.spec.n_max == 48
    assert_matches_the_full_space_run(traj, steps)


LUMPED_RUNS = [
    *ORACLE_RUNS,
    pytest.param(ModelSpec(family="parallel", n_cells=8), 300, id="parallel-N8"),
    *[
        pytest.param(chain_spec(v, n), 300, id=f"{v}-N{n}")
        for v in ("xx_nn", "xy_nn") for n in (9, 10)
    ],
]


@pytest.mark.parametrize("spec,steps", LUMPED_RUNS)
def test_lumped_run_matches_the_full_space_run(spec, steps):
    traj = run_trajectory(spec, steps=steps, path="dense", lumped=True)
    if spec.family == "dicke" and spec.n_max is None:
        assert traj.spec.n_max == 48
    assert_matches_the_full_space_run(traj, steps)


def test_parallel_sector_is_the_whole_basis_and_the_record_is_unchanged():
    # Every basis state is reached, so the run diagonalizes the charger
    # itself and its record is the full-space run's, bit for bit.
    spec = ModelSpec(family="parallel", n_cells=8)
    steps = 2 * models.TIME_CHUNK + 7
    traj = run_trajectory(spec, steps=steps, path="dense")
    assert traj.sector.basis == models.model_basis(spec) and traj.sector.basis.groups is None
    oracle, states = full_space_run(spec, traj.times)
    for name in (*EXACT_COLUMNS, "fisher_energy", "fisher_energy_full"):
        assert np.array_equal(getattr(traj, name), getattr(oracle, name)), name
    assert np.array_equal(traj.cos_theta, oracle.cos_theta, equal_nan=True)
    assert (traj.initial_energy, traj.var_charger) == (oracle.initial_energy, oracle.var_charger)
    assert traj.energy_at(0.3137) == oracle.energy_at(0.3137)
    for i in (0, models.TIME_CHUNK, steps - 1):
        assert np.array_equal(traj.state_at(i).amplitudes, states[:, i])


@pytest.mark.parametrize(
    "spec,reached",
    [
        (ModelSpec(family="global", n_cells=8), [0, 8]),
        (ModelSpec(family="hybrid", n_cells=8, q=2, r=4), [0, 4, 8]),
        (ModelSpec(family="hybrid", n_cells=8, q=4, r=2), [0, 2, 4, 6, 8]),
    ],
    ids=["global", "hybrid-q2", "hybrid-q4"],
)
def test_unreachable_levels_stay_exactly_empty(spec, reached):
    # np.add.reduceat at a repeated start returns the next row, not 0: the
    # level sums must skip the levels the sector misses.
    traj = run_trajectory(spec, steps=300)
    empty = np.setdiff1d(np.arange(spec.n_cells + 1), reached)
    assert np.all(traj.populations[empty] == 0.0)
    assert np.all(traj.population_rates[empty] == 0.0)
    assert traj.populations[reached].max(axis=1).min() > 0.1
    oracle, _ = full_space_run(spec, traj.times)
    assert np.abs(traj.populations - oracle.populations).max() <= 1e-12


@pytest.mark.parametrize(
    "spec,size",
    [
        (ModelSpec(family="parallel", n_cells=8), 2**8),
        (ModelSpec(family="global", n_cells=8), 2),
        (ModelSpec(family="hybrid", n_cells=8, q=2, r=4), 4),
        (ModelSpec(family="lmg", n_cells=20, lam=5.0), 11),
        (ModelSpec(family="dicke", n_cells=8, lam=0.01), 113),  # spin + photon parity of 9 x 25
        (chain_spec("xy_nn", 10), math.comb(10, 5)),
        (chain_spec("xx_nn", 10), 2**9),
    ],
    ids=["parallel", "global", "hybrid", "lmg", "dicke", "xy_nn", "xx_nn"],
)
def test_sector_sizes(spec, size):
    charger = models.build_charger_for(spec)
    sector = invariant_sector(charger, models.initial_state(spec).amplitudes)
    assert len(sector) == len(set(sector.tolist())) == size
    # No entry couples the sector to the rest of the basis.
    outside = np.setdiff1d(np.arange(charger.dim), sector)
    assert not charger.matrix[np.ix_(outside, sector)].any()


def shipped_dense_chargers():
    """Every dense charger a shipped run builds: the 11 scenarios (the unit
    kernel's families on the dense path), each Fock cutoff that a cavity
    run may try, and every point of the dense N sweeps."""
    specs = {name: load_scenario(f"configs/{name}.json").spec for name in SHIPPED_SCENARIOS}
    for name in ("sweep_dicke_weak_power", "sweep_lmg_var"):
        cfg = load_scenario(f"configs/{name}.json")
        for n in cfg.sweep.values:
            specs[f"{name}-N{n}"] = sweeps._respecify(cfg.spec, n)
    for n in (4, 6, 8, 10, 12):
        specs[f"dense_chain-N{n}"] = chain_spec("xy_nn", n)
    for key, spec in list(specs.items()):
        if spec.family == "dicke" and spec.n_max is None:
            del specs[key]
            first = models.model_basis(spec).n_max
            for k in range(trajectory.MAX_FOCK_DOUBLINGS + 1):
                specs[f"{key}-nmax{first * 2**k}"] = replace(spec, n_max=first * 2**k)
    return specs


DENSE_CHARGERS = shipped_dense_chargers()


@pytest.mark.parametrize("key", DENSE_CHARGERS)
def test_sector_order_is_the_unique_frontier_loops(key):
    # The order sets the t = 0 rounding of a run, so it stays the reference's.
    spec = DENSE_CHARGERS[key]
    charger, psi0 = models.build_charger_for(spec), models.initial_state(spec)
    sector = invariant_sector(charger, psi0.amplitudes)
    assert np.array_equal(sector, invariant_sector_unique(charger, psi0.amplitudes))


@pytest.mark.parametrize(
    "spec,groups",
    [
        (ModelSpec(family="parallel", n_cells=8), 9),  # the levels: any cell may be excited
        (ModelSpec(family="global", n_cells=8), 2),
        (ModelSpec(family="hybrid", n_cells=8, q=2, r=4), 3),  # either block alone is one group
        (ModelSpec(family="lmg", n_cells=20, lam=5.0), 11),
        (ModelSpec(family="dicke", n_cells=8, lam=0.01), 113),
        (chain_spec("xy_nn", 10), 26),
        (chain_spec("xx_nn", 10), 44),
        (chain_spec("xx_pow", 10), 44),
    ],
    ids=["parallel", "global", "hybrid", "lmg", "dicke", "xy_nn", "xx_nn", "xx_pow"],
)
def test_equitable_groups(spec, groups):
    charger, psi0 = models.build_charger_for(spec), models.initial_state(spec)
    sector = invariant_sector(charger, psi0.amplitudes)
    found = equitable_groups(charger, sector, _group_labels(charger, psi0))
    assert len(found) == groups
    assert sorted(np.concatenate(found).tolist()) == sorted(sector.tolist())
    # Each group's states share their level and psi0 amplitude, and the same
    # entries into every group (summed in sorted order, so equal sets sum
    # equal), exactly: the charger maps the even spreads over the groups into
    # their span.
    counts = models.excitation_counts(charger.basis)
    sums = np.column_stack(
        [np.sort(charger.matrix[np.ix_(sector, group)], axis=1).sum(axis=1) for group in found]
    )
    for group in found:
        rows = np.isin(sector, group)
        assert len(set(counts[group])) == len(set(psi0.amplitudes[group])) == 1
        assert (sums[rows] == sums[rows][0]).all()
    lumped = charger.lump(found)
    spreads = np.zeros((charger.dim, len(found)), dtype=complex)
    spreads[lumped.basis.members] = lumped.basis.expand(np.eye(len(found)))
    assert np.abs(charger.matrix @ spreads - spreads @ lumped.matrix).max() <= 1e-13


def test_lump_keeps_the_parent_indices():
    values = np.diag([1.0, 2.0, 3.0, 4.0]) + 0j
    values[0, 3] = values[3, 0] = 0.5
    rows, cols = np.nonzero(values)
    op = SparseHermitian(Basis("qubit_chain", 2), rows, cols, values[rows, cols])
    sector = invariant_sector(op, np.array([1.0, 0, 0, 0]))
    assert sector.tolist() == [3, 0]
    sub = op.lump(sector[:, None])
    assert sub.basis.groups == ((3,), (0,)) and sub.basis.dim == 2 and sub.basis.full_dim == 4
    assert np.array_equal(sub.matrix, [[4.0, 0.5], [0.5, 1.0]])
    whole = op.lump(np.arange(4)[::-1, None])  # the whole basis, in any order
    assert whole.basis == op.basis and np.array_equal(whole.matrix, values)
    assert np.array_equal(models.excitation_counts(sub.basis), [2, 0])


def test_a_group_is_an_even_spread():
    # Two groups, {1, 2} and {0}: 1 and 2 couple alike to 0 and to each other.
    values = np.array([[0.0, 1, 1, 0], [1, 2, 0.5, 0], [1, 0.5, 2, 0], [0, 0, 0, 5]]) + 0j
    rows, cols = np.nonzero(values)
    op = SparseHermitian(Basis("qubit_chain", 2), rows, cols, values[rows, cols])
    groups = equitable_groups(op, np.array([0, 1, 2]), np.array([0, 1, 1, 2]))
    assert [group.tolist() for group in groups] == [[0], [1, 2]]
    lumped = op.lump(groups)
    assert np.allclose(lumped.matrix, [[0.0, np.sqrt(2)], [np.sqrt(2), 2.5]], rtol=0, atol=1e-15)
    assert lumped.basis.indices.tolist() == [0, 1] and lumped.basis.members.tolist() == [0, 1, 2]
    spread = 0.8 / np.sqrt(2)
    assert np.allclose(lumped.basis.expand(np.array([0.6, 0.8])), [0.6, spread, spread])
    assert np.allclose(lumped.basis.project(np.array([0.6, spread, spread, 0.0]) + 0j), [0.6, 0.8])


@pytest.mark.parametrize(
    "spec",
    [chain_spec("xx_nn", 8), chain_spec("xy_pow", 8), ModelSpec(family="parallel", n_cells=6),
     ModelSpec(family="lmg", n_cells=12, lam=5.0)],
    ids=["xx_nn", "xy_pow", "parallel", "lmg"],
)
def test_dense_sweep_points_run_lumped(spec):
    lumped = run_trajectory(spec, steps=400, path="dense", lumped=True)
    assert quantities_for(spec, steps=400, path="dense") == trajectory_quantities(lumped)
    plain = trajectory_quantities(run_trajectory(spec, steps=400, path="dense"))
    for key, value in trajectory_quantities(lumped).items():
        assert value == pytest.approx(plain[key], rel=1e-9, abs=1e-12), key


@pytest.mark.parametrize("variant", ["xy_nn", "xx_nn"])
def test_a_dense_sweep_point_is_sized_by_its_groups(variant):
    # N = 13 builds the 8192-state charger's entries; its run propagates 190
    # equitable groups of a 4096-state sector, which a rule sizing the whole
    # basis refused at ~7.7 GB.
    spec = chain_spec(variant, 13)
    traj = run_trajectory(spec, steps=300, path="dense", lumped=True)
    assert traj.sector.dim == 190 and models.check_dense_size(spec, 300, 190) < 2**26
    dense = trajectory_quantities(traj)
    for key, value in quantities_for(spec, steps=300, path="analytic").items():
        assert dense[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key


@pytest.mark.parametrize("groups", [(), ((0,), (0,)), ((4,),), ((-1,),), ((1,), ())])
def test_basis_groups_are_disjoint_sets_of_its_indices(groups):
    with pytest.raises(ValidationError, match="basis groups are nonempty, disjoint sets"):
        Basis("qubit_chain", 2, groups=groups)


def test_every_shipped_dense_sector_has_float64_eigenvectors(monkeypatch):
    # The shipped scenarios (the chains on the dense path) and the shipped
    # dense sweeps: each sector matrix is held as float64, and the
    # eigensolver returns its eigenvectors with an imaginary part of exactly
    # zero, so every run takes the real products.  They are the complex
    # solver's (zheevd's) bits on the matrix's complex form.
    decomposed = []

    def recording(op):
        decomposed.append(linalg.eigendecompose(op))
        assert op.values.dtype == np.float64
        values, vectors = np.linalg.eigh(op.values.astype(complex))
        assert decomposed[-1].eigenvalues.tobytes() == values.tobytes()
        assert not vectors.imag.any()
        assert decomposed[-1].eigenvectors.tobytes() == np.ascontiguousarray(vectors.real).tobytes()
        return decomposed[-1]

    monkeypatch.setattr(trajectory, "eigendecompose", recording)
    for name in SHIPPED_SCENARIOS:
        cfg = load_scenario(f"configs/{name}.json")
        run_trajectory(cfg.spec, cfg.lam_t_max, cfg.steps, path="dense")
    for name in ("sweep_dicke_weak_power", "sweep_lmg_var", "lmg_gamma_scan"):
        cfg = load_scenario(f"configs/{name}.json")
        sweep(cfg.spec, cfg.sweep.parameter, cfg.sweep.values, cfg.lam_t_max, cfg.steps, cfg.sweep.path)
    assert len(decomposed) > len(SHIPPED_SCENARIOS)
    assert all(op.eigenvectors.dtype == np.float64 for op in decomposed)
