"""Model chargers as entry lists (``linalg.SparseHermitian``) against the dense
builders they replaced (``oracles.dense_charger``): the same matrix bit for
bit, the same sector and equitable groups, order included, and the same dense
matrix on the sector or on its groups, bit for bit."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbattery import ModelSpec, ValidationError, chain_spec, models, run_trajectory
from qbattery.cli import main
from qbattery.config import load_scenario
from qbattery.linalg import Basis, SparseHermitian, equitable_groups, invariant_sector
from qbattery.trajectory import _group_labels
from qbattery.verification import certify_trajectory

from oracles import dense_charger, dense_equitable_groups, dense_invariant_sector, dense_lump

LAMS = st.floats(min_value=1e-3, max_value=10.0)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """``got`` has the bits of the complex oracle ``want``: all of them for a
    complex operator, and for a real one, held as float64, those of the real
    part, the imaginary part being exactly zero."""
    want = np.ascontiguousarray(want, dtype=complex)
    assert got.shape == want.shape
    if got.dtype == np.float64:
        assert not want.imag.any()
        want = np.ascontiguousarray(want.real)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def assert_entries_are_the_dense_charger(spec) -> None:
    charger = models.build_charger_for(spec)
    assert charger.basis == models.model_basis(spec) and charger.values.dtype == np.float64
    assert_same_bits(charger.matrix, dense_charger(spec))


@pytest.mark.parametrize("family", ["parallel", "global"])
@given(n=st.integers(min_value=1, max_value=9), lam=LAMS)
def test_paradigmatic_entries(family, n, lam):
    assert_entries_are_the_dense_charger(ModelSpec(family=family, n_cells=n, lam=lam))


@given(r=st.integers(min_value=1, max_value=3), q=st.integers(min_value=1, max_value=3), lam=LAMS)
def test_hybrid_entries(r, q, lam):
    assert_entries_are_the_dense_charger(ModelSpec(family="hybrid", n_cells=q * r, lam=lam, q=q, r=r))


@pytest.mark.parametrize("variant", models.CHAIN_VARIANTS)
@given(n=st.integers(min_value=3, max_value=10))
def test_chain_variant_entries(variant, n):
    assert_entries_are_the_dense_charger(chain_spec(variant, n))


@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_chain_entries(n, seed):
    # Ranges m and N - m flip the same pair of cells, so their terms share
    # entries and must sum in the dense builder's term order.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    couplings = rng.normal(size=(2, m)) * (rng.random((2, m)) < 0.8)
    spec = ModelSpec(family="jw_chain", n_cells=n, lambdas=tuple(couplings[0]), gammas=tuple(couplings[1]))
    assert_entries_are_the_dense_charger(spec)


@given(
    n=st.integers(min_value=1, max_value=60),
    gamma=st.sampled_from([-1.0, -0.5, 0.0, 0.3, 1.0, 2.5]) | st.floats(min_value=-3, max_value=3),
    lam=LAMS,
)
def test_lmg_entries(n, gamma, lam):
    assert_entries_are_the_dense_charger(ModelSpec(family="lmg", n_cells=n, lam=lam, gamma=gamma))


@pytest.mark.parametrize("gamma", [-1.0, 0.3, 1.0, 2.5])
def test_lmg_entries_at_a_large_n(gamma):
    # The entry-wise build is O(N); the dense oracle's four (N+1)^2 products
    # are what it reproduces.
    assert_entries_are_the_dense_charger(ModelSpec(family="lmg", n_cells=400, lam=5.0, gamma=gamma))


@given(
    n=st.integers(min_value=1, max_value=8),
    headroom=st.none() | st.integers(min_value=2, max_value=40),
    lam=LAMS,
    normalize=st.booleans(),
)
def test_dicke_entries(n, headroom, lam, normalize):
    n_max = None if headroom is None else n + headroom  # None: the default cutoff 2N + 8
    spec = ModelSpec(family="dicke", n_cells=n, lam=lam, n_max=n_max, normalize_coupling=normalize)
    assert_entries_are_the_dense_charger(spec)


def _shipped(name):
    return pytest.param(load_scenario(f"configs/{name}.json").spec, id=name)


SHIPPED_SPECS = [
    *[_shipped(name) for name in (
        "parallel_n8", "global_n8", "hybrid_n8", "jw_xx_nn_n8", "jw_xx_pow_n8", "jw_xy_nn_n8",
        "jw_xy_pow_n8", "lmg_n20_lam5", "lmg_n20_lam20", "dicke_n8_weak", "dicke_n8_strong",
    )],
    pytest.param(ModelSpec(family="dicke", n_cells=8, lam=0.5, n_max=48), id="dicke_n8_strong-n48"),
    *[pytest.param(chain_spec(v, n), id=f"{v}-N{n}") for v in ("xx_nn", "xy_nn") for n in (4, 6, 10)],
    *[pytest.param(ModelSpec(family="dicke", n_cells=n, lam=0.01), id=f"dicke-N{n}") for n in (4, 12)],
    *[pytest.param(ModelSpec(family="lmg", n_cells=n, lam=5.0), id=f"lmg-N{n}") for n in (10, 60)],
]


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_sector_and_groups_are_the_dense_scans(spec):
    charger, dense = models.build_charger_for(spec), dense_charger(spec)
    psi0 = models.initial_state(spec)
    sector = invariant_sector(charger, psi0.amplitudes)
    assert np.array_equal(sector, dense_invariant_sector(dense, psi0.amplitudes))
    labels = _group_labels(charger, psi0)
    groups = equitable_groups(charger, sector, labels)
    want = dense_equitable_groups(dense, sector, labels)
    assert len(groups) == len(want) and all(map(np.array_equal, groups, want))
    # The run's dense matrices: the sector's and the groups', bit for bit,
    # against the same reduction over the whole dense matrix in the entries'
    # dtype.  The oracle's imaginary part is exactly zero, and the groups'
    # float64 sums round otherwise than complex128 sums of four or more.
    assert not dense.imag.any()
    assert_same_bits(charger.lump(sector[:, None]).matrix, dense_lump(dense, sector[:, None]))
    assert_same_bits(charger.lump(groups).matrix, dense_lump(dense.real, groups))


@pytest.mark.parametrize(
    "spec,states",
    [(ModelSpec(family="global", n_cells=16), 2), (ModelSpec(family="hybrid", n_cells=16, q=4, r=4), 16)],
    ids=["global", "hybrid"],
)
def test_n16_runs_on_its_sector_without_a_dense_charger(spec, states):
    # The whole charger would be a 65536 x 65536 complex matrix, 68.7 GB.
    tracemalloc.start()
    try:
        traj = run_trajectory(spec, steps=400, path="dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.sector.dim == states and peak < 64 * 2**20
    # Each block of r cells flips all at once: E(t) = N sin^2(lam t).
    assert np.abs(traj.energy - 16 * np.sin(traj.times) ** 2).max() <= 1e-12
    assert certify_trajectory(traj).ok


def test_global_n16_simulates_and_certifies(tmp_path, capsys):
    cfg = tmp_path / "global_n16.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({"model": {"family": "global", "N": 16}, "outputs": {"directory": str(out)}}))
    assert main(["simulate", str(cfg)]) == 0
    assert main(["certify", str(out / "trajectory.csv")]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certification_ok"] and summary["E_max"] == pytest.approx(16.0, rel=1e-9)


class TestValidation:
    BASIS = Basis("qubit_chain", 2)

    def entries(self, rows, cols, values):
        return SparseHermitian(self.BASIS, np.array(rows), np.array(cols), np.array(values))

    def test_a_missing_transpose_counts_in_full(self):
        with pytest.raises(ValidationError, match=r"not Hermitian \(max deviation 5\.000e-01\)"):
            self.entries([0], [1], [0.5])
        self.entries([0], [1], [1e-13])  # within HERMITICITY_ATOL, like a dense operator

    def test_entries_are_hermitian_to_the_dense_tolerance(self):
        self.entries([0, 1], [1, 0], [1 + 1j, 1 - 1j + 1e-13])
        with pytest.raises(ValidationError, match="not Hermitian"):
            self.entries([0, 1], [1, 0], [1 + 1j, 1 + 1j])
        with pytest.raises(ValidationError, match="not Hermitian"):
            self.entries([3], [3], [1j])

    @pytest.mark.parametrize(
        "rows,cols,values",
        [([1, 0], [0, 1], [1, 1]), ([0, 0], [0, 0], [1, 1]), ([0], [0], [0.0])],
        ids=["unsorted", "repeated", "zero"],
    )
    def test_entries_are_nonzero_sorted_and_one_per_position(self, rows, cols, values):
        with pytest.raises(ValidationError, match="nonzero, sorted row-major, one per position"):
            self.entries(rows, cols, values)

    def test_entries_lie_in_the_basis(self):
        with pytest.raises(ValidationError, match="outside the 4-state basis"):
            self.entries([4], [4], [1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            self.entries([0], [0], [np.nan])

    def test_entries_and_back(self):
        values = np.array([[1, 2j, 0, 0], [-2j, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]], dtype=complex)
        rows, cols = np.nonzero(values)
        op = self.entries(rows, cols, values[rows, cols])
        assert op.rows.tolist() == [0, 0, 1, 2, 3] and op.cols.tolist() == [0, 1, 0, 3, 2]
        assert_same_bits(op.matrix, values)
        assert op.dense().basis == self.BASIS and np.array_equal(op.dense().matrix, values)
        assert op.row_entries(np.array([3, 0])).tolist() == [4, 0, 1]

