import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qbattery
from qbattery import (
    CapacityLimitError,
    ModelSpec,
    ValidationError,
    build_battery,
    build_charger_paradigmatic,
    build_dicke,
    build_jw_chain,
    build_lmg,
    chain_spec,
    eigendecompose,
    evolve,
    ghz_state,
    group_levels,
    initial_state,
    variance,
)
from qbattery.freefermion import check_chain_size, dispersion
from qbattery.linalg import Basis, invariant_sector
from qbattery.models import (
    CHAIN_VARIANTS,
    battery_cell_terms,
    build_battery_for,
    check_dense_size,
    excitation_counts,
    gigabytes,
    model_basis,
    power_law_couplings,
    register_spectrum,
    time_blocks,
)

from oracles import (
    SIGMA_X,
    SIGMA_Z,
    collective_spin_operators,
    cyclic_shift,
    jw_chain_kron,
    paradigmatic_charger_kron,
    site_operator,
)


def hermitian_deviation(mat):
    return np.abs(mat - mat.conj().T).max()


@pytest.mark.parametrize(
    "n_steps,bounds",
    [
        (0, []),
        (1, [(0, 1)]),
        (2, [(0, 2)]),
        (256, [(0, 256)]),
        (257, [(0, 257)]),  # a lone last time joins the block before
        (258, [(0, 256), (256, 258)]),
        (513, [(0, 256), (256, 513)]),
    ],
)
def test_time_blocks(n_steps, bounds):
    assert [(b.start, b.stop) for b in time_blocks(n_steps)] == bounds


class TestBattery:
    def test_single_cell(self):
        assert np.allclose(build_battery(1).matrix, np.diag([-0.5, 0.5]))

    def test_two_cell_spectrum(self):
        vals = np.sort(np.linalg.eigvalsh(build_battery(2).matrix))
        assert np.allclose(vals, [-1, 0, 0, 1])

    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_spectral_range_is_cell_count(self, n):
        op = eigendecompose(build_battery(n))
        assert op.eigenvalues[-1] - op.eigenvalues[0] == pytest.approx(n, abs=0)

    def test_no_dense_size_cap(self):
        # Beyond the dense charger cap the battery is still a 2^N vector.
        op = build_battery(16)
        assert op.is_diagonal and op.values.shape == (2**16,)
        assert op.values[0] == -8.0 and op.values[-1] == 8.0

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_register_spectrum_is_the_grouped_battery(self, n):
        energies, log_multiplicities = register_spectrum(n)
        levels = group_levels(eigendecompose(build_battery(n)).eigenvalues)
        assert np.array_equal(energies, levels.energies)
        assert np.allclose(np.exp(log_multiplicities), levels.multiplicities, rtol=1e-12, atol=0)

    def test_register_spectrum_beyond_float_multiplicities(self):
        energies, log_multiplicities = register_spectrum(2000)
        assert energies[0] == -1000.0 and energies[-1] == 1000.0 and len(energies) == 2001
        assert log_multiplicities[0] == 0.0 and log_multiplicities[-1] == 0.0
        # C(2000, 1000) ~ 2^1995 overflows a float; its log does not.  The
        # log-factorial differences lose about eps * log(2000!) ~ 3e-12.
        for k in (1, 7, 1000):
            assert log_multiplicities[k] == pytest.approx(math.log(math.comb(2000, k)), abs=1e-10)
        with pytest.raises(ValidationError):
            register_spectrum(0)

    def test_cell_terms_sum_to_battery(self):
        total = sum(battery_cell_terms(3))
        assert np.allclose(np.diag(total), build_battery(3).matrix)

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_cell_terms_match_kron(self, n):
        for j, term in enumerate(battery_cell_terms(n)):
            assert np.array_equal(np.diag(term), 0.5 * site_operator(n, {j: SIGMA_Z}))


class TestBitBuildersMatchKron:
    """The bit-built qubit operators equal the Kronecker-chain sums entry for entry."""

    @pytest.mark.parametrize("variant", CHAIN_VARIANTS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain_variants(self, variant, n):
        spec = chain_spec(variant, n)
        built = build_jw_chain(spec).matrix
        assert np.array_equal(built, jw_chain_kron(n, spec.lambdas, spec.gammas))

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("m_max", [1, 2, 3])
    def test_custom_chain_with_pairing(self, n, m_max):
        # lambda != gamma keeps the XX and YY terms apart; ranges up to 3 on
        # short rings make strings wrap round and pairs coincide (m and N - m).
        lambdas = tuple(0.9 - 0.35 * m for m in range(m_max))
        gammas = tuple(0.4 + 0.25 * m for m in range(m_max))
        spec = ModelSpec(family="jw_chain", n_cells=n, lam=1.0, lambdas=lambdas, gammas=gammas)
        assert np.array_equal(build_jw_chain(spec).matrix, jw_chain_kron(n, lambdas, gammas))

    @pytest.mark.parametrize(
        "family,n,q,r",
        [("parallel", 1, None, None), ("parallel", 6, None, None), ("global", 6, None, None),
         ("hybrid", 6, 3, 2), ("hybrid", 6, 2, 3)],
    )
    def test_paradigmatic(self, family, n, q, r):
        spec = ModelSpec(family=family, n_cells=n, lam=0.83, q=q, r=r)
        expected = paradigmatic_charger_kron(family, n, 0.83, q, r)
        assert np.array_equal(build_charger_paradigmatic(spec).matrix, expected)


class TestFamilyFields:
    @pytest.mark.parametrize(
        "family,own,foreign",
        [
            ("parallel", {}, {"q": 3, "gamma": 0.5}),
            ("global", {}, {"n_max": 20}),
            ("hybrid", {"q": 2, "r": 2}, {"lambdas": (1.0,), "gammas": (1.0,)}),
            ("jw_chain", {"lambdas": (1.0,), "gammas": (1.0,)}, {"gamma": 0.0}),
            ("lmg", {"gamma": 0.5}, {"normalize_coupling": False}),
            ("dicke", {"n_max": 20}, {"gammas": (0.5,)}),
        ],
    )
    def test_foreign_fields_rejected(self, family, own, foreign):
        ModelSpec(family=family, n_cells=4, **own)
        with pytest.raises(ValidationError, match=f"{family} model takes no {', '.join(foreign)}"):
            ModelSpec(family=family, n_cells=4, **own, **foreign)

    def test_defaults_are_not_foreign(self):
        spec = ModelSpec(family="parallel", n_cells=4, gamma=-1.0, n_max=None, lambdas=[])
        assert spec.lambdas == ()


class TestParadigmaticChargers:
    def test_parallel_ground_state_moments(self):
        lam, n = 0.7, 5
        spec = ModelSpec(family="parallel", n_cells=n, lam=lam)
        charger = build_charger_paradigmatic(spec).dense()
        psi0 = initial_state(spec)
        assert variance(psi0, charger) == pytest.approx(n * lam**2, rel=1e-12)
        assert charger.norm() == pytest.approx(n * lam, rel=1e-12)

    def test_global_ground_state_variance(self):
        spec = ModelSpec(family="global", n_cells=4, lam=1.3)
        assert variance(initial_state(spec), build_charger_paradigmatic(spec).dense()) == pytest.approx(
            1.3**2, rel=1e-12
        )

    def test_hybrid_ground_state_variance(self):
        spec = ModelSpec(family="hybrid", n_cells=4, lam=1.0, q=2, r=2)
        assert variance(initial_state(spec), build_charger_paradigmatic(spec).dense()) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_size_cap_names_limit(self):
        for family, kw in (("parallel", {}), ("hybrid", {"q": 8, "r": 3})):
            with pytest.raises(
                CapacityLimitError, match=f"dense run of {family} N = 24 .* over the 4.3 GB run limit"
            ):
                build_charger_paradigmatic(ModelSpec(family=family, n_cells=24, **kw))

    def test_hybrid_layout_validated(self):
        with pytest.raises(ValidationError):
            ModelSpec(family="hybrid", n_cells=4, q=3, r=2)

    @pytest.mark.parametrize(
        "family,kw",
        [("parallel", {}), ("global", {}), ("hybrid", {"q": 2, "r": 3})],
    )
    def test_full_charge_at_quarter_period(self, family, kw):
        n = 6
        spec = ModelSpec(family=family, n_cells=n, lam=1.0, **kw)
        charger = eigendecompose(build_charger_paradigmatic(spec).dense())
        battery = build_battery(n)
        psi = evolve(charger, initial_state(spec), np.pi / 2)
        top = np.zeros(2**n)
        top[-1] = 1.0
        assert abs(abs(np.vdot(top, psi.amplitudes)) - 1) < 1e-9
        stored = np.vdot(psi.amplitudes, battery.matrix @ psi.amplitudes).real + n / 2
        assert stored == pytest.approx(n, abs=1e-9)


class TestChain:
    def test_xx_nn_reduces_to_xx_terms(self):
        n = 5
        spec = ModelSpec(family="jw_chain", n_cells=n, lambdas=(1.0,), gammas=(1.0,))
        built = build_jw_chain(spec).matrix
        expected = build_battery(n).matrix.astype(complex)
        for j in range(n):
            expected += site_operator(n, {j: SIGMA_X, (j + 1) % n: SIGMA_X})
        assert np.abs(built - expected).max() < 1e-12

    def test_zero_pairing_commutes_with_battery(self):
        spec = ModelSpec(family="jw_chain", n_cells=4, lambdas=(0.7, 0.3), gammas=(0.0, 0.0))
        h = build_jw_chain(spec).matrix
        hb = build_battery(4).matrix
        assert np.abs(h @ hb - hb @ h).max() < 1e-12

    def test_translation_invariance(self):
        spec = chain_spec("xy_pow", 8)
        h = build_jw_chain(spec).matrix
        shift = cyclic_shift(8)
        assert np.abs(h @ shift - shift @ h).max() < 1e-10

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            ModelSpec(family="jw_chain", n_cells=3, lambdas=(0.0,) * 3, gammas=(1.0,) * 3)

    def test_populated_spectrum_matches_pair_energies(self):
        # From the vacuum, dynamics only reaches eigenstates whose energies
        # are sums of one +-omega_k choice per mode pair.
        n = 8
        spec = chain_spec("xy_nn", n)
        op = eigendecompose(build_jw_chain(spec).dense())
        psi0 = initial_state(spec)
        weights = np.abs(op.eigenvectors.conj().T @ psi0.amplitudes) ** 2
        omega = dispersion(spec).omega
        combos = {
            sum(s * w for s, w in zip(signs, omega))
            for signs in np.ndindex(*(2,) * len(omega))
            for signs in [tuple(1 if b else -1 for b in signs)]
        }
        combos = np.array(sorted(combos))
        for val, weight in zip(op.eigenvalues, weights):
            if weight > 1e-12:
                assert np.min(np.abs(combos - val)) < 1e-8

    def test_size_cap(self):
        with pytest.raises(CapacityLimitError, match="dense run of jw_chain N = 22 .* run limit"):
            build_jw_chain(chain_spec("xx_nn", 22))

    def test_power_law_couplings(self):
        lambdas, gammas = power_law_couplings(10, "xy")
        assert gammas == (1.0, 0.25, 1 / 9, 1 / 16)
        assert lambdas == (0.0,) * 4


class TestCollective:
    def test_jz_spectrum(self):
        battery = build_battery_for(ModelSpec(family="lmg", n_cells=7, lam=1.0))
        assert np.allclose(np.diagonal(battery.matrix).real, np.arange(-3.5, 4.0))

    def test_no_charging_at_unit_anisotropy(self):
        spec = ModelSpec(family="lmg", n_cells=6, lam=2.0, gamma=1.0)
        charger, battery = build_lmg(spec), build_battery_for(spec)
        charger = eigendecompose(charger.dense())
        psi0 = initial_state(spec)
        e0 = np.vdot(psi0.amplitudes, battery.matrix @ psi0.amplitudes).real
        for t in (0.3, 1.1, 4.0):
            psi = evolve(charger, psi0, t)
            e = np.vdot(psi.amplitudes, battery.matrix @ psi.amplitudes).real
            assert abs(e - e0) < 1e-10

    def test_charger_variance_large_size_limit(self):
        lam, gamma, n = 1.0, -1.0, 200
        spec = ModelSpec(family="lmg", n_cells=n, lam=lam, gamma=gamma)
        charger = build_lmg(spec).dense()
        var = variance(initial_state(spec), charger)
        limit = lam**2 / 2 * (1 - gamma) ** 2
        assert abs(var - limit) < 5 * limit / n  # O(1/N) corrections

    def test_ladder_algebra(self):
        ops = collective_spin_operators(4)
        jz, jp = ops["jz"], ops["jp"]
        assert np.abs(jz @ jp - jp @ jz - jp).max() < 1e-12


class TestCavity:
    def test_coupling_matrix_element(self):
        n, n_max, lam = 4, 10, 0.6
        spec = ModelSpec(family="dicke", n_cells=n, lam=lam, n_max=n_max)
        charger = build_dicke(spec)
        j = n / 2
        m_idx, m = 1, -1.0  # |j, m=-1> at spin index 1
        n_ph = 5
        row = (m_idx + 1) * (n_max + 1) + (n_ph - 1)
        col = m_idx * (n_max + 1) + n_ph
        expected = (2 * lam / np.sqrt(n)) * 0.5 * np.sqrt(j * (j + 1) - m * (m + 1)) * np.sqrt(n_ph)
        assert charger.matrix[row, col] == pytest.approx(expected, rel=1e-12)

    def test_decoupled_spectrum(self):
        spec = ModelSpec(family="dicke", n_cells=1, lam=0.0, n_max=5)
        charger = build_dicke(spec)
        vals = np.sort(np.linalg.eigvalsh(charger.matrix))
        expected = np.sort([m + k for m in (-0.5, 0.5) for k in range(6)])
        assert np.allclose(vals, expected, atol=1e-12)

    def test_initial_variance_linear_in_photon_budget(self):
        # The charger variance on the initial state is computed, not assumed:
        # it must be exactly linear in 2N+1 and sit at a constant ratio to
        # 2 lam^2 (2N+1); the ratio itself is reported, not pinned.
        lam = 0.35
        ratios = []
        for n in (2, 4, 8, 12):
            spec = ModelSpec(family="dicke", n_cells=n, lam=lam)
            charger = build_dicke(spec).dense()
            var = variance(initial_state(spec), charger)
            ratios.append(var / (2 * lam**2 * (2 * n + 1)))
        assert np.std(ratios) < 1e-9 * np.mean(ratios)

    def test_unnormalized_variant(self):
        lam, n = 0.2, 3
        base = variance(
            initial_state(ModelSpec(family="dicke", n_cells=n, lam=lam)),
            build_dicke(ModelSpec(family="dicke", n_cells=n, lam=lam)).dense(),
        )
        spec = ModelSpec(family="dicke", n_cells=n, lam=lam, normalize_coupling=False)
        unnorm = variance(initial_state(spec), build_dicke(spec).dense())
        assert unnorm == pytest.approx(n * base, rel=1e-10)

    def test_fock_headroom_required(self):
        with pytest.raises(ValidationError):
            ModelSpec(family="dicke", n_cells=4, n_max=5)
        with pytest.raises(ValidationError):
            build_dicke(replace(ModelSpec(family="dicke", n_cells=4), n_max=5))


class TestExcitationLadder:
    def test_qubit_counts_are_set_bits(self):
        counts = excitation_counts(Basis("qubit_chain", 5))
        assert list(counts) == [bin(idx).count("1") for idx in range(32)]

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_collective_battery_is_jz(self, n):
        battery = build_battery_for(ModelSpec(family="lmg", n_cells=n))
        assert np.array_equal(battery.matrix, collective_spin_operators(n)["jz"])

    @pytest.mark.parametrize("n,n_max", [(1, 3), (3, 7), (4, None)])
    def test_cavity_battery_is_jz_times_identity(self, n, n_max):
        spec = ModelSpec(family="dicke", n_cells=n, n_max=n_max)
        battery = build_battery_for(spec)
        n_fock = (n_max if n_max is not None else 2 * n + 8) + 1
        expected = np.kron(collective_spin_operators(n)["jz"], np.eye(n_fock))
        assert np.array_equal(battery.matrix, expected)
        assert battery.basis == build_dicke(spec).basis == initial_state(spec).basis

    def test_basis_resolution(self):
        assert model_basis(ModelSpec(family="global", n_cells=3)) == Basis("qubit_chain", 3)
        assert model_basis(ModelSpec(family="lmg", n_cells=3)) == Basis("collective_spin", 3)
        dicke = ModelSpec(family="dicke", n_cells=3)
        assert model_basis(dicke) == Basis("spin_fock", 3, 14)
        assert model_basis(ModelSpec(family="dicke", n_cells=3, n_max=6)).n_max == 6
        assert model_basis(replace(dicke, n_max=9)).n_max == 9
        with pytest.raises(ValidationError, match="headroom"):
            model_basis(replace(dicke, n_max=4))


class TestInitialStates:
    def test_qubit_ground(self):
        psi = initial_state(ModelSpec(family="parallel", n_cells=3))
        assert psi.amplitudes[0] == 1.0 and np.abs(psi.amplitudes[1:]).max() == 0.0

    def test_collective_bottom(self):
        psi = initial_state(ModelSpec(family="lmg", n_cells=4))
        assert psi.dim == 5 and psi.amplitudes[0] == 1.0

    def test_cavity_photon_number(self):
        psi = initial_state(ModelSpec(family="dicke", n_cells=2, n_max=6))
        assert psi.dim == 3 * 7
        assert psi.amplitudes[2] == 1.0 and np.abs(np.delete(psi.amplitudes, 2)).max() == 0.0


class TestStateHelpers:
    def test_ghz_variance(self):
        for n in (2, 3, 5):
            psi = ghz_state(n)
            assert variance(psi, build_battery(n)) == pytest.approx(n**2 / 4, rel=1e-12)

    def test_ghz_blocks_cover_chain(self):
        with pytest.raises(ValidationError):
            ghz_state(5, [2, 2])


@pytest.mark.parametrize(
    "builder,spec",
    [
        (lambda s: build_battery(s.n_cells), ModelSpec(family="parallel", n_cells=5)),
        (build_charger_paradigmatic, ModelSpec(family="hybrid", n_cells=6, q=3, r=2)),
        (build_jw_chain, chain_spec("xx_pow", 8)),
        (lambda s: build_lmg(s), ModelSpec(family="lmg", n_cells=9, lam=3.0, gamma=0.3)),
        (lambda s: build_dicke(s), ModelSpec(family="dicke", n_cells=3, lam=0.4)),
    ],
)
def test_all_builders_hermitian(builder, spec):
    op = builder(spec)
    assert hermitian_deviation(op.matrix) < 1e-12


# One run in a fresh interpreter: its max RSS growth over the post-import
# baseline, and the size rule's estimate for the run.  The peak is the
# process's VmHWM: ru_maxrss would start from the forking parent's peak.
PEAK_KIB = """
import sys
from qbattery import freefermion, models, output, trajectory, verification

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

base = peak_kib()
"""
# A dense run as run_trajectory + certify_trajectory, over the cutoff it ran.
RSS_CHILD = PEAK_KIB + """
spec, steps = eval(sys.argv[1], {"ModelSpec": models.ModelSpec}), int(sys.argv[2])
traj = trajectory.run_trajectory(spec, steps=steps, path="dense")
verification.certify_trajectory(traj)
print((peak_kib() - base) * 1024, models.check_dense_size(traj.spec, steps, traj.sector.dim))
"""
# A free-fermion chain run, certified and written with its populations.
CHAIN_RSS_CHILD = PEAK_KIB + """
n, steps = int(sys.argv[1]), int(sys.argv[2])
traj = trajectory.run_trajectory(models.chain_spec("xy_nn", n), steps=steps)
verification.certify_trajectory(traj)
output.write_trajectory_csv(traj, sys.argv[3], include_populations=True)
print((peak_kib() - base) * 1024, freefermion.check_chain_size(models.chain_spec("xy_nn", n), steps))
"""
# One analytic sweep point.
SWEEP_RSS_CHILD = PEAK_KIB + """
from qbattery import sweeps
n, steps = int(sys.argv[1]), int(sys.argv[2])
sweeps.quantities_for(models.chain_spec("xy_nn", n), steps=steps)
print((peak_kib() - base) * 1024, freefermion.check_chain_size(models.chain_spec("xy_nn", n), steps))
"""


def child_growth_and_estimate(script: str, *args: str) -> tuple[int, int]:
    # The rules were calibrated on 2 BLAS threads; more threads hold more buffers.
    path = [str(Path(qbattery.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True,
    ).stdout
    grown, estimate = map(int, out.split())
    return grown, estimate


class TestDenseSizeRule:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
    @pytest.mark.parametrize(
        "spec,steps",
        [
            (chain_spec("xy_nn", 9), 2000),
            (ModelSpec(family="parallel", n_cells=9), 500),
            (ModelSpec(family="parallel", n_cells=9), 20000),  # no (dim x T) array is held
            (ModelSpec(family="lmg", n_cells=400), 2000),
            (ModelSpec(family="dicke", n_cells=6), 2000),  # automatic cutoff, ends at n_max 80
            # The entry list of the whole basis dominates: sectors of 2 and 16 states.
            (ModelSpec(family="global", n_cells=16), 2000),
            (ModelSpec(family="hybrid", n_cells=16, q=4, r=4), 2000),
        ],
        ids=["chain", "parallel", "long-grid", "lmg", "dicke", "global", "hybrid"],
    )
    def test_estimate_bounds_the_measured_growth(self, spec, steps):
        grown, estimate = child_growth_and_estimate(RSS_CHILD, repr(spec), str(steps))
        assert grown <= estimate <= 3 * grown

    @pytest.mark.parametrize(
        "build,spec",
        [
            (build_charger_paradigmatic, ModelSpec(family="global", n_cells=25)),
            (build_jw_chain, chain_spec("xy_nn", 22)),
            (build_lmg, ModelSpec(family="lmg", n_cells=10**7)),
            (build_dicke, ModelSpec(family="dicke", n_cells=2000, n_max=3000)),
        ],
        ids=["global", "chain", "lmg", "dicke"],
    )
    def test_builders_refuse_before_allocating(self, build, spec):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityLimitError, match=f"^dense run of {spec.family} N = "):
                build(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # each refused entry list would take 5.6-16 GB

    def test_lmg_admits_its_sector_run_at_n5800(self):
        # No family-specific term: the entry-by-entry build and psi0's sector
        # of N/2 + 1 states fit at the default 2000 steps.
        spec = ModelSpec(family="lmg", n_cells=5800, lam=5.0, gamma=-1.0)
        check_dense_size(spec, 2000)
        sector = invariant_sector(build_lmg(spec), initial_state(spec).amplitudes)
        assert len(sector) == 2901
        check_dense_size(spec, 2000, len(sector))

    def test_message_names_the_run(self):
        spec = ModelSpec(family="dicke", n_cells=12, n_max=40)
        with pytest.raises(CapacityLimitError) as refused:
            check_dense_size(spec, 10**12)
        assert str(refused.value) == (
            "dense run of dicke N = 12 (dim 533, n_max 40, 1000000000000 steps) "
            "needs ~3.12e+05 GB, over the 4.3 GB run limit"
        )

    def test_counts_past_float_range_are_formatted_exactly(self):
        assert gigabytes(5 * 10**14) == "5e+05 GB"
        assert gigabytes(9996 * 10**397) == "1.00e+392 GB"
        with pytest.raises(CapacityLimitError, match=r"\(dim 2\^600, 1 steps\) needs ~1\.2e\+174 GB"):
            check_dense_size(ModelSpec(family="global", n_cells=600), 1)


class TestChainSizeRule:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
    @pytest.mark.parametrize("n,steps", [(10, 20000), (200, 4000)], ids=["long-grid", "many-levels"])
    def test_estimate_bounds_the_measured_growth(self, tmp_path, n, steps):
        grown, estimate = child_growth_and_estimate(
            CHAIN_RSS_CHILD, str(n), str(steps), str(tmp_path / "trajectory.csv")
        )
        assert grown <= estimate <= 3 * grown

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
    @pytest.mark.parametrize("n,steps", [(10, 200000), (200, 20000)], ids=["long-grid", "many-modes"])
    def test_sweep_point_estimate_bounds_the_measured_growth(self, n, steps):
        grown, estimate = child_growth_and_estimate(SWEEP_RSS_CHILD, str(n), str(steps))
        assert grown <= estimate <= 3 * grown

    def test_odd_n_is_sized_by_its_pairs(self):
        # N // 2 + 1 rows size the recursion's blocks at either parity; the
        # record holds no per-level array.
        sizes = [check_chain_size(chain_spec("xy_nn", n), 1000) for n in (8, 9, 10)]
        assert sizes[0] == sizes[1] < sizes[2]
        with pytest.raises(CapacityLimitError, match="^free-fermion run of jw_chain N = 9 "):
            check_chain_size(chain_spec("xy_nn", 9), 10**12)

    def test_message_names_the_run(self):
        with pytest.raises(CapacityLimitError) as refused:
            check_chain_size(chain_spec("xy_nn", 10**4), 10**8)
        assert str(refused.value) == (
            "free-fermion run of jw_chain N = 10000 (100000000 steps) needs ~14.6 GB, "
            "over the 4.3 GB run limit"
        )
