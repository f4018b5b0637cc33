"""One phase table per uniform grid (``linalg.PhaseTable``), shared by both
backends: its blocks keep the bits of a table made afresh for each block
(``oracles.grid_phases_per_call``), and a grid takes its offsets once and
its block workspace once."""

import tracemalloc

import numpy as np
import pytest

from qbattery import ValidationError, chain_spec, dispersion, linalg, models, run_trajectory, trajectory
from qbattery.config import load_scenario
from qbattery.freefermion import observables_on_grid
from qbattery.linalg import PHASE_STRIDE, PhaseTable, grid_step

from oracles import chain_series_per_block, dense_level_sums_per_block, evolve_batch_per_call, grid_phases_per_call

GRID_LENGTHS = (1, 2, 15, 16, 17, 256, 257, 258, 513, 2000)


def count_phase_calls(monkeypatch) -> list[tuple]:
    """The shapes of the angle arrays passed to ``linalg._phases``, filled in as it is called."""
    calls = []
    original = linalg._phases

    def counting(angles):
        calls.append(angles.shape)
        return original(angles)

    monkeypatch.setattr(linalg, "_phases", counting)
    return calls


class TestTable:
    @pytest.mark.parametrize("times_first", [False, True])
    def test_blocks_at_any_offset_are_the_per_call_tables(self, times_first):
        # Blocks that start off a table row and are longer or shorter than
        # the first one: each is the table made for it alone, bit for bit.
        rng = np.random.default_rng(8)
        freqs = rng.normal(scale=4.0, size=11)
        times = np.arange(40, 140) * 0.0625
        blocks = [slice(0, 5), slice(5, 37), slice(37, 38), slice(38, 100)]
        table = PhaseTable(freqs, times, 0.0625, blocks, times_first)
        for block in blocks:
            expected = grid_phases_per_call(freqs, times[block], 0.0625, times_first)
            assert table(block).tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("n_freqs", [1, 11, 215, 1000])
    def test_the_two_layouts_are_transposes_bit_for_bit(self, n_freqs):
        # The frequencies-first table fills along its rows of PHASE_STRIDE
        # times, the times-first one along its frequencies: the same
        # products of the same numbers.
        freqs = np.random.default_rng(n_freqs).normal(scale=4.0, size=n_freqs)
        for steps in (1, 15, 16, 17, 257, 2000):
            times = np.linspace(0.0, 10.0, steps)
            step = grid_step(times) if steps > 1 else 0.1
            blocks = models.time_blocks(steps)
            by_freq, by_time = (PhaseTable(freqs, times, step, blocks, first) for first in (False, True))
            for block in blocks:
                assert np.array_equal(by_freq(block), by_time(block).T), (steps, block)

    def test_every_block_is_written_into_one_buffer(self):
        freqs = np.linspace(0.5, 3.0, 6)
        times = np.linspace(0.0, 10.0, 600)
        blocks = models.time_blocks(len(times))
        table = PhaseTable(freqs, times, grid_step(times), blocks)
        # Sized for the longest block, 256 times from a table row: 16 rows of
        # PHASE_STRIDE times, 6 complex phases each.
        assert table._buffer.nbytes == models.TIME_CHUNK * 6 * 16
        views = [table(block) for block in blocks]
        assert all(np.shares_memory(view, table._buffer) for view in views)

    def test_the_grid_is_checked_once_with_the_grid_error(self):
        with pytest.raises(ValidationError, match="not consecutive points of a uniform grid"):
            PhaseTable(np.ones(2), np.array([0.0, 0.1, 0.25]), 0.1)
        with pytest.raises(ValidationError, match="must be positive and finite"):
            PhaseTable(np.ones(2), np.array([0.0]), 0.0)


class TestChainSeries:
    @pytest.mark.parametrize("chunk", ["TIME_CHUNK", 16])
    @pytest.mark.parametrize("n", [2, 3, 65, 2000])
    @pytest.mark.parametrize("variant", ["xx_nn", "xy_pow"])
    def test_the_shared_table_keeps_the_per_block_bits(self, variant, n, chunk, monkeypatch):
        if chunk != "TIME_CHUNK":
            monkeypatch.setattr(models, "TIME_CHUNK", chunk)
        modes = dispersion(chain_spec(variant, n))
        for steps in GRID_LENGTHS:
            times = np.linspace(0.0, 10.0, steps)
            got, expected = observables_on_grid(modes, times), chain_series_per_block(modes, times)
            for name, column in expected.items():
                assert np.array_equal(got[name], column), (steps, name)

    @pytest.mark.parametrize("chunk", ["TIME_CHUNK", 16])
    def test_a_grid_takes_its_offsets_once_and_one_base_row_set_per_block(self, chunk, monkeypatch):
        if chunk != "TIME_CHUNK":
            monkeypatch.setattr(models, "TIME_CHUNK", chunk)
        calls = count_phase_calls(monkeypatch)
        modes = dispersion(chain_spec("xy_nn", 200))
        times = np.linspace(0.0, 10.0, 2000)
        observables_on_grid(modes, times)
        blocks = models.time_blocks(len(times))
        assert len(calls) == 1 + len(blocks)
        assert calls[0] == (PHASE_STRIDE - 1, 100)  # the offsets r D, 0 < r < PHASE_STRIDE

    def test_the_grid_holds_one_block_of_workspace(self):
        # xy_nn N = 2000 has 1000 modes; the grid has 8 blocks of 256 times
        # (the last one 208), each run in shorter sub-blocks (bounded in
        # test_freefermion), so this block's bound is loose.  One block's
        # workspace is its phase table
        # (256 times x 1000 modes, complex), the s^2 and s c work arrays
        # (2 x 256 x 1000 floats), the offsets (15 x 1000, complex) and one
        # block's base rows (16 x 1000 angles and their complex phases).  The
        # outputs are E, P and var(H_B), 2000 floats each.  Besides them the
        # grid holds sin^2(theta) and the four weights (5 x 1000 floats), the
        # grid's indices (2000 int64) and Python objects, under 128 kB.  A
        # table of the whole grid would add 28 MB, a second block 4 MB.
        modes = dispersion(chain_spec("xy_nn", 2000))
        times = np.linspace(0.0, 10.0, 2000)
        assert modes.n_modes == 1000 and models.TIME_CHUNK == 256
        workspace = 256 * 1000 * 16 + 2 * 256 * 1000 * 8 + 15 * 1000 * 16 + 16 * 1000 * (8 + 16)
        outputs = 3 * 2000 * 8
        small = 128 * 1024
        tracemalloc.start()
        try:
            observables_on_grid(modes, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workspace + outputs + small


SCENARIOS = ("parallel_n8", "hybrid_n8", "lmg_n20_lam5", "dicke_n8_strong")


@pytest.fixture(scope="module", params=SCENARIOS)
def dense_run(request):
    cfg = load_scenario(f"configs/{request.param}.json")
    return run_trajectory(cfg.spec, cfg.lam_t_max, cfg.steps, "dense")


class TestDenseRuns:
    def test_the_shared_table_keeps_the_per_block_bits(self, dense_run):
        populations, rates = dense_level_sums_per_block(dense_run)
        assert dense_run.populations.tobytes() == populations.tobytes()
        assert dense_run.population_rates.tobytes() == rates.tobytes()

    def test_state_at_keeps_the_per_block_bits(self, dense_run, monkeypatch):
        # state_at propagates one tile of PRODUCT_TILE // 2 times, and a
        # block's lone last time with the tile before it, never one time
        # alone: each state is still the column of its whole block.
        columns = []
        original = trajectory.evolve_batch

        def counting(hamiltonian, coeff, phases):
            columns.append(phases.shape[1])
            return original(hamiltonian, coeff, phases)

        monkeypatch.setattr(trajectory, "evolve_batch", counting)
        tile = linalg.PRODUCT_TILE // 2
        runs = [(dense_run, (0, dense_run.n_steps // 2, dense_run.n_steps - 1))]  # first, middle, last block
        lam_t_max = float(dense_run.times[-1] * dense_run.spec.lam)
        for steps in (2000, 2001, 1502, 1503):  # last blocks of 208, 209, 222 and 223 times
            run = run_trajectory(dense_run.spec, lam_t_max, steps, "dense")
            runs.append((run, range(models.time_blocks(steps)[-1].start, steps)))
        for run, indices in runs:
            sector = run.sector
            psi0 = models.initial_state(run.spec)
            amplitudes = sector.to_eigenbasis(sector.basis.project(psi0.amplitudes))
            blocks = models.time_blocks(run.n_steps)
            assert len(blocks) > 2
            states = {}
            for index in indices:
                block = next(b for b in blocks if index < b.stop)
                if block.start not in states:
                    states[block.start] = evolve_batch_per_call(sector, amplitudes, run.times[block], run.step)
                expected = np.zeros(psi0.dim, dtype=complex)
                expected[sector.basis.members] = sector.basis.expand(states[block.start][:, index - block.start])
                columns.clear()
                assert run.state_at(index).amplitudes.tobytes() == expected.tobytes(), (run.n_steps, index)
                left = block.stop - (index - (index - block.start) % tile)  # from the index's tile on
                assert columns == [tile + 1 if left in (1, tile + 1) else min(tile, left)]

    def test_a_dense_grid_takes_its_offsets_once(self, monkeypatch):
        calls = count_phase_calls(monkeypatch)
        spec = load_scenario("configs/hybrid_n8.json").spec
        times = np.linspace(0.0, 2.0, 1000)
        trajectory._run_fixed(spec, times)
        assert len(calls) == 1 + len(models.time_blocks(len(times)))
