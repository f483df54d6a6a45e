"""The apps' sequential references: SOR's vectorized red-black sweep is
bit-identical to a row-by-row sweep, each reference is computed once per
run and shared read-only by every rank, and a rank whose slice is wrong
still fails its own check."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import fft, get_app, lu, sor, water
from repro.apps.common import merge_rank_results, row_block, shared_reference
from repro.config import ClusterConfig, preset
from repro.models.jiajia_api import JiaJiaApi


def _row_sweep(grid, phase, lo, hi, n):
    """The row-by-row half-sweep, kept as the oracle of :func:`sor._sweep`."""
    for i in range(lo, hi):
        j0 = 1 + ((i + phase) % 2)
        row = grid[i - lo + 1]
        up = grid[i - lo]
        down = grid[i - lo + 2]
        js = np.arange(j0, n - 1, 2)
        row[js] = (1 - sor.OMEGA) * row[js] + sor.OMEGA * 0.25 * (
            up[js] + down[js] + row[js - 1] + row[js + 1])


@st.composite
def sweeps(draw):
    n = draw(st.integers(3, 24))
    lo = draw(st.integers(1, n - 1))
    hi = draw(st.integers(lo, n - 1))  # hi == lo is an empty range
    phase = draw(st.sampled_from((0, 1)))
    return n, lo, hi, phase, draw(st.integers(0, 2**32 - 1))


class TestVectorizedSweep:
    @settings(max_examples=300, deadline=None)
    @given(sweeps())
    @example((9, 4, 5, 0, 1))  # one row
    @example((9, 5, 6, 1, 2))  # one row, the other parity and phase
    @example((9, 7, 7, 0, 3))  # empty range
    @example((3, 1, 2, 1, 4))  # smallest grid: one interior point
    def test_bit_identical_to_row_loop(self, case):
        n, lo, hi, phase, seed = case
        grid = np.random.default_rng(seed).random((hi - lo + 2, n))
        expected = grid.copy()
        _row_sweep(expected, phase, lo, hi, n)
        sor._sweep(grid, phase, lo, hi, n)
        assert np.array_equal(grid, expected)


def _run(config, app, **params):
    plat = config.build()
    fn = get_app(app)
    return JiaJiaApi(plat.hamster).run(lambda a: fn(a, **params))


SW_DSM_8 = ClusterConfig(platform="beowulf", dsm="jiajia", nodes=8,
                         name="sw-dsm-8")


@pytest.fixture
def fresh_memo():
    shared_reference.cache_clear()
    yield
    shared_reference.cache_clear()


@pytest.fixture
def counted(monkeypatch, fresh_memo):
    """Counting wrappers around every app's reference function."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        calls[module.__name__] = 0

        def wrapper(*args):
            calls[module.__name__] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    count(sor, "_reference")
    count(water, "_reference")
    count(lu, "_reference_lu")
    count(fft, "_reference")
    return calls


class TestReferenceOncePerRun:
    @pytest.mark.parametrize("app,params,module", [
        ("sor", dict(n=64, iterations=3), sor),
        ("water", dict(molecules=24, steps=2), water),
        ("lu", dict(n=64, block=8), lu),
        ("fft", dict(n1=16, n2=16), fft),
    ])
    def test_eight_ranks_compute_one_reference(self, counted, app, params,
                                               module):
        results = _run(SW_DSM_8, app, **params)
        assert len(results) == 8
        assert all(r.verified for r in results)
        assert counted[module.__name__] == 1
        assert sum(counted.values()) == 1

    def test_new_seed_computes_a_new_reference(self, counted):
        a = merge_rank_results(_run(SW_DSM_8, "sor", n=64, iterations=3,
                                    seed=1))
        b = merge_rank_results(_run(SW_DSM_8, "sor", n=64, iterations=3,
                                    seed=2))
        assert counted[sor.__name__] == 2
        assert a.verified and b.verified
        assert a.checksum != b.checksum

    def test_shared_reference_is_read_only(self, fresh_memo):
        ref = shared_reference(sor._seeded_reference, 16, 2, 3)
        assert shared_reference(sor._seeded_reference, 16, 2, 3) is ref
        assert not ref.flags.writeable
        with pytest.raises(ValueError):
            ref[1, 1] = 0.0


class TestDetection:
    def test_one_wrong_slice_fails_verification(self, monkeypatch):
        """Corrupt what rank 2 of 4 writes in its last half-sweep: that
        rank, and only it, must fail its check against the shared
        reference."""
        n, iterations, victim = 32, 2, 2
        victim_lo = row_block(n - 2, victim, 4)[0] + 1
        sweep = sor._sweep
        seen = []

        def corrupting(grid, phase, lo, hi, n_):
            sweep(grid, phase, lo, hi, n_)
            if lo == victim_lo:
                seen.append(phase)
                if len(seen) == 2 * iterations:
                    grid[1, 1] += 1.0

        monkeypatch.setattr(sor, "_sweep", corrupting)
        results = _run(preset("sw-dsm-4"), "sor", n=n, iterations=iterations)
        assert [r.verified for r in results] == [True, True, False, True]
        assert merge_rank_results(results).verified is False
