"""In-place noise blocks, the ring of noise slots a filter call holds, and the
helper thread that draws a cut call's next tile."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mlpf import filters, streams
from mlpf.bench import parse_config, records_csv, run_benchmark
from mlpf.euler import NonFiniteStateError
from mlpf.filters import AHEAD_TILE_ROWS, MAX_TILE_PARTICLE_STEPS, cpf_run, pf_run
from mlpf.models import builtin_model
from mlpf.observations import simulate_observations


class TestNoiseBlockOut:
    @pytest.mark.parametrize("level,n", [(0, 1), (3, 7), (6, 33)])
    def test_out_equals_new_block(self, level, n):
        ref = streams.noise_block(9, level, 2, n)
        assert ref.shape == (n, 1 << level)
        out = np.empty_like(ref)
        assert streams.noise_block(9, level, 2, n, out=out) is out
        assert np.array_equal(out, ref)

    def test_out_into_a_slice_of_a_larger_buffer(self):
        buf = np.full((40, 16), np.nan)
        a, b = 11, 29
        filled = streams.noise_block(123456789, 4, 5, b - a, out=buf[a:b])
        assert np.shares_memory(filled, buf)
        assert np.array_equal(buf[a:b], streams.noise_block(123456789, 4, 5, b - a))
        # rows outside the slice are untouched
        assert np.all(np.isnan(buf[:a])) and np.all(np.isnan(buf[b:]))

    @pytest.mark.parametrize("cuts", [(0, 1, 5), (0, 3, 4, 5), (0, 2, 5)])
    def test_row_ranges_from_one_stream_equal_the_block(self, cuts):
        ref = streams.noise_block(7, 3, 1, 5)
        out = np.empty_like(ref)
        stream = streams.open_stream(streams.stream_keys(7, streams.TAG_NOISE, 3, 1))
        for lo, hi in zip(cuts, cuts[1:]):
            streams.noise_block(7, 3, 1, hi - lo, out=out[lo:hi], stream=stream)
        assert np.array_equal(out, ref)

    def test_out_shape_is_checked(self):
        with pytest.raises(ValueError, match="expected"):
            streams.noise_block(1, 3, 0, 4, out=np.empty((4, 4)))
        with pytest.raises(ValueError, match="expected"):  # a trailing length-1 axis is rejected
            streams.noise_block(1, 3, 0, 4, out=np.empty((4, 8, 1)))


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs, after one warm-up call (which
    builds the path's coarsening pyramid)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


GBM = builtin_model("gbm", {})
PATH = simulate_observations("p", GBM, 3, 7, seed=5)
L = 7


def tile_bytes(l: int) -> int:
    """The most bytes of noise a tile can hold at level ``l``."""
    return 8 * max(MAX_TILE_PARTICLE_STEPS, AHEAD_TILE_ROWS << l)


# the case ids are kept stable so that recorded test names still match
@pytest.mark.parametrize("seeds,n,slots", [
    ((1, 2), MAX_TILE_PARTICLE_STEPS >> (L - 1), 2),  # two replicates of two tiles each
    ((1, 2, 3, 4), MAX_TILE_PARTICLE_STEPS >> (L + 2), 2),  # four replicates, one tile's worth
    ((1, 2), 500, 1),  # a block of 1000 rows, drawn on the main thread
], ids=["oversize", "group-of-4", "nothing-ahead"])
def test_filters_hold_one_noise_block(seeds, n, slots):
    """A call that draws ahead holds two slots of one tile each, at most half
    a block, and one that draws nothing ahead one slot of a whole block."""
    block = 8 * len(seeds) * n << L
    tile = min(block // slots, tile_bytes(L))
    held = slots * tile
    # a coupled step writes the coarse chain's pair sums into the tile it has stepped
    coupled_held = held
    pf_peak = traced_peak(lambda: pf_run(GBM, PATH, L, n, ["x"], seed=seeds,
                                         resample_policy="always"))
    cpf_peak = traced_peak(lambda: cpf_run(GBM, PATH, L, n, ["x"], seed=seeds,
                                           resample_policy="always"))
    assert pf_peak < 1.25 * held, (pf_peak, held)
    assert cpf_peak < 1.25 * coupled_held, (cpf_peak, coupled_held)


@pytest.mark.parametrize("cap", [MAX_TILE_PARTICLE_STEPS, 2 * MAX_TILE_PARTICLE_STEPS])
@pytest.mark.parametrize("l", [7, 8, 9, 10])
def test_cuts_bound_every_tile(monkeypatch, cap, l):
    """The tiles of a block cover its rows in order; a tile drawn ahead has
    more than 500 rows, since numpy holds the GIL through loops of 500
    elements or fewer; and no tile exceeds max(cap, AHEAD_TILE_ROWS * 2**l)
    particle-steps."""
    monkeypatch.setattr(filters, "MAX_TILE_PARTICLE_STEPS", cap)
    edges = [cap >> (l + 1), AHEAD_TILE_ROWS, cap >> l]
    rows = set(range(990, 1012)) | {k * e + d for e in edges for k in (1, 2, 3)
                                     for d in (-1, 0, 1)}
    for r in sorted(rows | {10 ** 5}):
        cuts, ahead = filters._cuts(r, l)
        sizes = [c.stop - c.start for c in cuts]
        assert [c.start for c in cuts] == [0] + [c.stop for c in cuts[:-1]] and cuts[-1].stop == r
        assert max(sizes) << l <= max(cap, AHEAD_TILE_ROWS << l), (r, sizes)
        assert not ahead or min(sizes) > 500, (r, sizes)


# (N,) float64 arrays a call holds at its peak besides its noise, with room
# to spare: states, log-weights, step buffers and resampling indices (a PF
# measured about 7, a CPF, with two chains, about 19)
PF_STATE_ARRAYS = 12
CPF_STATE_ARRAYS = 24


@pytest.mark.parametrize("run,arrays", [(pf_run, PF_STATE_ARRAYS), (cpf_run, CPF_STATE_ARRAYS)],
                         ids=["pf_run", "cpf_run"])
def test_a_large_block_is_held_as_two_tiles(run, arrays):
    """A 100 MiB block (gbm, l 9, N 25600) is stepped through a ring of two
    tiles of 1024 rows, 4 MiB, by a PF and a coupled PF alike."""
    l, n = 9, 25600
    path = simulate_observations("p", GBM, 1, l, seed=5)
    tile = tile_bytes(l)
    held = 2 * tile + arrays * 8 * n
    peak = traced_peak(lambda: run(GBM, path, l, n, ["x"], seed=(3,), resample_policy="always"))
    assert peak < held < (8 * n << l) // 4, (peak, held)


# calls whose noise blocks are cut into row tiles drawn ahead: (level, particles,
# seeds), under ids kept stable so that recorded test names still match
CUT_CALLS = {
    "oversize": (7, 2560, 11),
    "straddle": (5, 1400, (21, 22, 23)),
    "uncut-last-group": (5, 1400, tuple(range(31, 38))),  # seven replicates, cut in halves
    "multi-tile": (7, 10240, 41),  # 10 MiB blocks, cut into five tiles
}


@pytest.fixture()
def draw_threads(monkeypatch):
    """The thread of every ``streams.open_stream`` call, noise and resampling alike."""
    threads = []
    open_stream = streams.open_stream

    def recording(*args):
        threads.append(threading.current_thread())
        return open_stream(*args)

    monkeypatch.setattr(streams, "open_stream", recording)
    return threads


def off_main(threads) -> int:
    return sum(t is not threading.main_thread() for t in threads)


@pytest.mark.parametrize("run", [pf_run, cpf_run])
@pytest.mark.parametrize("call", CUT_CALLS)
def test_cut_calls_draw_ahead_on_a_helper_thread(draw_threads, run, call):
    l, n, seed = CUT_CALLS[call]
    baseline = threading.active_count()
    run(GBM, PATH, l, n, ["x"], seed=seed)
    assert off_main(draw_threads) > 0
    assert threading.active_count() == baseline


@pytest.mark.parametrize("run", [pf_run, cpf_run])
def test_ring_matches_drawing_on_the_main_thread_under_frequent_switches(monkeypatch, run):
    """Tiles drawn ahead into the ring while the threads switch every 1 us
    give the outputs of the same tiles drawn on the main thread: a slot
    written while its tile is still being stepped would change them."""
    l, n, seed = CUT_CALLS["multi-tile"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ahead = run(GBM, PATH, l, n, ["x"], seed=seed, resample_policy="always")
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(filters, "AHEAD_TILE_ROWS", 10 ** 9)  # nothing drawn ahead
    assert run(GBM, PATH, l, n, ["x"], seed=seed, resample_policy="always") == ahead


def test_gbm_fine_sized_calls_start_no_thread(draw_threads):
    fine = simulate_observations("p", GBM, 2, 9, seed=5)
    for run in (pf_run, cpf_run):
        run(GBM, fine, 9, 46, ["x"], seed=tuple(range(6)), resample_policy="always")
    assert draw_threads and off_main(draw_threads) == 0


@pytest.mark.parametrize("run", [pf_run, cpf_run])
def test_no_thread_outlives_a_call_that_raises(draw_threads, run):
    # the states grow by about 1e3 a step and overflow in the second of three
    # intervals, while the helper draws that interval's second half
    blow_up = builtin_model("gbm", {"mu": 128000.0, "x_star": 1e-300})
    baseline = threading.active_count()
    with pytest.raises(NonFiniteStateError):
        run(blow_up, PATH, 7, 2560, ["x"], seed=11, resample_policy="always")
    assert off_main(draw_threads) > 0
    assert threading.active_count() == baseline


def test_forked_pool_workers_match_one_worker():
    """A truth and jobs that draw ahead in the parent, then in forked workers."""
    raw = {
        "model": "gbm", "T": 2, "L_data": 7, "repeats": 2, "master_seed": 3, "data_seed": 4,
        "truth_level": 7, "truth_n": 2048, "output_dir": "unused",
        "estimators": [{"id": "pf", "rule": "single_pf", "L_min": 6, "L_max": 7, "base": 20.0}],
    }
    texts = [records_csv(run_benchmark(parse_config(dict(raw, workers=w)))[0]) for w in (1, 2)]
    assert texts[0] == texts[1]
