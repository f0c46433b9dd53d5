"""In-place noise blocks, the one noise buffer a filter call holds, and the
helper thread that draws a cut call's next tile."""

import threading
import tracemalloc

import numpy as np
import pytest

from mlpf import streams
from mlpf.bench import parse_config, records_csv, run_benchmark
from mlpf.euler import NonFiniteStateError
from mlpf.filters import MAX_GROUP_PARTICLE_STEPS, cpf_run, pf_run
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
        stream = streams.noise_stream(7, 3, 1)
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


@pytest.mark.parametrize("seeds,n", [
    ((1, 2), MAX_GROUP_PARTICLE_STEPS >> (L - 1)),  # each replicate alone exceeds a group
    ((1, 2, 3, 4), MAX_GROUP_PARTICLE_STEPS >> (L + 2)),  # four replicates fill one group
], ids=["oversize", "group-of-4"])
def test_filters_hold_one_noise_block(seeds, n):
    rows = n * min(len(seeds), max(1, MAX_GROUP_PARTICLE_STEPS // (n << L)))
    block = 8 * rows << L
    # a coupled step also holds the coarse chain's pair sums, half a block
    coupled_block = block + block // 2
    pf_peak = traced_peak(lambda: pf_run(GBM, PATH, L, n, ["x"], seed=seeds,
                                         resample_policy="always"))
    cpf_peak = traced_peak(lambda: cpf_run(GBM, PATH, L, n, ["x"], seed=seeds,
                                           resample_policy="always"))
    assert pf_peak < 1.25 * block, (pf_peak, block)
    assert cpf_peak < 1.25 * coupled_block, (cpf_peak, coupled_block)


# calls whose noise blocks are cut into two row halves: (level, particles, seeds)
CUT_CALLS = {
    "oversize": (7, 2560, 11),
    "straddle": (5, 1400, (21, 22, 23)),
    "uncut-last-group": (5, 1400, tuple(range(31, 38))),
}


@pytest.fixture()
def draw_threads(monkeypatch):
    """The thread of every ``streams.generator`` call, noise and resampling alike."""
    threads = []
    generator = streams.generator

    def recording(*args):
        threads.append(threading.current_thread())
        return generator(*args)

    monkeypatch.setattr(streams, "generator", recording)
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
