"""In-place noise blocks and the one noise buffer a filter call holds."""

import tracemalloc

import numpy as np
import pytest

from mlpf import streams
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
