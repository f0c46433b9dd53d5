"""Counter-based random streams for schedule-independent simulation.

Every random draw in a filter run is produced by a Philox generator whose
key is derived from ``(seed, purpose, level, unit_interval)`` via numpy's
SeedSequence.  The mapping from (particle, step) to a Gaussian variate is a
pure function of those integers, so results do not depend on execution
order, worker count, or how many other levels are being run.  A noise block
can be drawn into a caller's buffer (``noise_block(..., out=...)``), which
is how the filters reuse one buffer for every interval of a call, and in
successive row ranges from one ``noise_stream`` (``noise_block(...,
stream=...)``), which is how they cut a block into tiles.
"""

from __future__ import annotations

import numpy as np

# spawn-key purpose tags; keep stable, they define the reproducible stream layout
TAG_NOISE = 0
TAG_RESAMPLE = 1
TAG_OBS = 2
TAG_LATENT = 3
TAG_LEVEL = 4
TAG_REPLICATE = 5
TAG_TRUTH = 6


def generator(seed: int, *key: int) -> np.random.Generator:
    """Philox generator keyed by ``seed`` and an integer spawn key."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def noise_stream(seed: int, level: int, interval: int) -> np.random.Generator:
    """The generator that ``noise_block`` draws one unit interval's block from."""
    return generator(seed, TAG_NOISE, level, interval)


def noise_block(seed: int, level: int, interval: int, n: int,
                out: np.ndarray | None = None,
                stream: np.random.Generator | None = None) -> np.ndarray:
    """Standard-normal block of shape (n, 2**level) for one unit interval.

    Particle ``i`` owns row ``i``; step ``k`` of particle ``i`` is column
    ``k``.  Callers scale by sqrt(step size) to obtain Brownian increments.

    With ``out``, a C-contiguous float64 array of that shape (for example a
    row slice of a larger buffer), the block is drawn into it in place and
    ``out`` is returned; the values are the same as those of a new block.

    With ``stream``, the ``noise_stream`` of the same (seed, level,
    interval), the n rows are drawn from it where it stands: after draws of
    k rows in all, they are rows k .. k+n-1 of the whole block, so a block
    may be drawn in successive row ranges.
    """
    shape = (n, 2 ** level)
    g = noise_stream(seed, level, interval) if stream is None else stream
    if out is None:
        return g.standard_normal(shape)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    g.standard_normal(out=out)
    return out


def resample_rng(seed: int, level: int, interval: int) -> np.random.Generator:
    """Generator for the resampling draws at the end of one unit interval."""
    return generator(seed, TAG_RESAMPLE, level, interval)


def level_seed(master_seed: int, level: int) -> int:
    """Derive an independent per-level seed for multilevel runs."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(TAG_LEVEL, int(level)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def replicate_seed(master_seed: int, index: int) -> int:
    """Derive an independent seed for replicate ``index`` of a benchmark run."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(TAG_REPLICATE, int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
