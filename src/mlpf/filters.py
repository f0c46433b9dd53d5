"""Particle filter, coupled particle filter, and their estimators.

The PF propagates a weighted cloud one unit interval at a time.  Estimates
are weighted means at integer report times, the ends of unit intervals: they
use the cumulative log-weights including the just-finished interval's
potentials, evaluated before any resampling at that time.  The
CPF runs a fine/coarse pair on common Brownian increments with jointly
resampled ancestor indices, and tracks the set of pairs that have always
drawn a common ancestor.

Both filters are one loop, ``_run``, over one chain (the PF) or two (the
CPF's fine chain at level l and coarse chain at level l-1).  Only the
Euler step of a tile, the ancestor draw and the output fields depend on the
chain count; the states and log-weights are (chains, R*N) arrays, and the
last chain's ESS gates resampling.

States are scalar: N particles are an (N,) array, which a functional maps
to an (N,) array of values, and one interval's noise is an (N, 2**l) block.

Both filters take ``seed`` as an int or as a tuple of ints, one independent
replicate per seed.  A call stacks its R replicates along the particle axis,
R replicates of N particles as R*N rows, and steps them by one Euler sweep
per interval and tile; each keeps its own Philox noise block and resampling
stream.  The call's log-weights and ESS are reduced in one pass over a
(chains*R, N) view, one row per chain and replicate, which gives each
replicate the same bytes as a reduction of its own rows; estimates and
resampling are computed per replicate, on its own rows.  Every replicate's
output is bit-identical to the single-seed run; an int seed is the
one-replicate case.

A call draws its noise into a ring of at most two slots and steps it from
there, one row tile at a time, so it never holds more than two tiles of
noise, whatever R, N and l.  Every interval's (R*N, 2**l) block is cut by
the one rule of ``_cuts``.  A block of at least ``AHEAD_TILE_ROWS`` rows and
at least half of ``MAX_TILE_PARTICLE_STEPS`` particle-steps is cut for
drawing ahead: into its two row halves, or, when a half would exceed
``MAX_TILE_PARTICLE_STEPS`` (2 MiB of float64), into the fewest near-equal
row tiles of at most max(``MAX_TILE_PARTICLE_STEPS``, ``AHEAD_TILE_ROWS``
rows).  Any other block larger than ``MAX_TILE_PARTICLE_STEPS`` is cut into
near-equal tiles within it, and drawn on the main thread; every other block
is one tile.  A slot holds the call's largest tile.  A replicate whose rows
span several tiles continues its draws from the same stream, which gives
the values of one whole draw, so the tiling changes no output byte.

A call derives the keys of all its noise and resampling streams, one per
replicate and interval, in one ``streams.stream_keys`` pass at its start,
and opens each stream by resetting one of two generators it owns
(``streams.open_stream``): one draws every noise tile, the other every
resampling step, on the main thread.

A block never depends on the particle states, so while the main thread
steps tile j from slot j mod 2, a helper thread draws and scales tile j+1
into the other slot whenever the call's blocks are cut for drawing ahead.
A call that draws nothing ahead allocates one slot.  A coupled call writes
the coarse chain's pair sums into the even columns of the tile the fine
chain has just stepped: a slot is drawn into again only for the tile after
next, which is submitted once this tile's step has returned (or, with one
slot, drawn on the main thread).  The helper is a one-thread pool
owned by the call: it is started only if the call draws ahead, and it
is shut down, after its last draw ends, before the call returns or raises.
No thread outlives a call and none is shared between calls, so a forked
worker process never inherits one.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import streams
from .euler import propagate_unit, propagate_unit_coupled
from .models import ModelSpec
from .observations import ObservationPath, increments_at_level
from .resampling import (
    ess,
    log_mean_weight,
    maximal_coupling_indices,
    multinomial_indices,
    normalize_log_weights,
    sorted_coupling_indices,
)

__all__ = [
    "FilterOutput",
    "DEFAULT_FUNCTIONALS",
    "resolve_functionals",
    "pf_run",
    "cpf_run",
    "MAX_TILE_PARTICLE_STEPS",
    "seed_tuple",
]

RESAMPLE_POLICIES = ("always", "ess_below_half")
COUPLINGS = ("maximal", "sorted")

# a noise tile holds at most MAX_TILE_PARTICLE_STEPS particle-steps (2 MiB
# of float64; the Euler sweep's cost per particle-step is flat from 1 to
# 8 MiB in the curve of scripts/tile_curve.py), but a tile drawn ahead may
# hold up to AHEAD_TILE_ROWS rows at any level.  A block of at least
# AHEAD_TILE_ROWS rows and half a tile of particle-steps is cut into row
# tiles, each drawn while the one before it is stepped, and a smaller block
# is stepped too fast to repay a thread's hand-off.  Every such tile has at
# least 512 rows: numpy holds the GIL through loops over 500 elements or
# fewer (NPY_BEGIN_THREADS_THRESHOLDED), so a step on fewer rows would
# starve the helper
MAX_TILE_PARTICLE_STEPS = 1 << 18
AHEAD_TILE_ROWS = 1024
# the stream purposes a filter call draws from, as a column to broadcast
_PURPOSES = np.array([[streams.TAG_NOISE], [streams.TAG_RESAMPLE]])

DEFAULT_FUNCTIONALS = {
    "x": lambda x: x,
    "x2": lambda x: x ** 2,
    "one": lambda x: np.ones(x.shape[0]),
}


def resolve_functionals(functionals):
    """Accept a dict of named callables or a list of built-in names."""
    if not functionals:
        raise ValueError("at least one functional is required")
    if isinstance(functionals, dict):
        return dict(functionals)
    out = {}
    for name in functionals:
        if name not in DEFAULT_FUNCTIONALS:
            raise ValueError(f"unknown functional {name!r}; built-ins: {sorted(DEFAULT_FUNCTIONALS)}")
        out[name] = DEFAULT_FUNCTIONALS[name]
    return out


@dataclass(frozen=True)
class FilterDiagnostics:
    resample_times: list
    ess_trace: list
    coupling_fraction: list | None = None
    same_ancestor_trace: list | None = None

    @property
    def resample_count(self) -> int:
        return len(self.resample_times)

    @property
    def min_ess(self) -> float:
        return min(self.ess_trace) if self.ess_trace else float("nan")

    @property
    def mean_ess(self) -> float:
        return float(np.mean(self.ess_trace)) if self.ess_trace else float("nan")


@dataclass(frozen=True)
class FilterOutput:
    level: int
    n_particles: int
    estimates: dict  # (time, functional id) -> value; difference estimates for a CPF
    log_normalizer: float
    diagnostics: FilterDiagnostics
    cost_units: int
    fine_estimates: dict | None = None
    coarse_estimates: dict | None = None
    log_normalizer_coarse: float | None = None
    final_same_ancestor_fraction: float | None = None


def seed_tuple(seed) -> tuple:
    """``seed`` as a non-empty tuple of replicate seeds; an int is the
    one-replicate case.  Each seed is an integer in [0, 2**64), not a bool."""
    seeds = seed if isinstance(seed, tuple) else (seed,)
    if not seeds or not all(streams.is_seed(s) for s in seeds):
        raise ValueError("seed must be an integer in [0, 2**64) or a non-empty tuple of them, "
                         f"got {seed!r}")
    return seeds


def _check_common(path, l, n, report_times, resample_policy, seed, chains):
    """The checked report times and replicate seeds of a filter call on
    ``chains`` chains."""
    if l < 0:
        raise ValueError(f"level must be >= 0, got {l}")
    if l > path.L_data:
        raise ValueError(f"level {l} exceeds data frequency L_data={path.L_data}")
    streams.check_count(n, "n", 1)
    if resample_policy not in RESAMPLE_POLICIES:
        raise ValueError(f"resample_policy must be one of {RESAMPLE_POLICIES}")
    if report_times is None:
        report_times = list(range(1, path.T + 1))
    report_times = [int(t) for t in report_times]
    if any(t < 1 or t > path.T for t in report_times):
        raise ValueError("report times must be integers in [1, T]")
    seeds = seed_tuple(seed)
    if 8 * chains * len(seeds) * n > sys.maxsize:
        raise ValueError(f"n={n} particles in {chains} chain(s) of {len(seeds)} replicate(s) "
                         "need a state array above sys.maxsize bytes")
    return report_times, seeds


def _weighted(log_weights: np.ndarray, states: np.ndarray, phis: dict, t: int, into: dict) -> None:
    """Weighted mean of every functional at report time ``t``, into ``into``."""
    w = np.exp(log_weights - np.max(log_weights))
    for fid, phi in phis.items():
        vals = phi(states)
        # ratio of two identical dot-product expressions, so a constant functional
        # yields exactly 1 and difference estimators cancel exactly
        into[(float(t), fid)] = float((w @ vals) / (w @ np.ones_like(vals)))


def _call_keys(seeds: tuple, l: int, T: int) -> tuple:
    """The keys of a call's noise and resampling streams, in one pass: two
    nested lists whose [r][p] is replicate r's key for interval p."""
    keys = streams.stream_keys(np.array(seeds, dtype=np.uint64)[:, None, None], _PURPOSES, l,
                               np.arange(T))
    return keys[:, 0].tolist(), keys[:, 1].tolist()


def _cuts(rows: int, l: int) -> tuple:
    """Row slices of one interval's (rows, 2**l) noise block, near-equal and
    in order, and whether they are drawn ahead (see the module docstring)."""
    ahead = rows >= AHEAD_TILE_ROWS and rows << l >= MAX_TILE_PARTICLE_STEPS >> 1
    most = max(MAX_TILE_PARTICLE_STEPS >> l, AHEAD_TILE_ROWS if ahead else 1)
    k = max(2 if ahead else 1, -(-rows // most))
    bounds = [i * rows // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])], ahead


class _NoiseTiles:
    """A call's Brownian increments, drawn tile by tile in stepping order.

    Every interval's block has the same row tiles, replicate ``r`` owning
    its rows ``r*n .. (r+1)*n - 1``.  Tile j, of interval j // k for k
    tiles per interval, is drawn into the first rows of slot j mod 2 of a
    ring of two slots, or of one slot when nothing is drawn ahead; a slot
    holds the largest tile.  ``keys[r][p]`` is the key of replicate ``r``'s
    noise stream for interval ``p``.  ``interval()`` hands out the next
    interval's tiles.
    Used as a context manager, it owns the helper thread that draws ahead
    (see the module docstring).
    """

    def __init__(self, seeds: tuple, keys: list, n: int, l: int, T: int):
        self._seeds, self._keys, self._n, self._l = seeds, keys, n, l
        self._scale = np.sqrt(2.0 ** (-l))
        cuts, self._ahead = _cuts(len(seeds) * n, l)
        self._per_interval = len(cuts)
        self._order = [(p, rows) for p in range(T) for rows in cuts]  # (interval, rows) of tile j
        most = max(rows.stop - rows.start for rows in cuts)
        self._slots = [np.empty((most, 1 << l)) for _ in range(1 + self._ahead)]
        self._next = 0
        self._pending = None  # the draw of the next tile, when it runs ahead
        self._stream = None  # the one generator of every tile's draws
        self._pool = None

    def __enter__(self):
        if self._ahead:
            self._pool = ThreadPoolExecutor(1, thread_name_prefix="mlpf-noise")
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()  # waits for a draw that is still running
            self._pool = None

    def interval(self):
        """The next interval's tiles, lazily, as (rows, noise); a tile is
        drawn by the time it is handed out."""
        return (self._take() for _ in range(self._per_interval))

    def _take(self):
        j = self._next
        self._next += 1
        if self._pending is None:
            noise = self._draw(j)
        else:
            noise = self._pending.result()
            self._pending = None
        if self._ahead and j + 1 < len(self._order):
            # into the slot of tile j-1, which has been stepped
            self._pending = self._pool.submit(self._draw, j + 1)
        return self._order[j][1], noise

    def _draw(self, j: int) -> np.ndarray:
        """Tile ``j``'s increments, in the first rows of its slot: the rows
        of each replicate's noise block that it covers, scaled by
        sqrt(2**-l).

        Every tile is drawn from one generator, on the main thread or the
        helper: tile j+1 is submitted only after tile j's draw has returned,
        so no two draws overlap."""
        p, rows = self._order[j]
        out = self._slots[j % len(self._slots)][:rows.stop - rows.start]
        seeds, n, l = self._seeds, self._n, self._l
        for r in range(rows.start // n, -(-rows.stop // n)):
            lo, hi = max(rows.start, r * n), min(rows.stop, (r + 1) * n)
            if lo == r * n:  # a replicate's first rows; later tiles continue its stream
                self._stream = streams.open_stream(self._keys[r][p], self._stream)
            streams.noise_block(seeds[r], l, p, hi - lo, out=out[lo - rows.start:hi - rows.start],
                                stream=self._stream)
        out *= self._scale
        return out


def pf_run(
    model: ModelSpec,
    path: ObservationPath,
    l: int,
    n: int,
    functionals,
    report_times=None,
    resample_policy: str = "ess_below_half",
    seed: int | tuple = 0,
):
    """Run a particle filter at level ``l`` on one observation path.

    ``seed`` is an int, giving one ``FilterOutput``, or a tuple of ints,
    giving a tuple with one output per seed, each equal to the single-seed
    run.  The replicates are stacked and take one Euler sweep per interval
    and tile, with their noise drawn into a ring of slots (see
    ``_NoiseTiles``).  Each interval's weights and ESS are reduced for all
    replicates at once, one row per replicate; estimates and resampling are
    per replicate.
    """
    return _run(model, path, l, n, functionals, report_times, resample_policy, seed, None)


def cpf_run(
    model: ModelSpec,
    path: ObservationPath,
    l: int,
    n: int,
    functionals,
    report_times=None,
    resample_policy: str = "ess_below_half",
    seed: int | tuple = 0,
    coupling: str = "maximal",
):
    """Run a coupled particle filter approximating levels ``l`` and ``l-1``.

    ``estimates`` holds the fine-minus-coarse difference estimator; the
    per-level estimates are exposed separately.  The adaptive trigger is
    evaluated on the coarse-side ESS.  ``coupling`` is "maximal" (the
    maximal coupling of the two weight vectors) or "sorted" (comonotone
    draws over the state-sorted weights).  ``seed`` is an int or a tuple of
    ints, with replicates stacked, and weights and ESS reduced, as in
    ``pf_run``; estimates and resampling are per replicate.
    """
    if l < 1:
        raise ValueError("coupled filter needs l >= 1")
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}")
    return _run(model, path, l, n, functionals, report_times, resample_policy, seed, coupling)


def _run(model, path, l, n, functionals, report_times, resample_policy, seed, coupling):
    """The interval loop of both filters: a PF when ``coupling`` is None,
    else a CPF whose ancestors are drawn by ``coupling``.  Row c of the
    (chains, R*N) states and log-weights is the chain at level l - c."""
    phis = resolve_functionals(functionals)
    levels = [l] if coupling is None else [l, l - 1]
    report_times, seeds = _check_common(path, l, n, report_times, resample_policy, seed,
                                        len(levels))
    chains, n_rep = len(levels), len(seeds)
    rows = [slice(r * n, (r + 1) * n) for r in range(n_rep)]
    x = np.full((chains, n_rep * n), model.x_star)
    cum = np.zeros((chains, n_rep * n))
    xs, cums = list(x), list(cum)  # each chain's (R*N,) row, as a view
    same = None if coupling is None else np.ones(n_rep * n, dtype=bool)
    log_norm = [[0.0] * n_rep for _ in levels]
    estimates = [[{} for _ in seeds] for _ in levels]
    resample_times = [[] for _ in seeds]
    ess_trace = [[] for _ in seeds]
    coupling_fraction = [[] for _ in seeds]
    same_trace = [[] for _ in seeds]
    noise_keys, resample_keys = _call_keys(seeds, l, path.T)
    resample = None  # the one generator of every resampling step's draws
    with _NoiseTiles(seeds, noise_keys, n, l, path.T) as tiles:
        for p in range(path.T):
            obs = [increments_at_level(path, level, p) for level in levels]
            for tile, noise in tiles.interval():
                if coupling is None:
                    props = (propagate_unit(model, l, xs[0][tile], obs[0], noise),)
                else:
                    step = propagate_unit_coupled(model, l, xs[0][tile], xs[1][tile], *obs, noise,
                                                  coarse_noise=noise[:, 0::2])
                    props = (step.fine, step.coarse)
                for c, prop in enumerate(props):
                    xs[c][tile] = prop.endpoint
                    cums[c][tile] += prop.log_g_total
            t = p + 1
            w = normalize_log_weights(cum.reshape(chains * n_rep, n))
            gate_ess = ess(w[-n_rep:]).tolist()
            for r, sl in enumerate(rows):
                if t in report_times:
                    for c in range(chains):
                        _weighted(cums[c][sl], xs[c][sl], phis, t, estimates[c][r])
                e = gate_ess[r]
                ess_trace[r].append(e)
                if resample_policy == "always" or e < n / 2.0:
                    for c in range(chains):
                        log_norm[c][r] += log_mean_weight(cums[c][sl])
                    resample = streams.open_stream(resample_keys[r][p], resample)
                    if coupling is None:
                        ancestors = (multinomial_indices(w[r], n, resample),)
                    else:
                        if coupling == "maximal":
                            pairs = maximal_coupling_indices(w[r], w[n_rep + r], n, resample)
                        else:
                            pairs = sorted_coupling_indices(w[r], w[n_rep + r], xs[0][sl],
                                                            xs[1][sl], n, resample)
                        ancestors = (pairs.fine, pairs.coarse)
                        same[sl] = pairs.coupled & same[sl][pairs.fine]
                        coupling_fraction[r].append(float(np.count_nonzero(pairs.coupled) / n))
                        same_trace[r].append(float(np.count_nonzero(same[sl]) / n))
                    for c, idx in enumerate(ancestors):
                        xs[c][sl] = xs[c][sl][idx]
                        cums[c][sl] = 0.0
                    resample_times[r].append(float(t))

    def output(r, sl):
        # the last term is zero when the last event was a resample
        log_normalizer = [log_norm[c][r] + log_mean_weight(cums[c][sl]) for c in range(chains)]
        common = dict(level=l, n_particles=n, log_normalizer=log_normalizer[0],
                      cost_units=n * sum(1 << level for level in levels) * path.T)
        if coupling is None:
            return FilterOutput(estimates=estimates[0][r],
                                diagnostics=FilterDiagnostics(resample_times[r], ess_trace[r]),
                                **common)
        fine, coarse = estimates[0][r], estimates[1][r]
        return FilterOutput(
            estimates={key: fine[key] - coarse[key] for key in fine},
            diagnostics=FilterDiagnostics(resample_times[r], ess_trace[r], coupling_fraction[r],
                                          same_trace[r]),
            fine_estimates=fine,
            coarse_estimates=coarse,
            log_normalizer_coarse=log_normalizer[1],
            final_same_ancestor_fraction=float(np.count_nonzero(same[sl]) / n),
            **common,
        )

    outs = tuple(output(r, sl) for r, sl in enumerate(rows))
    return outs if isinstance(seed, tuple) else outs[0]
