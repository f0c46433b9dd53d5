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
chain count; the states and log-weights are (chains, R, N) arrays, and the
last chain's ESS gates resampling.

States are scalar: N particles are an (N,) array, which a functional maps
to an (N,) array of values, and one interval's noise is an (N, 2**l) block.

Both filters take ``seed`` as an int or as a tuple of ints, one independent
replicate per seed.  A call holds its R replicates as rows of its (chains,
R, N) arrays and steps each chain's R*N particles by one Euler sweep per
interval and tile; each replicate keeps its own Philox noise block and
resampling stream.  An interval's bookkeeping runs in one pass over the
rows, one per chain and replicate: the log-weights and ESS of every row,
the estimates' weights, and, for the replicates that resample, their log
mean weights, the coupling's overlaps, residuals and CDFs, the sorted
coupling's orders, and one gather of each chain's ancestors, whose flat
indices index the stack of the resampled rows.  Those replicates resample
together, in chunks of at most ``RESAMPLE_CHUNK_ROWS`` particles per chain;
each draws its uniforms from its own stream, with one ``random(out=)`` call
into a row of one buffer, and the resamplers are pure functions of the
weights and that buffer.  The log normalizers are one (chains, R) array,
and the ESS, resampling flags and coupling fractions are (T, R) arrays, read
out per replicate at the end.  Only the inverse CDF's
``searchsorted`` and the estimates' functionals and dot products run per row
(a functional maps one row's (N,) states, so it need not be elementwise),
since numpy has no row-batched searchsorted and BLAS adds a matrix product
in another order than a dot product.  A sum or cumsum along a contiguous row
adds in the order of the 1-D one, so every replicate's output is
bit-identical to the single-seed run; an int seed is the one-replicate case.
A non-finite state raises a ``NonFiniteStateError`` naming the index and
seed of the first replicate whose rows are not finite.

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
replicate and interval, in one ``streams.stream_keys`` pass at its start
(``mlpf_run`` derives those of all its rungs in one pass and hands each
call its own), and opens each stream by resetting one of two generators it
owns (``streams.open_stream``): one draws every noise tile, the other every
resampling step, on the main thread.

A block never depends on the particle states, so the generator
``_noise_tiles`` that hands out a call's tiles in stepping order submits
tile j+1 to a helper thread as it hands out tile j, whenever the call's
blocks are cut for drawing ahead: the helper draws and scales it into the
other slot while the main thread steps tile j.  A call that draws nothing
ahead allocates one slot.  A coupled call writes the coarse chain's pair
sums into the even columns of the tile the fine chain has just stepped: a
slot is drawn into again only for the tile after next, which is submitted
once this tile's step has returned (or, with one slot, drawn on the main
thread).  The helper is a one-thread pool owned by ``_run``: it is started
only if the call draws ahead, and it is shut down, after its last draw
ends, before the call returns or raises.
No thread outlives a call and none is shared between calls, so a forked
worker process never inherits one.
"""

from __future__ import annotations

import numbers
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import streams
from .euler import NonFiniteStateError, propagate_unit, propagate_unit_coupled
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
# the replicates that resample at a report time do so together, in chunks
# of at most RESAMPLE_CHUNK_ROWS particles per chain (and at least one
# replicate), and the estimates and final weights of a call's rows are
# reduced in chunks of as many rows; this bounds the temporaries of a pass
# by those of RESAMPLE_CHUNK_ROWS particles or of one replicate, whichever
# is larger, where a large call would otherwise grow its process's peak
# memory
RESAMPLE_CHUNK_ROWS = 1 << 12
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
    _check_level(path, l)
    if chains == 2 and l < 1:
        raise ValueError("coupled filter needs l >= 1")
    streams.check_count(n, "n", 1)
    if resample_policy not in RESAMPLE_POLICIES:
        raise ValueError(f"resample_policy must be one of {RESAMPLE_POLICIES}")
    report_times = _report_times(report_times, path.T)
    seeds = seed_tuple(seed)
    if _call_bytes(n, len(seeds), chains) > sys.maxsize:
        raise ValueError(f"n={n} particles in {chains} chain(s) of {len(seeds)} replicate(s) "
                         "need states and log-weights above sys.maxsize bytes")
    return report_times, seeds


def _check_level(path, l: int) -> None:
    """Raise a ``ValueError`` naming the level unless ``l`` is a level of
    ``path``'s data: an integer, not a bool, in [0, L_data]."""
    if not streams.is_count(l, 0):
        rule = ">= 0" if isinstance(l, numbers.Integral) and not isinstance(l, bool) else "an integer"
        raise ValueError(f"level must be {rule}, got {l!r}")
    if l > path.L_data:
        raise ValueError(f"level {l} exceeds data frequency L_data={path.L_data}")


def _report_times(report_times, T: int) -> list:
    """``report_times`` as a list of ints, every integer time in [1, ``T``]
    for None; raise a ``ValueError`` naming it unless each time is an
    integer, not a bool, in [1, T]."""
    if report_times is None:
        return list(range(1, T + 1))
    times = list(report_times)
    if not all(streams.is_count(t, 1) and t <= T for t in times):
        raise ValueError(f"report_times must be integers in [1, T={T}], got {times!r}")
    return [int(t) for t in times]


def _call_bytes(n, replicates: int, chains: int):
    """The bytes of the states and log-weights of a filter call on ``chains``
    chains of ``replicates`` replicates of ``n`` particles: two (chains, R,
    N) float64 arrays."""
    return 16 * chains * replicates * n


def _weighted(log_weights: np.ndarray, states: np.ndarray, phis: dict, t: int, into: list) -> None:
    """Weighted mean of every functional at report time ``t``: row i of the
    (rows, N) log-weights and states into the dict ``into[i]``.  The weights
    of all rows are exponentiated at once; each functional maps one row's
    (N,) states, and each row's dot products are its own."""
    w = np.exp(log_weights - np.max(log_weights, axis=-1, keepdims=True))
    ones = np.ones(w.shape[-1])
    for wi, xi, estimates in zip(w, states, into):
        for fid, phi in phis.items():
            vals = phi(xi)
            # ratio of two identical dot-product expressions, so a constant functional
            # yields exactly 1 and difference estimators cancel exactly
            estimates[(float(t), fid)] = float((wi @ vals) / (wi @ ones))


def _call_keys(seeds, levels, T: int) -> np.ndarray:
    """The keys of the noise and resampling streams of filter calls, in one
    pass: ``seeds`` is a (calls, R) array of replicate seeds, ``levels`` the
    (calls,) levels, and entry [i, r, q, p] is call i's key of replicate r's
    stream for interval p, of noise (q 0) or resampling (q 1)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return streams.stream_keys(seeds[:, :, None, None], _PURPOSES,
                               np.asarray(levels)[:, None, None, None], np.arange(T))


def _cuts(rows: int, l: int) -> tuple:
    """Row slices of one interval's (rows, 2**l) noise block, near-equal and
    in order, and whether they are drawn ahead (see the module docstring)."""
    ahead = rows >= AHEAD_TILE_ROWS and rows << l >= MAX_TILE_PARTICLE_STEPS >> 1
    most = max(MAX_TILE_PARTICLE_STEPS >> l, AHEAD_TILE_ROWS if ahead else 1)
    k = max(2 if ahead else 1, -(-rows // most))
    bounds = [i * rows // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])], ahead


def _noise_tiles(seeds: tuple, keys: list, n: int, l: int, T: int, cuts: list, pool):
    """A call's Brownian increments as (rows, noise), tile by tile in
    stepping order: every interval's row tiles ``cuts``, replicate ``r``
    owning the rows ``r*n .. (r+1)*n - 1`` and ``keys[r][p]`` keying its
    noise stream for interval ``p``.  A tile's noise is its rows of each
    replicate's block, scaled by sqrt(2**-l), in the first rows of a slot
    that holds the largest tile.

    With the one-thread ``pool``, tile j+1 is drawn on it into the other of
    two slots while tile j is stepped; it is submitted when tile j is handed
    out, so its slot is that of tile j-1, which has been stepped, and no two
    draws overlap.  With ``pool`` None there is one slot and every tile is
    drawn on the main thread.  Every tile is drawn from one generator.
    """
    scale = np.sqrt(2.0 ** (-l))
    order = [(p, rows) for p in range(T) for rows in cuts]
    most = max(rows.stop - rows.start for rows in cuts)
    slots = [np.empty((most, 1 << l)) for _ in range(1 + (pool is not None))]
    stream = None

    def draw(j: int) -> np.ndarray:
        nonlocal stream
        p, rows = order[j]
        out = slots[j % len(slots)][:rows.stop - rows.start]
        for r in range(rows.start // n, -(-rows.stop // n)):
            lo, hi = max(rows.start, r * n), min(rows.stop, (r + 1) * n)
            if lo == r * n:  # a replicate's first rows; later tiles continue its stream
                stream = streams.open_stream(keys[r][p], stream)
            streams.noise_block(seeds[r], l, p, hi - lo, out=out[lo - rows.start:hi - rows.start],
                                stream=stream)
        out *= scale
        return out

    pending = None  # the draw of the next tile, when it runs ahead
    for j, (_, rows) in enumerate(order):
        noise = draw(j) if pending is None else pending.result()
        pending = pool.submit(draw, j + 1) if pool is not None and j + 1 < len(order) else None
        yield rows, noise


def pf_run(
    model: ModelSpec,
    path: ObservationPath,
    l: int,
    n: int,
    functionals,
    report_times=None,
    resample_policy: str = "ess_below_half",
    seed: int | tuple = 0,
    *,
    _keys=None,
):
    """Run a particle filter at level ``l`` on one observation path.

    ``seed`` is an int, giving one ``FilterOutput``, or a tuple of ints,
    giving a tuple with one output per seed, each equal to the single-seed
    run.  The replicates are stacked and take one Euler sweep per interval
    and tile, with their noise drawn into a ring of slots (see
    ``_noise_tiles``).  Each interval's weights, estimates and resampling
    are done for all replicates at once, one row per replicate.  ``_keys``
    is for ``mlpf_run``, which derives every rung's stream keys in one pass
    (see ``_call_keys``); a call without it derives its own, and keys of
    another shape are a ``ValueError``.
    """
    return _run(model, path, l, n, functionals, report_times, resample_policy, seed, None, _keys)


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
    *,
    _keys=None,
):
    """Run a coupled particle filter approximating levels ``l`` and ``l-1``.

    ``estimates`` holds the fine-minus-coarse difference estimator; the
    per-level estimates are exposed separately.  The adaptive trigger is
    evaluated on the coarse-side ESS.  ``coupling`` is "maximal" (the
    maximal coupling of the two weight vectors) or "sorted" (comonotone
    draws over the state-sorted weights).  ``seed`` is an int or a tuple of
    ints, with replicates stacked and ``_keys`` as in ``pf_run``.
    """
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}")
    return _run(model, path, l, n, functionals, report_times, resample_policy, seed, coupling,
                _keys)


def _replicate_fault(exc: NonFiniteStateError, tile: slice, n: int, seeds: tuple):
    """``exc`` from stepping the rows ``tile``, naming the replicate of its
    first non-finite row."""
    if exc.row is None:  # an observation increment, shared by every replicate
        return exc
    r = (tile.start + exc.row) // n
    return NonFiniteStateError(f"replicate {r} (seed {seeds[r]}): {exc}", exc.row)


def _run(model, path, l, n, functionals, report_times, resample_policy, seed, coupling, keys):
    """The interval loop of both filters: a PF when ``coupling`` is None,
    else a CPF whose ancestors are drawn by ``coupling``.  Entry [c, r] of
    the (chains, R, N) states and log-weights is replicate r of the chain at
    level l - c, and the (T, R) diagnostics hold each interval's entry of
    every replicate."""
    phis = resolve_functionals(functionals)
    report_times, seeds = _check_common(path, l, n, report_times, resample_policy, seed,
                                        1 if coupling is None else 2)
    levels = [l] if coupling is None else [l, l - 1]
    chains, n_rep = len(levels), len(seeds)
    x = np.full((chains, n_rep, n), model.x_star)
    cum = np.zeros((chains, n_rep, n))
    same = None if coupling is None else np.ones((n_rep, n), dtype=bool)
    log_norm = np.zeros((chains, n_rep))
    estimates = [[{} for _ in seeds] for _ in levels]
    ess_trace = np.empty((path.T, n_rep))
    resampled = np.zeros((path.T, n_rep), dtype=bool)
    coupling_fraction, same_trace = np.zeros((2, path.T, n_rep))
    if keys is None:
        keys = _call_keys([seeds], [l], path.T)[0]
    elif np.shape(keys) != (n_rep, 2, path.T, 2):
        raise ValueError(f"_keys must hold the noise and resampling keys of {n_rep} "
                         f"replicate(s) over {path.T} interval(s), a ({n_rep}, 2, {path.T}, 2) "
                         f"array, got shape {np.shape(keys)}")
    # nested lists whose [r][p] is replicate r's key for interval p, made per
    # call: as Python ints a key weighs about 150 bytes, and an mlpf_run
    # holding every rung's keys that way grew its peak memory
    noise_keys, resample_keys = keys[:, 0].tolist(), keys[:, 1].tolist()
    rng = streams.open_stream(resample_keys[0][0])  # reopened for every resampling step
    chunk = max(1, RESAMPLE_CHUNK_ROWS // n)  # replicates per pass
    passes = [slice(i, i + chunk) for i in range(0, n_rep, chunk)]

    def resample(sel: np.ndarray, p: int, w: np.ndarray) -> None:
        """Resample replicates ``sel`` at the end of interval ``p`` from the
        (chains, R, N) weights ``w``, in one pass over their rows; the
        resamplers' flat indices index each chain's stack of those rows.
        Its temporaries end with it, before the next interval's steps."""
        log_norm[:, sel] += log_mean_weight(cum[:, sel])
        u = np.empty((len(sel), 4, n) if coupling == "maximal" else (len(sel), n))
        for r, row in zip(sel, u):  # each replicate's uniforms from its own stream
            streams.open_stream(resample_keys[r][p], rng).random(out=row)
        if coupling is None:
            ancestors = (multinomial_indices(w[0, sel], u),)
        else:
            if coupling == "maximal":
                pairs = maximal_coupling_indices(w[0, sel], w[1, sel], u)
            else:
                pairs = sorted_coupling_indices(w[0, sel], w[1, sel], x[0, sel], x[1, sel], u)
            ancestors = (pairs.fine, pairs.coarse)
        for c, idx in enumerate(ancestors):
            x[c, sel] = x[c, sel].reshape(-1)[idx].reshape(-1, n)
        cum[:, sel] = 0.0
        if coupling is not None:
            kept = (pairs.coupled & same[sel].reshape(-1)[ancestors[0]]).reshape(-1, n)
            same[sel] = kept
            coupling_fraction[p, sel] = np.count_nonzero(pairs.coupled.reshape(-1, n), axis=1) / n
            same_trace[p, sel] = np.count_nonzero(kept, axis=1) / n

    cuts, ahead = _cuts(n_rep * n, l)
    with ThreadPoolExecutor(1, thread_name_prefix="mlpf-noise") if ahead else nullcontext() as pool:
        tiles = _noise_tiles(seeds, noise_keys, n, l, path.T, cuts, pool)
        for p in range(path.T):
            obs = [increments_at_level(path, level, p) for level in levels]
            for tile, noise in islice(tiles, len(cuts)):
                xt = [chain.reshape(-1)[tile] for chain in x]  # each chain's rows of the tile
                try:
                    if coupling is None:
                        props = (propagate_unit(model, l, xt[0], obs[0], noise),)
                    else:
                        step = propagate_unit_coupled(model, l, *xt, *obs, noise,
                                                      coarse_noise=noise[:, 0::2])
                        props = (step.fine, step.coarse)
                except NonFiniteStateError as exc:
                    raise _replicate_fault(exc, tile, n, seeds) from exc
                for c, prop in enumerate(props):
                    xt[c][:] = prop.endpoint
                    cum[c].reshape(-1)[tile] += prop.log_g_total
            t = p + 1
            w = normalize_log_weights(cum.reshape(-1, n)).reshape(cum.shape)
            ess_trace[p] = ess(w[-1])
            if t in report_times:
                for c in range(chains):
                    for rows in passes:
                        _weighted(cum[c, rows], x[c, rows], phis, t, estimates[c][rows])
            resampled[p] = resample_policy == "always" or ess_trace[p] < n / 2.0
            due = np.flatnonzero(resampled[p])
            for i in range(0, len(due), chunk):
                resample(due[i:i + chunk], p, w)

    for rows in passes:  # zero for a replicate whose last event was a resample
        log_norm[:, rows] += log_mean_weight(cum[:, rows])
    log_normalizer = log_norm.tolist()

    def output(r):
        times = resampled[:, r]
        common = dict(level=l, n_particles=n, log_normalizer=log_normalizer[0][r],
                      cost_units=n * sum(1 << level for level in levels) * path.T)
        diagnostics = [(np.flatnonzero(times) + 1.0).tolist(), ess_trace[:, r].tolist()]
        if coupling is None:
            return FilterOutput(estimates=estimates[0][r],
                                diagnostics=FilterDiagnostics(*diagnostics), **common)
        fine, coarse = estimates[0][r], estimates[1][r]
        return FilterOutput(
            estimates={key: fine[key] - coarse[key] for key in fine},
            diagnostics=FilterDiagnostics(*diagnostics, coupling_fraction[times, r].tolist(),
                                          same_trace[times, r].tolist()),
            fine_estimates=fine,
            coarse_estimates=coarse,
            log_normalizer_coarse=log_normalizer[1][r],
            final_same_ancestor_fraction=float(np.count_nonzero(same[r]) / n),
            **common,
        )

    outs = tuple(output(r) for r in range(n_rep))
    return outs if isinstance(seed, tuple) else outs[0]
