"""Particle filter, coupled particle filter, and their estimators.

The PF propagates a weighted cloud one unit interval at a time.  Estimates
are weighted means at integer report times, the ends of unit intervals: they
use the cumulative log-weights including the just-finished interval's
potentials, evaluated before any resampling at that time.  The
CPF runs a fine/coarse pair on common Brownian increments with jointly
resampled ancestor indices, and tracks the set of pairs that have always
drawn a common ancestor.

States are scalar: N particles are an (N,) array, which a functional maps
to an (N,) array of values, and one interval's noise is an (N, 2**l) block.

Both filters take ``seed`` as an int or as a tuple of ints, one independent
replicate per seed.  Replicates on the same path and level are stacked along
the particle axis, R replicates of N particles as R*N rows, and stepped by
one Euler sweep per interval; each keeps its own Philox noise block and
resampling stream.  A group's log-weights and ESS are reduced in one pass
over an (R, N) view, one row per replicate, which gives each replicate the
same bytes as a reduction of its own rows; estimates and resampling are
computed per replicate, on its own rows.  Replicates are stacked in groups
of at most ``MAX_GROUP_PARTICLE_STEPS`` particle-steps per interval, so a
replicate that alone exceeds it runs by itself.  Every replicate's output is
bit-identical to the single-seed run; an int seed is the one-replicate case.

A call allocates one noise buffer, sized for its largest group, and every
group and interval draws its Philox blocks into it in place, so a call holds
one noise block at a time: max(``MAX_GROUP_PARTICLE_STEPS``, N * 2**l)
float64 values at most.  A coupled call also allocates one buffer for the
coarse chain's pair sums, half as large, into which
``propagate_unit_coupled`` writes every interval's sums.

A (group, interval) block of more than ``CUT_ROWS`` rows and at least
``CUT_PARTICLE_STEPS`` particle-steps is cut into two row halves, the two
halves of the noise buffer and of the pair-sum buffer; every other block is
one tile.  A call draws and steps its tiles in one ordered stream.  A
replicate whose rows straddle the cut draws its second-half rows from the
same ``streams.noise_stream`` as its first, which gives the values of one
whole draw, so the cut changes no output byte.  A block never depends on
the particle states, so while the main thread steps tile j, a helper thread
draws and scales tile j+1 whenever its rows are disjoint from tile j's, as
from the first half of a cut block to the second, and from the second half
to the first half of the group's next block.  The helper is a one-thread
pool owned by the call: it is started only if some tile is drawn ahead, and
it is shut down, after its last draw ends, before the call returns or
raises.  No thread outlives a call and none is shared between calls, so a
forked worker process never inherits one.
"""

from __future__ import annotations

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
    "MAX_GROUP_PARTICLE_STEPS",
]

RESAMPLE_POLICIES = ("always", "ess_below_half")
COUPLINGS = ("maximal", "sorted")

# replicates are stacked while a group's noise block (replicates x particles x
# steps per unit interval) stays within this many particle-steps (2 MB of
# float64): the Euler sweep's cost per particle-step stops falling by this
# size, and larger blocks only hold more memory
MAX_GROUP_PARTICLE_STEPS = 1 << 18
# a block of more than CUT_ROWS rows and at least CUT_PARTICLE_STEPS
# particle-steps is cut into two row halves, one drawn while the other is
# stepped.  Each half then has at least 500 rows: numpy holds the GIL
# through loops over 500 elements or fewer (NPY_BEGIN_THREADS_THRESHOLDED),
# so a step on fewer rows would starve the helper, and a smaller block is
# stepped too fast to repay a thread's hand-off
CUT_ROWS = 1000
CUT_PARTICLE_STEPS = 1 << 17

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


def _check_common(path, l, n, report_times, resample_policy):
    if l < 0:
        raise ValueError(f"level must be >= 0, got {l}")
    if l > path.L_data:
        raise ValueError(f"level {l} exceeds data frequency L_data={path.L_data}")
    if n < 1:
        raise ValueError("need at least one particle")
    if resample_policy not in RESAMPLE_POLICIES:
        raise ValueError(f"resample_policy must be one of {RESAMPLE_POLICIES}")
    if report_times is None:
        report_times = list(range(1, path.T + 1))
    report_times = [int(t) for t in report_times]
    if any(t < 1 or t > path.T for t in report_times):
        raise ValueError("report times must be integers in [1, T]")
    return report_times


def _weighted(log_weights: np.ndarray, states: np.ndarray, phis: dict, t: int, into: dict) -> None:
    """Weighted mean of every functional at report time ``t``, into ``into``."""
    w = np.exp(log_weights - np.max(log_weights))
    for fid, phi in phis.items():
        vals = phi(states)
        # ratio of two identical dot-product expressions, so a constant functional
        # yields exactly 1 and difference estimators cancel exactly
        into[(float(t), fid)] = float((w @ vals) / (w @ np.ones_like(vals)))


def _replicate_groups(seeds: tuple, n: int, l: int) -> list:
    """Split replicate seeds into stacked groups of at most
    ``MAX_GROUP_PARTICLE_STEPS`` particle-steps per unit interval (one each
    when a single replicate is larger)."""
    size = max(1, MAX_GROUP_PARTICLE_STEPS // (n << l))
    return [seeds[i : i + size] for i in range(0, len(seeds), size)]


def _cuts(rows: int, l: int) -> tuple:
    """Row slices of one (group, interval) block: its two halves when it is
    cut, else the whole block."""
    if rows > CUT_ROWS and rows << l >= CUT_PARTICLE_STEPS:
        half = rows // 2
        return slice(0, half), slice(half, rows)
    return (slice(0, rows),)


class _NoiseTiles:
    """A call's Brownian increments, drawn tile by tile in stepping order.

    The noise buffer, and for a coupled call the pair-sum buffer, is sized
    for the largest (the first) group; each group's block fills a prefix of
    it, with replicate ``r``'s Philox block in rows ``r*n .. (r+1)*n - 1``.
    ``block()`` hands out the next (group, interval) block's tiles.  Used as
    a context manager, it owns the helper thread that draws ahead (see the
    module docstring).
    """

    def __init__(self, groups: list, n: int, l: int, T: int, coupled: bool = False):
        largest = len(groups[0]) * n
        self._buf = np.empty((largest, 1 << l))
        self._pairs = np.empty((largest, 1 << (l - 1))) if coupled else None
        self._n, self._l = n, l
        self._scale = np.sqrt(2.0 ** (-l))
        blocks = [(group, p, _cuts(len(group) * n, l)) for group in groups for p in range(T)]
        self._sizes = [len(cuts) for _, _, cuts in blocks]
        self._tiles = [(group, p, rows) for group, p, cuts in blocks for rows in cuts]
        self._ahead = [a.stop <= b.start or b.stop <= a.start
                       for (_, _, a), (_, _, b) in zip(self._tiles, self._tiles[1:])] + [False]
        self._block = self._next = 0
        self._pending = None  # the draw of the next tile, when it runs ahead
        self._stream = None  # the noise stream of the replicate drawn last
        self._pool = None

    def __enter__(self):
        if any(self._ahead):
            self._pool = ThreadPoolExecutor(1, thread_name_prefix="mlpf-noise")
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()  # waits for a draw that is still running
            self._pool = None

    def block(self):
        """The next (group, interval) block's tiles, lazily, as (rows, noise,
        pair-sum buffer); a tile is drawn by the time it is handed out."""
        size = self._sizes[self._block]
        self._block += 1
        return (self._take() for _ in range(size))

    def _take(self):
        j = self._next
        self._next += 1
        if self._pending is None:
            self._draw(j)
        else:
            self._pending.result()
            self._pending = None
        if self._ahead[j]:
            self._pending = self._pool.submit(self._draw, j + 1)
        rows = self._tiles[j][2]
        return rows, self._buf[rows], None if self._pairs is None else self._pairs[rows]

    def _draw(self, j: int) -> None:
        """Tile ``j``'s increments: the rows of each replicate's noise block
        that it covers, scaled by sqrt(2**-l)."""
        seeds, p, rows = self._tiles[j]
        n, l = self._n, self._l
        for r in range(rows.start // n, -(-rows.stop // n)):
            lo, hi = max(rows.start, r * n), min(rows.stop, (r + 1) * n)
            if lo == r * n:  # a replicate's first rows; the rows after a cut continue its stream
                self._stream = streams.noise_stream(seeds[r], l, p)
            streams.noise_block(seeds[r], l, p, hi - lo, out=self._buf[lo:hi], stream=self._stream)
        self._buf[rows] *= self._scale


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
    run.  The replicates are stacked in groups (see ``_replicate_groups``)
    and each group takes one Euler sweep per interval and tile, with its
    noise drawn into one buffer that all groups share (see ``_NoiseTiles``).
    """
    phis = resolve_functionals(functionals)
    report_times = _check_common(path, l, n, report_times, resample_policy)
    seeds = seed if isinstance(seed, tuple) else (seed,)
    groups = _replicate_groups(seeds, n, l)
    outs = []
    with _NoiseTiles(groups, n, l, path.T) as tiles:
        for group in groups:
            outs += _pf_group(model, path, l, n, phis, report_times, resample_policy, group, tiles)
    return tuple(outs) if isinstance(seed, tuple) else outs[0]


def _pf_group(model, path, l, n, phis, report_times, resample_policy, seeds, tiles) -> list:
    """One stacked group of replicates.  Each interval's weights and ESS are
    reduced for the whole group at once, one row per replicate; estimates and
    resampling are per replicate."""
    n_rep = len(seeds)
    rows = [slice(r * n, (r + 1) * n) for r in range(n_rep)]
    x = np.full(n_rep * n, model.x_star)
    cum = np.zeros(n_rep * n)
    log_norm = [0.0] * n_rep
    estimates = [{} for _ in seeds]
    resample_times = [[] for _ in seeds]
    ess_trace = [[] for _ in seeds]
    for p in range(path.T):
        obs = increments_at_level(path, l, p)
        for tile, noise, _ in tiles.block():
            prop = propagate_unit(model, l, x[tile], obs, noise)
            x[tile] = prop.endpoint
            cum[tile] += prop.log_g_total
        t = p + 1
        wv = normalize_log_weights(cum.reshape(n_rep, n))
        group_ess = ess(wv).tolist()
        for r, sl in enumerate(rows):
            if t in report_times:
                _weighted(cum[sl], x[sl], phis, t, estimates[r])
            e = group_ess[r]
            ess_trace[r].append(e)
            if resample_policy == "always" or e < n / 2.0:
                log_norm[r] += log_mean_weight(cum[sl])
                idx = multinomial_indices(wv.row(r), n, streams.resample_rng(seeds[r], l, p))
                x[sl] = x[sl][idx]
                cum[sl] = 0.0
                resample_times[r].append(float(t))
    return [
        FilterOutput(
            level=l,
            n_particles=n,
            estimates=estimates[r],
            # the last term is zero when the last event was a resample
            log_normalizer=log_norm[r] + log_mean_weight(cum[sl]),
            diagnostics=FilterDiagnostics(resample_times[r], ess_trace[r]),
            cost_units=n * (1 << l) * path.T,
        )
        for r, sl in enumerate(rows)
    ]


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
    ints, with replicates stacked as in ``pf_run``.
    """
    if l < 1:
        raise ValueError("coupled filter needs l >= 1")
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}")
    phis = resolve_functionals(functionals)
    report_times = _check_common(path, l, n, report_times, resample_policy)
    seeds = seed if isinstance(seed, tuple) else (seed,)
    groups = _replicate_groups(seeds, n, l)
    outs = []
    with _NoiseTiles(groups, n, l, path.T, coupled=True) as tiles:
        for group in groups:
            outs += _cpf_group(model, path, l, n, phis, report_times, resample_policy, group,
                               coupling, tiles)
    return tuple(outs) if isinstance(seed, tuple) else outs[0]


def _cpf_group(model, path, l, n, phis, report_times, resample_policy, seeds, coupling,
               tiles) -> list:
    """One stacked group of coupled replicates; weights and ESS are reduced
    per group as in ``_pf_group``, estimates and resampling per replicate."""
    n_rep = len(seeds)
    rows = [slice(r * n, (r + 1) * n) for r in range(n_rep)]
    xf = np.full(n_rep * n, model.x_star)
    xc = xf.copy()
    cum_f = np.zeros(n_rep * n)
    cum_c = np.zeros(n_rep * n)
    same = np.ones(n_rep * n, dtype=bool)
    log_norm_f = [0.0] * n_rep
    log_norm_c = [0.0] * n_rep
    diffs = [{} for _ in seeds]
    fine_est = [{} for _ in seeds]
    coarse_est = [{} for _ in seeds]
    resample_times = [[] for _ in seeds]
    ess_trace = [[] for _ in seeds]
    coupling_fraction = [[] for _ in seeds]
    same_trace = [[] for _ in seeds]
    for p in range(path.T):
        obs_f = increments_at_level(path, l, p)
        obs_c = increments_at_level(path, l - 1, p)
        for tile, noise, sums in tiles.block():
            step = propagate_unit_coupled(model, l, xf[tile], xc[tile], obs_f, obs_c, noise,
                                          coarse_noise=sums)
            xf[tile] = step.fine.endpoint
            xc[tile] = step.coarse.endpoint
            cum_f[tile] += step.fine.log_g_total
            cum_c[tile] += step.coarse.log_g_total
        t = p + 1
        group_wv_f = normalize_log_weights(cum_f.reshape(n_rep, n))
        group_wv_c = normalize_log_weights(cum_c.reshape(n_rep, n))
        group_ess = ess(group_wv_c).tolist()
        for r, sl in enumerate(rows):
            if t in report_times:
                _weighted(cum_f[sl], xf[sl], phis, t, fine_est[r])
                _weighted(cum_c[sl], xc[sl], phis, t, coarse_est[r])
                for fid in phis:
                    key = (float(t), fid)
                    diffs[r][key] = fine_est[r][key] - coarse_est[r][key]
            e_c = group_ess[r]
            ess_trace[r].append(e_c)
            if resample_policy == "always" or e_c < n / 2.0:
                log_norm_f[r] += log_mean_weight(cum_f[sl])
                log_norm_c[r] += log_mean_weight(cum_c[sl])
                rng = streams.resample_rng(seeds[r], l, p)
                wv_f, wv_c = group_wv_f.row(r), group_wv_c.row(r)
                if coupling == "maximal":
                    pairs = maximal_coupling_indices(wv_f, wv_c, n, rng)
                else:
                    pairs = sorted_coupling_indices(wv_f, wv_c, xf[sl], xc[sl], n, rng)
                xf[sl] = xf[sl][pairs.fine]
                xc[sl] = xc[sl][pairs.coarse]
                same[sl] = pairs.coupled & same[sl][pairs.fine]
                cum_f[sl] = 0.0
                cum_c[sl] = 0.0
                resample_times[r].append(float(t))
                coupling_fraction[r].append(float(np.count_nonzero(pairs.coupled) / n))
                same_trace[r].append(float(np.count_nonzero(same[sl]) / n))
    return [
        FilterOutput(
            level=l,
            n_particles=n,
            estimates=diffs[r],
            log_normalizer=log_norm_f[r] + log_mean_weight(cum_f[sl]),
            diagnostics=FilterDiagnostics(resample_times[r], ess_trace[r], coupling_fraction[r],
                                          same_trace[r]),
            cost_units=n * ((1 << l) + (1 << (l - 1))) * path.T,
            fine_estimates=fine_est[r],
            coarse_estimates=coarse_est[r],
            log_normalizer_coarse=log_norm_c[r] + log_mean_weight(cum_c[sl]),
            final_same_ancestor_fraction=float(np.count_nonzero(same[sl]) / n),
        )
        for r, sl in enumerate(rows)
    ]
