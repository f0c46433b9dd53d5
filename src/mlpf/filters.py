"""Particle filter, coupled particle filter, and their estimators.

The PF propagates a weighted cloud one unit interval at a time; estimates at
integer times use the cumulative log-weights including the just-finished
interval's potentials, evaluated before any resampling at that time.  The
CPF runs a fine/coarse pair on common Brownian increments with jointly
resampled ancestor indices, and tracks the set of pairs that have always
drawn a common ancestor.

Both filters take ``seed`` as an int or as a tuple of ints, one independent
replicate per seed.  Replicates on the same path and level are stacked along
the particle axis, R replicates of N particles as R*N rows, and stepped by
one Euler sweep per interval; each keeps its own Philox noise block and
resampling stream, and its log-weights, ESS, resampling and estimates are
computed on its own rows.  Replicates are stacked in groups of at most
``MAX_GROUP_PARTICLE_STEPS`` particle-steps per interval, so a replicate
that alone exceeds it runs by itself.  Every replicate's output is
bit-identical to the single-seed run; an int seed is the one-replicate case.

A call allocates one noise buffer, sized for its largest group, and every
group and interval draws its Philox blocks into it in place, so a call holds
one noise block at a time: max(``MAX_GROUP_PARTICLE_STEPS``, N * 2**l)
float64 values at most.  A coupled step also holds the coarse chain's pair
sums, half as many, while it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import streams
from .euler import UnitPropagation, propagate_unit, propagate_unit_coupled
from .models import ModelSpec
from .observations import ObservationPath, increments_at_level
from .resampling import (
    IndexPairs,
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
    "pf_estimate_intermediate",
    "MAX_GROUP_PARTICLE_STEPS",
]

RESAMPLE_POLICIES = ("always", "ess_below_half")
COUPLINGS = ("maximal", "sorted", "independent")

# replicates are stacked while a group's noise block (replicates x particles x
# steps per unit interval) stays within this many particle-steps (2 MB of
# float64): the Euler sweep's cost per particle-step stops falling by this
# size, and larger blocks only hold more memory
MAX_GROUP_PARTICLE_STEPS = 1 << 18

DEFAULT_FUNCTIONALS = {
    "x": lambda x: x[:, 0],
    "x2": lambda x: x[:, 0] ** 2,
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


def _weighted_mean(log_weights: np.ndarray, vals: np.ndarray) -> float:
    # ratio of two identical dot-product expressions, so a constant functional
    # yields exactly 1 and difference estimators cancel exactly
    w = np.exp(log_weights - np.max(log_weights))
    return float((w @ vals) / (w @ np.ones_like(vals)))


def _weighted(log_weights: np.ndarray, states: np.ndarray, phis: dict, t: int, into: dict) -> None:
    for fid, phi in phis.items():
        into[(float(t), fid)] = _weighted_mean(log_weights, phi(states))


def _replicate_groups(seeds: tuple, n: int, l: int) -> list:
    """Split replicate seeds into stacked groups of at most
    ``MAX_GROUP_PARTICLE_STEPS`` particle-steps per unit interval (one each
    when a single replicate is larger)."""
    size = max(1, MAX_GROUP_PARTICLE_STEPS // (n << l))
    return [seeds[i : i + size] for i in range(0, len(seeds), size)]


def _noise_buffer(model: ModelSpec, groups: list, l: int, n: int) -> np.ndarray:
    """One uninitialised noise block for the largest (the first) group."""
    return np.empty((len(groups[0]) * n, 1 << l, model.d_x))


def _stacked_noise(model: ModelSpec, seeds: tuple, l: int, p: int, n: int,
                   buf: np.ndarray) -> np.ndarray:
    """Brownian increments of every replicate in a group, stacked along the
    particle axis in a prefix of ``buf``: rows ``r*n .. (r+1)*n - 1`` are
    replicate ``r``'s own Philox block, bit-identical to a single-seed run's."""
    noise = buf[: len(seeds) * n]
    for r, s in enumerate(seeds):
        streams.noise_block(s, l, p, n, model.d_x, out=noise[r * n : (r + 1) * n])
    noise *= np.sqrt(2.0 ** (-l))
    return noise


def pf_run(
    model: ModelSpec,
    path: ObservationPath,
    l: int,
    n: int,
    functionals,
    report_times=None,
    resample_policy: str = "ess_below_half",
    seed: int | tuple = 0,
    intermediate_times=None,
):
    """Run a particle filter at level ``l`` on one observation path.

    ``seed`` is an int, giving one ``FilterOutput``, or a tuple of ints,
    giving a tuple with one output per seed, each equal to the single-seed
    run.  The replicates are stacked in groups (see ``_replicate_groups``)
    and each group takes one Euler sweep per interval, with its noise drawn
    into one buffer that all groups share.
    """
    phis = resolve_functionals(functionals)
    report_times = _check_common(path, l, n, report_times, resample_policy)
    inter = _group_intermediate(intermediate_times, l, path.T)
    seeds = seed if isinstance(seed, tuple) else (seed,)
    groups = _replicate_groups(seeds, n, l)
    buf = _noise_buffer(model, groups, l, n)
    outs = []
    for group in groups:
        outs += _pf_group(model, path, l, n, phis, report_times, resample_policy, group, inter,
                          buf)
    return tuple(outs) if isinstance(seed, tuple) else outs[0]


def _pf_group(model, path, l, n, phis, report_times, resample_policy, seeds, inter,
              buf) -> list:
    """One stacked group of replicates; weights and resampling are per row."""
    delta = 2.0 ** (-l)
    rows = [slice(r * n, (r + 1) * n) for r in range(len(seeds))]
    x = np.tile(model.x_star, (len(seeds) * n, 1))
    cum = np.zeros(len(seeds) * n)
    log_norm = [0.0] * len(seeds)
    estimates = [{} for _ in seeds]
    resample_times = [[] for _ in seeds]
    ess_trace = [[] for _ in seeds]
    for p in range(path.T):
        obs = increments_at_level(path, l, p)
        noise = _stacked_noise(model, seeds, l, p, n, buf)
        prop = propagate_unit(model, l, x, obs, noise, retain=bool(inter.get(p)))
        x = prop.endpoint
        t = p + 1
        for r, sl in enumerate(rows):
            for j in inter.get(p, ()):
                for fid, phi in phis.items():
                    estimates[r][(p + j * delta, fid)] = pf_estimate_intermediate(
                        cum[sl], prop.rows(sl), j * delta, phi)
            cum[sl] += prop.log_g_total[sl]
            wv = normalize_log_weights(cum[sl])
            if t in report_times:
                _weighted(cum[sl], x[sl], phis, t, estimates[r])
            e = ess(wv)
            ess_trace[r].append(e)
            if resample_policy == "always" or e < n / 2.0:
                log_norm[r] += log_mean_weight(cum[sl])
                idx = multinomial_indices(wv, n, streams.resample_rng(seeds[r], l, p))
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


def pf_estimate_intermediate(cum_entry: np.ndarray, prop: UnitPropagation, t: float, phi) -> float:
    """Weighted estimate at fractional time ``t`` within the propagated interval.

    ``cum_entry`` is the cumulative log-weight at the start of the interval;
    the partial products retained by ``propagate_unit`` supply the within-
    interval potentials up to ``t``.
    """
    if prop.partial_log_g is None or prop.intermediate_states is None:
        raise ValueError("propagation was run without retention; intermediate estimate unavailable")
    delta = 2.0 ** (-prop.level)
    j = t / delta
    if abs(j - round(j)) > 1e-9 or not (1 <= round(j) < 2 ** prop.level + 1):
        raise ValueError(f"time {t} is not on the level-{prop.level} grid interior")
    j = int(round(j))
    if j == 2 ** prop.level:
        raise ValueError("use the integer-time estimator at interval endpoints")
    lw = cum_entry + prop.partial_log_g[:, j - 1]
    if not np.any(np.isfinite(lw)):
        raise ValueError("degenerate weights: all -inf")
    return _weighted_mean(lw, phi(prop.intermediate_states[:, j]))


def _group_intermediate(intermediate_times, l, T):
    """Map unit interval -> sorted list of on-grid step offsets j in 1..2**l - 1."""
    grouped: dict = {}
    if not intermediate_times:
        return grouped
    delta = 2.0 ** (-l)
    for t in intermediate_times:
        p = int(np.floor(t + 1e-12))
        frac = t - p
        j = frac / delta
        if p < 0 or p >= T or abs(j - round(j)) > 1e-9 or not (1 <= round(j) <= 2 ** l - 1):
            raise ValueError(f"intermediate time {t} is not on the interior level-{l} grid")
        grouped.setdefault(p, []).append(int(round(j)))
    for p in grouped:
        grouped[p].sort()
    return grouped


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
    intermediate_times=None,
):
    """Run a coupled particle filter approximating levels ``l`` and ``l-1``.

    ``estimates`` holds the fine-minus-coarse difference estimator; the
    per-level estimates are exposed separately.  The adaptive trigger is
    evaluated on the coarse-side ESS.  ``coupling`` "independent" is a test
    hook that disables the joint resampler.  ``seed`` is an int or a tuple
    of ints, with replicates stacked as in ``pf_run``.
    """
    if l < 1:
        raise ValueError("coupled filter needs l >= 1")
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}")
    phis = resolve_functionals(functionals)
    report_times = _check_common(path, l, n, report_times, resample_policy)
    inter = _group_intermediate(intermediate_times, l - 1, path.T)
    seeds = seed if isinstance(seed, tuple) else (seed,)
    groups = _replicate_groups(seeds, n, l)
    buf = _noise_buffer(model, groups, l, n)
    outs = []
    for group in groups:
        outs += _cpf_group(model, path, l, n, phis, report_times, resample_policy, group,
                           coupling, inter, buf)
    return tuple(outs) if isinstance(seed, tuple) else outs[0]


def _cpf_group(model, path, l, n, phis, report_times, resample_policy, seeds, coupling,
               inter, buf) -> list:
    """One stacked group of coupled replicates; weights and resampling are per row."""
    delta_c = 2.0 ** (-(l - 1))
    rows = [slice(r * n, (r + 1) * n) for r in range(len(seeds))]
    xf = np.tile(model.x_star, (len(seeds) * n, 1))
    xc = xf.copy()
    cum_f = np.zeros(len(seeds) * n)
    cum_c = np.zeros(len(seeds) * n)
    same = np.ones(len(seeds) * n, dtype=bool)
    log_norm_f = [0.0] * len(seeds)
    log_norm_c = [0.0] * len(seeds)
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
        noise = _stacked_noise(model, seeds, l, p, n, buf)
        prop = propagate_unit_coupled(model, l, xf, xc, obs_f, obs_c, noise,
                                      retain=bool(inter.get(p)))
        xf = prop.fine.endpoint
        xc = prop.coarse.endpoint
        t = p + 1
        for r, sl in enumerate(rows):
            for j in inter.get(p, ()):
                for fid, phi in phis.items():
                    f_val = pf_estimate_intermediate(cum_f[sl], prop.fine.rows(sl), j * delta_c, phi)
                    c_val = pf_estimate_intermediate(cum_c[sl], prop.coarse.rows(sl), j * delta_c, phi)
                    key = (p + j * delta_c, fid)
                    fine_est[r][key] = f_val
                    coarse_est[r][key] = c_val
                    diffs[r][key] = f_val - c_val
            cum_f[sl] += prop.fine.log_g_total[sl]
            cum_c[sl] += prop.coarse.log_g_total[sl]
            wv_f = normalize_log_weights(cum_f[sl])
            wv_c = normalize_log_weights(cum_c[sl])
            if t in report_times:
                _weighted(cum_f[sl], xf[sl], phis, t, fine_est[r])
                _weighted(cum_c[sl], xc[sl], phis, t, coarse_est[r])
                for fid in phis:
                    key = (float(t), fid)
                    diffs[r][key] = fine_est[r][key] - coarse_est[r][key]
            e_c = ess(wv_c)
            ess_trace[r].append(e_c)
            if resample_policy == "always" or e_c < n / 2.0:
                log_norm_f[r] += log_mean_weight(cum_f[sl])
                log_norm_c[r] += log_mean_weight(cum_c[sl])
                rng = streams.resample_rng(seeds[r], l, p)
                if coupling == "maximal":
                    pairs = maximal_coupling_indices(wv_f, wv_c, n, rng)
                elif coupling == "sorted":
                    pairs = sorted_coupling_indices(wv_f, wv_c, xf[sl], xc[sl], n, rng)
                else:  # independent draws; coupling bookkeeping still recorded
                    fine_idx = multinomial_indices(wv_f, n, rng)
                    coarse_idx = multinomial_indices(wv_c, n, rng)
                    pairs = IndexPairs(fine_idx, coarse_idx, fine_idx == coarse_idx)
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
