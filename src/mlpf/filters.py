"""Particle filter, coupled particle filter, and their estimators.

The PF propagates a weighted cloud one unit interval at a time; estimates at
integer times use the cumulative log-weights including the just-finished
interval's potentials, evaluated before any resampling at that time.  The
CPF runs a fine/coarse pair on common Brownian increments with jointly
resampled ancestor indices, and tracks the set of pairs that have always
drawn a common ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import streams
from .euler import UnitPropagation, propagate_unit, propagate_unit_coupled
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
    "pf_estimate_intermediate",
    "cpf_estimate_intermediate",
    "log_normalizing_constant",
]

RESAMPLE_POLICIES = ("always", "ess_below_half")
COUPLINGS = ("maximal", "sorted", "independent")

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


def pf_run(
    model: ModelSpec,
    path: ObservationPath,
    l: int,
    n: int,
    functionals,
    report_times=None,
    resample_policy: str = "ess_below_half",
    seed: int = 0,
    intermediate_times=None,
) -> FilterOutput:
    """Run a particle filter at level ``l`` on one observation path."""
    phis = resolve_functionals(functionals)
    report_times = _check_common(path, l, n, report_times, resample_policy)
    inter = _group_intermediate(intermediate_times, l, path.T)
    steps = 1 << l
    delta = 2.0 ** (-l)
    x = np.tile(model.x_star, (n, 1))
    cum = np.zeros(n)
    log_norm = 0.0
    estimates: dict = {}
    resample_times: list = []
    ess_trace: list = []
    for p in range(path.T):
        obs = increments_at_level(path, l, p)
        noise = np.sqrt(delta) * streams.noise_block(seed, l, p, n, model.d_x)
        prop = propagate_unit(model, l, x, obs, noise, retain=bool(inter.get(p)))
        for j in inter.get(p, ()):
            t = p + j * delta
            for fid, phi in phis.items():
                estimates[(t, fid)] = pf_estimate_intermediate(cum, prop, j * delta, phi)
        cum = cum + prop.log_g_total
        x = prop.endpoint
        t = p + 1
        wv = normalize_log_weights(cum)
        if t in report_times:
            _weighted(cum, x, phis, t, estimates)
        e = ess(wv)
        ess_trace.append(e)
        if resample_policy == "always" or e < n / 2.0:
            log_norm += log_mean_weight(cum)
            rng = streams.resample_rng(seed, l, p)
            idx = multinomial_indices(wv, n, rng)
            x = x[idx]
            cum = np.zeros(n)
            resample_times.append(float(t))
    log_norm += log_mean_weight(cum)  # zero when the last event was a resample
    return FilterOutput(
        level=l,
        n_particles=n,
        estimates=estimates,
        log_normalizer=log_norm,
        diagnostics=FilterDiagnostics(resample_times, ess_trace),
        cost_units=n * steps * path.T,
    )


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
    seed: int = 0,
    coupling: str = "maximal",
    resample_trigger: str = "coarse",
    intermediate_times=None,
) -> FilterOutput:
    """Run a coupled particle filter approximating levels ``l`` and ``l-1``.

    ``estimates`` holds the fine-minus-coarse difference estimator; the
    per-level estimates are exposed separately.  The adaptive trigger is
    evaluated on the coarse-side ESS by default (``resample_trigger`` may be
    set to "both" for a sensitivity variant).  ``coupling`` "independent" is
    a test hook that disables the joint resampler.
    """
    if l < 1:
        raise ValueError("coupled filter needs l >= 1")
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}")
    if resample_trigger not in ("coarse", "both"):
        raise ValueError("resample_trigger must be 'coarse' or 'both'")
    phis = resolve_functionals(functionals)
    report_times = _check_common(path, l, n, report_times, resample_policy)
    inter = _group_intermediate(intermediate_times, l - 1, path.T)
    delta = 2.0 ** (-l)
    xf = np.tile(model.x_star, (n, 1))
    xc = np.tile(model.x_star, (n, 1))
    cum_f = np.zeros(n)
    cum_c = np.zeros(n)
    same = np.ones(n, dtype=bool)
    log_norm_f = 0.0
    log_norm_c = 0.0
    diffs: dict = {}
    fine_est: dict = {}
    coarse_est: dict = {}
    resample_times: list = []
    ess_trace: list = []
    coupling_fraction: list = []
    same_trace: list = []
    for p in range(path.T):
        obs_f = increments_at_level(path, l, p)
        obs_c = increments_at_level(path, l - 1, p)
        noise = np.sqrt(delta) * streams.noise_block(seed, l, p, n, model.d_x)
        retain = bool(inter.get(p))
        prop = propagate_unit_coupled(model, l, xf, xc, obs_f, obs_c, noise, retain=retain)
        for j in inter.get(p, ()):
            t = p + j * 2.0 ** (-(l - 1))
            for fid, phi in phis.items():
                f_val = pf_estimate_intermediate(cum_f, prop.fine, j * 2.0 ** (-(l - 1)), phi)
                c_val = pf_estimate_intermediate(cum_c, prop.coarse, j * 2.0 ** (-(l - 1)), phi)
                fine_est[(t, fid)] = f_val
                coarse_est[(t, fid)] = c_val
                diffs[(t, fid)] = f_val - c_val
        cum_f = cum_f + prop.fine.log_g_total
        cum_c = cum_c + prop.coarse.log_g_total
        xf = prop.fine.endpoint
        xc = prop.coarse.endpoint
        t = p + 1
        wv_f = normalize_log_weights(cum_f)
        wv_c = normalize_log_weights(cum_c)
        if t in report_times:
            _weighted(cum_f, xf, phis, t, fine_est)
            _weighted(cum_c, xc, phis, t, coarse_est)
            for fid in phis:
                diffs[(float(t), fid)] = fine_est[(float(t), fid)] - coarse_est[(float(t), fid)]
        e_c = ess(wv_c)
        ess_trace.append(e_c)
        fire = resample_policy == "always" or e_c < n / 2.0
        if resample_trigger == "both" and resample_policy != "always":
            fire = fire or ess(wv_f) < n / 2.0
        if fire:
            log_norm_f += log_mean_weight(cum_f)
            log_norm_c += log_mean_weight(cum_c)
            rng = streams.resample_rng(seed, l, p)
            if coupling == "maximal":
                pairs = maximal_coupling_indices(wv_f, wv_c, n, rng)
            elif coupling == "sorted":
                pairs = sorted_coupling_indices(wv_f, wv_c, xf, xc, n, rng)
            else:  # independent draws; coupling bookkeeping still recorded
                fine_idx = multinomial_indices(wv_f, n, rng)
                coarse_idx = multinomial_indices(wv_c, n, rng)
                from .resampling import IndexPairs

                coupled = fine_idx == coarse_idx
                pairs = IndexPairs(fine_idx, coarse_idx, coupled)
            xf = xf[pairs.fine]
            xc = xc[pairs.coarse]
            same = pairs.coupled & same[pairs.fine]
            cum_f = np.zeros(n)
            cum_c = np.zeros(n)
            resample_times.append(float(t))
            coupling_fraction.append(float(np.mean(pairs.coupled)))
            same_trace.append(float(np.mean(same)))
    log_norm_f += log_mean_weight(cum_f)
    log_norm_c += log_mean_weight(cum_c)
    return FilterOutput(
        level=l,
        n_particles=n,
        estimates=diffs,
        log_normalizer=log_norm_f,
        diagnostics=FilterDiagnostics(resample_times, ess_trace, coupling_fraction, same_trace),
        cost_units=n * ((1 << l) + (1 << (l - 1))) * path.T,
        fine_estimates=fine_est,
        coarse_estimates=coarse_est,
        log_normalizer_coarse=log_norm_c,
        final_same_ancestor_fraction=float(np.mean(same)),
    )


def cpf_estimate_intermediate(cum_f, cum_c, prop, t: float, phi) -> float:
    """Fine-minus-coarse estimate at a fractional time on the coarse grid."""
    fine = pf_estimate_intermediate(cum_f, prop.fine, t, phi)
    coarse = pf_estimate_intermediate(cum_c, prop.coarse, t, phi)
    return fine - coarse


def log_normalizing_constant(output: FilterOutput) -> float:
    """Accumulated log of mean weights at resampling epochs (and at T)."""
    return output.log_normalizer
