"""Ground-truth references: exact Kalman filtering of the level-l discretized
scalar linear-Gaussian model, and a large-N particle filter for the rest."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import streams
from .euler import NonFiniteStateError
from .filters import _check_level, _report_times, pf_run
from .models import ModelSpec
from .observations import ObservationPath, increments_at_level

__all__ = ["KalmanResult", "kalman_run", "kalman_log_normalizer", "ReferenceTruth", "reference_truth"]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KalmanResult:
    level: int
    means: np.ndarray
    variances: np.ndarray
    log_evidence: float  # sum of Gaussian predictive log-densities of the increments
    log_evidence_bm: float  # same under the pure-Brownian reference measure

    def at_time(self, t: float) -> tuple[float, float]:
        idx = int(round(t * 2 ** self.level))
        return float(self.means[idx]), float(self.variances[idx])


def kalman_run(path: ObservationPath, l: int, theta: float, mu: float, sigma: float,
               x_star: float = 0.0, h_scale: float = 1.0) -> KalmanResult:
    """Exact filter of the level-l Euler-discretized linear-Gaussian model.

    The filter state at grid time k*delta conditions on the increments over
    [0, k*delta): each step first assimilates the increment observed at the
    pre-step state, then applies the linear predict map
    m <- m + theta*(mu - m)*delta, P <- (1 - theta*delta)^2 P + sigma^2 delta.
    Initial law is a point mass at ``x_star``.

    The recursion runs on Python floats, which round each operation as
    float64 numpy scalars do.  Squares stay ``**``, libm ``pow`` on either
    type, since ``x * x`` may round differently.  A float ``**`` raises
    ``OverflowError`` where numpy returns inf, so an overflow, and a mean or
    variance that is not finite after the loop, raise ``NonFiniteStateError``
    naming the level and the first bad step.
    """
    _check_level(path, l)
    delta = 2.0 ** (-l)
    m, P = float(x_star), 0.0
    # raw doubles: a list would keep every step's float object alive
    means, variances = array("d", [m]), array("d", [P])
    log_ev = 0.0
    log_ev_bm = 0.0
    try:
        # loop invariants, each the exact expression it stands for
        hd2 = (h_scale * delta) ** 2
        log_bm = _LOG_2PI + math.log(delta)
        decay2 = (1.0 - theta * delta) ** 2
        q = sigma ** 2 * delta
        for p in range(path.T):
            for dy in increments_at_level(path, l, p).tolist():
                pred_mean = h_scale * m * delta
                pred_var = delta + P * hd2
                log_ev += -0.5 * (_LOG_2PI + math.log(pred_var) + (dy - pred_mean) ** 2 / pred_var)
                log_ev_bm += -0.5 * (log_bm + dy ** 2 / delta)
                gain = P * h_scale * delta / pred_var
                m = m + gain * (dy - pred_mean)
                P = (1.0 - gain * h_scale * delta) * P
                m = m + theta * (mu - m) * delta
                P = decay2 * P + q
                means.append(m)
                variances.append(P)
    except OverflowError:
        raise NonFiniteStateError(f"Kalman filter at level {l} overflowed at step "
                                  f"{len(means)}") from None
    means, variances = np.frombuffer(means), np.frombuffer(variances)
    finite = np.isfinite(means) & np.isfinite(variances)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteStateError(f"Kalman filter at level {l}: step {k} is not finite "
                                  f"(mean {float(means[k])!r}, variance {float(variances[k])!r})")
    return KalmanResult(l, means, variances, log_ev, log_ev_bm)


def kalman_log_normalizer(result: KalmanResult) -> float:
    """Log normalizing constant comparable to the PF estimate (evidence ratio
    of the model against the pure-Brownian reference)."""
    return result.log_evidence - result.log_evidence_bm


@dataclass(frozen=True)
class ReferenceTruth:
    estimates: dict  # (time, functional id) -> value
    standard_errors: dict | None  # None for a deterministic (Kalman) truth
    kind: str  # "kalman" | "reference_pf"


def reference_truth(
    model: ModelSpec,
    path: ObservationPath,
    ref_level: int,
    ref_n: int,
    functionals,
    seed: int = 0,
    report_times=None,
    replicates: int = 5,
) -> ReferenceTruth:
    """Truth at the reference discretization level.

    Linear-Gaussian models get the exact Kalman filter; everything else gets
    the mean of ``replicates`` independent particle filters with attached
    standard errors.  ``seed`` is the master seed of the replicates' seeds.
    """
    _check_level(path, ref_level)
    streams.check_count(ref_n, "n", 1)
    streams.check_seed(seed)
    streams.check_count(replicates, "replicates", 1)
    report_times = _report_times(report_times, path.T)
    if model.is_linear_gaussian:
        p = model.params
        res = kalman_run(path, ref_level, p["theta"], p["mu"], p["sigma"], x_star=model.x_star)
        estimates = {}
        names = list(functionals) if not isinstance(functionals, dict) else list(functionals.keys())
        for t in report_times:
            m, v = res.at_time(t)
            for fid in names:
                if fid == "x":
                    estimates[(float(t), fid)] = m
                elif fid == "x2":
                    estimates[(float(t), fid)] = v + m * m
                elif fid == "one":
                    estimates[(float(t), fid)] = 1.0
                else:
                    raise ValueError(f"Kalman truth supports built-in functionals only, got {fid!r}")
        return ReferenceTruth(estimates, None, "kalman")
    seeds = tuple(int(streams.generator(seed, streams.TAG_TRUTH, r).integers(2 ** 63))
                  for r in range(replicates))
    runs = pf_run(model, path, ref_level, ref_n, functionals, report_times=report_times, seed=seeds)
    estimates, ses = {}, {}
    for key in runs[0].estimates:
        vals = np.array([run.estimates[key] for run in runs])
        estimates[key] = float(vals.mean())
        ses[key] = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else float("nan")
    return ReferenceTruth(estimates, ses, "reference_pf")
