"""Weight handling and (coupled) resampling schemes.

Includes the joint index resampler that maximizes the probability of fine
and coarse filters selecting a common ancestor, an exact small-N oracle for
its law, and an optional comonotone (sorted inverse-CDF) coupling for
scalar states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightVector",
    "IndexPairs",
    "normalize_log_weights",
    "ess",
    "log_mean_weight",
    "multinomial_indices",
    "maximal_coupling_indices",
    "maximal_coupling_pmf",
    "sorted_coupling_indices",
    "DegenerateWeightsError",
]

# below this residual mass the two weight vectors are treated as identical
FULL_COUPLING_EPS = 1e-14


class DegenerateWeightsError(ValueError):
    """All particles carry zero weight."""


@dataclass(frozen=True)
class WeightVector:
    log_weights: np.ndarray
    normalized: np.ndarray

    @property
    def n(self) -> int:
        return self.normalized.shape[0]


@dataclass(frozen=True)
class IndexPairs:
    """Jointly resampled ancestor indices for a coupled particle system."""

    fine: np.ndarray  # (N,) int
    coarse: np.ndarray  # (N,) int
    coupled: np.ndarray  # (N,) bool; True => fine == coarse

    def __post_init__(self):
        if not np.array_equal(self.fine[self.coupled], self.coarse[self.coupled]):
            raise ValueError("coupled pairs must have equal fine and coarse indices")


def normalize_log_weights(log_weights) -> WeightVector:
    """Shift-stable normalization exp(lw - max) / sum."""
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim != 1 or lw.size == 0:
        raise ValueError("log_weights must be a non-empty 1-D array")
    m = np.max(lw)
    if not np.isfinite(m):
        raise DegenerateWeightsError("all log-weights are -inf (or nan present)")
    w = np.exp(lw - m)
    return WeightVector(lw, w / w.sum())


def ess(weights: WeightVector) -> float:
    """Effective sample size 1 / sum(w_i^2), in [1, N]."""
    w = weights.normalized
    return 1.0 / float(np.sum(w * w))


def log_mean_weight(log_weights) -> float:
    """log of the arithmetic mean of exp(log_weights); stable.

    As in ``scipy.special.logsumexp``, the largest term is taken out of the
    sum and the rest enters through log1p.
    """
    lw = np.asarray(log_weights, dtype=float)
    i = int(np.argmax(lw))  # the first nan, if there is one
    top = lw[i]
    if not np.isfinite(top):
        return float(top)
    rest = np.exp(lw - top)
    rest[i] = 0.0
    return float(np.log1p(rest.sum()) + top - np.log(lw.size))


def _inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, u, side="right"), probs.size - 1)  # never below 0


def multinomial_indices(weights: WeightVector, n_draws: int, rng) -> np.ndarray:
    """i.i.d. categorical draws via inverse CDF on uniforms from ``rng``."""
    u = rng.random(n_draws)
    return _inverse_cdf(weights.normalized, u)


def maximal_coupling_indices(w_fine: WeightVector, w_coarse: WeightVector, n_draws: int, rng) -> IndexPairs:
    """Draw ``n_draws`` index pairs from the maximal coupling of two weight vectors.

    Per pair: with probability alpha = sum_i min(wf_i, wc_i) a common index
    is drawn from min(wf, wc)/alpha; otherwise fine and coarse are drawn
    independently from the normalized residuals.  The uniform stream is
    consumed in fixed order (branch, common, fine-residual, coarse-residual),
    so the draw is a pure function of the rng state.
    """
    if w_fine.n != w_coarse.n:
        raise ValueError("weight vectors must share the ancestor count")
    wf, wc = w_fine.normalized, w_coarse.normalized
    overlap = np.minimum(wf, wc)
    alpha = float(overlap.sum())
    u_branch = rng.random(n_draws)
    u_common = rng.random(n_draws)
    u_fine = rng.random(n_draws)
    u_coarse = rng.random(n_draws)
    if 1.0 - alpha < FULL_COUPLING_EPS:
        idx = _inverse_cdf(overlap / alpha, u_common)
        return IndexPairs(idx, idx.copy(), np.ones(n_draws, dtype=bool))
    coupled = u_branch < alpha
    fine = np.empty(n_draws, dtype=np.int64)
    coarse = np.empty(n_draws, dtype=np.int64)
    if np.any(coupled):
        common = _inverse_cdf(overlap / alpha, u_common[coupled])
        fine[coupled] = common
        coarse[coupled] = common
    rest = ~coupled
    if np.any(rest):
        res_f = (wf - overlap) / (1.0 - alpha)
        res_c = (wc - overlap) / (1.0 - alpha)
        fine[rest] = _inverse_cdf(res_f, u_fine[rest])
        coarse[rest] = _inverse_cdf(res_c, u_coarse[rest])
    return IndexPairs(fine, coarse, coupled)


def maximal_coupling_pmf(w_fine: WeightVector, w_coarse: WeightVector) -> np.ndarray:
    """Exact N x N joint law of one maximal-coupling index pair (test oracle)."""
    wf, wc = w_fine.normalized, w_coarse.normalized
    overlap = np.minimum(wf, wc)
    alpha = float(overlap.sum())
    joint = np.diag(overlap)
    if 1.0 - alpha >= FULL_COUPLING_EPS:
        res_f = (wf - overlap) / (1.0 - alpha)
        res_c = (wc - overlap) / (1.0 - alpha)
        joint = joint + (1.0 - alpha) * np.outer(res_f, res_c)
    return joint


def sorted_coupling_indices(
    w_fine: WeightVector,
    w_coarse: WeightVector,
    fine_states: np.ndarray,
    coarse_states: np.ndarray,
    n_draws: int,
    rng,
) -> IndexPairs:
    """Comonotone coupling for scalar states: shared uniform, per-side inverse CDF
    over the state-sorted weight order.  No theoretical guarantee is claimed for
    this scheme; it is provided as an empirical alternative.
    """
    fine_states = np.asarray(fine_states, dtype=float)
    coarse_states = np.asarray(coarse_states, dtype=float)
    if fine_states.ndim == 2:
        if fine_states.shape[1] != 1:
            raise ValueError("sorted coupling requires scalar states (d_x = 1)")
        fine_states = fine_states[:, 0]
        coarse_states = coarse_states[:, 0]
    order_f = np.argsort(fine_states, kind="stable")
    order_c = np.argsort(coarse_states, kind="stable")
    u = rng.random(n_draws)
    fine = order_f[_inverse_cdf(w_fine.normalized[order_f], u)]
    coarse = order_c[_inverse_cdf(w_coarse.normalized[order_c], u)]
    return IndexPairs(fine, coarse, fine == coarse)
