"""Weight handling and (coupled) resampling schemes.

Includes the joint index resampler that maximizes the probability of fine
and coarse filters selecting a common ancestor, and an optional comonotone
(sorted inverse-CDF) coupling for scalar states.  Weights pass between
these functions as plain normalized arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IndexPairs",
    "normalize_log_weights",
    "ess",
    "log_mean_weight",
    "multinomial_indices",
    "maximal_coupling_indices",
    "sorted_coupling_indices",
    "DegenerateWeightsError",
]

# below this residual mass the two weight vectors are treated as identical
FULL_COUPLING_EPS = 1e-14


class DegenerateWeightsError(ValueError):
    """All particles carry zero weight."""


@dataclass(frozen=True)
class IndexPairs:
    """Jointly resampled ancestor indices for a coupled particle system."""

    fine: np.ndarray  # (N,) int
    coarse: np.ndarray  # (N,) int
    coupled: np.ndarray  # (N,) bool; True => fine == coarse

    def __post_init__(self):
        if not np.array_equal(self.fine[self.coupled], self.coarse[self.coupled]):
            raise ValueError("coupled pairs must have equal fine and coarse indices")


def normalize_log_weights(log_weights) -> np.ndarray:
    """Shift-stable normalization exp(lw - max) / sum, as a new array.

    ``log_weights`` is one (N,) vector or an (R, N) stack of R vectors, each
    row reduced on its own; a row's weights are bit-equal to normalizing it
    alone, since a sum along a contiguous row adds in the same order as the
    sum of a 1-D array.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim not in (1, 2) or lw.size == 0:
        raise ValueError("log_weights must be a non-empty (N,) or (R, N) array")
    m = np.max(lw, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise DegenerateWeightsError("all log-weights are -inf (or nan present)")
    w = lw - m
    np.exp(w, out=w)
    w /= np.sum(w, axis=-1, keepdims=True)
    return w


def ess(w: np.ndarray):
    """Effective sample size 1 / sum(w_i^2), in [1, N], of normalized
    weights: a float for one (N,) vector, an (R,) array for an (R, N) stack."""
    s = np.sum(w * w, axis=-1)
    return 1.0 / float(s) if s.ndim == 0 else 1.0 / s


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


def multinomial_indices(w: np.ndarray, n_draws: int, rng) -> np.ndarray:
    """i.i.d. categorical draws from the normalized weights ``w`` via
    inverse CDF on uniforms from ``rng``."""
    u = rng.random(n_draws)
    return _inverse_cdf(w, u)


def maximal_coupling_indices(wf: np.ndarray, wc: np.ndarray, n_draws: int, rng) -> IndexPairs:
    """Draw ``n_draws`` index pairs from the maximal coupling of two
    normalized weight vectors.

    Per pair: with probability alpha = sum_i min(wf_i, wc_i) a common index
    is drawn from min(wf, wc)/alpha; otherwise fine and coarse are drawn
    independently from the normalized residuals.  The uniform stream is
    consumed in fixed order (branch, common, fine-residual, coarse-residual),
    so the draw is a pure function of the rng state.
    """
    if wf.shape != wc.shape:
        raise ValueError("weight vectors must share the ancestor count")
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


def sorted_coupling_indices(
    wf: np.ndarray,
    wc: np.ndarray,
    fine_states: np.ndarray,
    coarse_states: np.ndarray,
    n_draws: int,
    rng,
) -> IndexPairs:
    """Comonotone coupling for (N,) scalar states: shared uniform, per-side
    inverse CDF over the state-sorted weight order.  No theoretical guarantee
    is claimed for this scheme; it is provided as an empirical alternative.
    """
    if np.shape(fine_states) != wf.shape or np.shape(coarse_states) != wc.shape:
        raise ValueError("sorted coupling needs (N,) scalar states, one per weight")
    order_f = np.argsort(fine_states, kind="stable")
    order_c = np.argsort(coarse_states, kind="stable")
    u = rng.random(n_draws)
    fine = order_f[_inverse_cdf(wf[order_f], u)]
    coarse = order_c[_inverse_cdf(wc[order_c], u)]
    return IndexPairs(fine, coarse, fine == coarse)
