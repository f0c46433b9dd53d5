"""Weight handling and (coupled) resampling schemes.

Includes the joint index resampler that maximizes the probability of fine
and coarse filters selecting a common ancestor, and an optional comonotone
(sorted inverse-CDF) coupling for scalar states.  Weights pass between
these functions as plain normalized arrays.

The weight reductions take one (N,) vector or a stack of rows, one per
replicate of a filter call; the resamplers take (k, N) stacks and the
uniforms of their draws, which the filters draw from each replicate's own
resampling stream.  Each row is reduced, sorted, drawn and searched as it
would be alone: a sum or cumsum along a contiguous row adds in the order of
the 1-D one, and only the inverse CDF's ``searchsorted`` runs once per row.
So a filter resamples all its due replicates in one call, with the bytes of
one call per replicate.  A row of at least ``SORT_QUERIES`` uniforms is
searched in sorted order, which is faster on long rows; a uniform's index
does not depend on the others, so the indices are those of the search in
draw order.
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
# an inverse CDF searches a row of at least this many uniforms in sorted
# order, where numpy's searchsorted starts each search from the last one's
# bound: with the argsort and the scatter back, that costs 46-64 ns per
# uniform at 1723-4871 particles against 101-136 in draw order, and breaks
# even at 768-1024 (2-vCPU VM, numpy 2.4)
SORT_QUERIES = 1024


class DegenerateWeightsError(ValueError):
    """All particles carry zero weight."""


@dataclass(frozen=True)
class IndexPairs:
    """Jointly resampled ancestor indices for a coupled particle system."""

    fine: np.ndarray  # (k*m,) int, flat indices into a (k, N) stack
    coarse: np.ndarray  # (k*m,) int
    coupled: np.ndarray  # (k*m,) bool; True => fine == coarse

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


def log_mean_weight(log_weights):
    """log of the arithmetic mean of exp(log_weights); stable.

    As in ``scipy.special.logsumexp``, the largest term is taken out of the
    sum and the rest enters through log1p.  ``log_weights`` is one (N,)
    vector, giving a float, or a (..., N) stack of rows, giving a (...)
    array whose entries are bit-equal to the float of each row alone.  A
    row whose largest entry is not finite (its first nan, an inf, or -inf
    for a row of zero weights) gives that entry.
    """
    lw = np.asarray(log_weights, dtype=float)
    rows = lw.reshape(-1, lw.shape[-1])
    i = np.argmax(rows, axis=-1)  # the first nan, if there is one
    at = np.arange(len(rows)), i
    top = rows[at]
    finite = np.isfinite(top)[:, None]
    # rows without a finite top stay -inf, so exp gives 0 and nothing warns
    rest = np.subtract(rows, top[:, None], out=np.full(rows.shape, -np.inf), where=finite)
    np.exp(rest, out=rest)
    rest[at] = 0.0
    out = np.log1p(rest.sum(axis=-1)) + top - np.log(rows.shape[1])
    return float(out[0]) if lw.ndim == 1 else out.reshape(lw.shape[:-1])


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Row i of the (k, m) uniforms ``u`` mapped through row i of the
    (k, N) running sums ``cdf``, as indices into that row: a (k, m) array,
    or with a (k, m) boolean ``mask``, the 1-D array of the entries it
    selects, in row order.  The last column of ``cdf`` is set to 1.  A
    cumsum along a row adds in the order of the 1-D cumsum, so each row's
    CDF is the one of its probabilities alone.  A row of at least
    ``SORT_QUERIES`` queries searches them in sorted order and scatters the
    indices back; a query's index does not depend on the others, so the
    order changes no index."""
    cdf[:, -1] = 1.0
    if mask is None:
        queries, ends = u.reshape(-1), range(u.shape[1], u.size + 1, u.shape[1] or 1)
    else:
        queries, ends = u[mask], np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
    idx = np.empty(queries.shape, dtype=np.intp)
    a = 0
    for row, b in zip(cdf, ends):  # numpy has no row-batched searchsorted
        if b - a >= SORT_QUERIES:
            order = np.argsort(queries[a:b])
            idx[a:b][order] = np.searchsorted(row, queries[a:b][order], side="right")
        elif a < b:
            idx[a:b] = np.searchsorted(row, queries[a:b], side="right")
        a = b
    np.minimum(idx, cdf.shape[1] - 1, out=idx)  # never below 0
    return idx if mask is not None else idx.reshape(u.shape)


def _flat(idx: np.ndarray, n: int) -> np.ndarray:
    """(k, m) row indices into a (k, N) stack as flat indices into its k*N
    rows, row i's first."""
    idx += np.arange(0, idx.shape[0] * n, n)[:, None]
    return idx.reshape(-1)


def multinomial_indices(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """i.i.d. categorical draws from each row of the (k, N) normalized
    weights ``w`` via inverse CDF on row i of the (k, m) uniforms ``u``:
    (k*m,) indices into the stack's flattened k*N rows, row i's draws first.
    """
    return _flat(_inverse_cdf(np.cumsum(w, axis=-1), u), w.shape[1])


def maximal_coupling_indices(wf: np.ndarray, wc: np.ndarray, u: np.ndarray) -> IndexPairs:
    """Draw m index pairs per row from the maximal coupling of the rows of
    two (k, N) stacks of normalized weights, on the (k, 4, m) uniforms ``u``.

    Per pair: with probability alpha = sum_i min(wf_i, wc_i) a common index
    is drawn from min(wf, wc)/alpha; otherwise fine and coarse are drawn
    independently from the normalized residuals.  Row i of ``u`` holds the
    uniforms of its pairs in fixed order (branch, common, fine-residual,
    coarse-residual), so the draw is a pure function of them.  A row's
    overlap, alpha, residuals and CDFs are reduced along the row, and each
    CDF maps the uniforms of the draws of its branch.  The indices are flat,
    as in ``multinomial_indices``.
    """
    if wf.shape != wc.shape:
        raise ValueError("weight vectors must share the ancestor count")
    overlap = np.minimum(wf, wc)
    alpha = overlap.sum(axis=-1, keepdims=True)
    full = 1.0 - alpha < FULL_COUPLING_EPS
    coupled = (u[:, 0] < alpha) | full
    # a row of alpha 0 has no common draw, and a fully coupled row no
    # residual draw: neither is divided by 0, and each CDF is searched for
    # the draws of its branch only.  One buffer holds each CDF in turn
    probs = np.divide(overlap, alpha, out=np.zeros_like(overlap), where=alpha > 0)
    fine = np.empty(coupled.shape, dtype=np.intp)
    fine[coupled] = _inverse_cdf(np.cumsum(probs, axis=-1, out=probs), u[:, 1], coupled)
    coarse = fine.copy()
    rest = ~coupled
    for idx, side, uniforms in ((fine, wf, u[:, 2]), (coarse, wc, u[:, 3])):
        np.subtract(side, overlap, out=probs)
        np.divide(probs, 1.0 - alpha, out=probs, where=~full)
        idx[rest] = _inverse_cdf(np.cumsum(probs, axis=-1, out=probs), uniforms, rest)
    n = wf.shape[1]
    return IndexPairs(_flat(fine, n), _flat(coarse, n), coupled.reshape(-1))


def sorted_coupling_indices(
    wf: np.ndarray,
    wc: np.ndarray,
    fine_states: np.ndarray,
    coarse_states: np.ndarray,
    u: np.ndarray,
) -> IndexPairs:
    """Comonotone coupling for scalar states: shared uniform, per-side
    inverse CDF over the state-sorted weight order.  No theoretical guarantee
    is claimed for this scheme; it is provided as an empirical alternative.
    The weights and states are (k, N) stacks, each row sorted on its own,
    and ``u`` and the indices are as in ``multinomial_indices``.
    """
    if np.shape(fine_states) != wf.shape or np.shape(coarse_states) != wc.shape:
        raise ValueError("sorted coupling needs (k, N) scalar states, one per weight")
    pairs = []
    for side, states in ((wf, fine_states), (wc, coarse_states)):
        order = np.argsort(states, axis=-1, kind="stable")
        cdf = np.cumsum(np.take_along_axis(side, order, -1), axis=-1)
        pairs.append(_flat(np.take_along_axis(order, _inverse_cdf(cdf, u), -1), wf.shape[1]))
    return IndexPairs(*pairs, pairs[0] == pairs[1])
