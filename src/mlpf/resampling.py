"""Weight handling and (coupled) resampling schemes.

Includes the joint index resampler that maximizes the probability of fine
and coarse filters selecting a common ancestor, and an optional comonotone
(sorted inverse-CDF) coupling for scalar states.  Weights pass between
these functions as plain normalized arrays.

Every function also takes a stack of rows, one per replicate of a filter
call, and reduces, sorts, draws and searches each row as it would the row
alone: a sum or cumsum along a contiguous row adds in the order of the 1-D
one, each row's uniforms come from its own generator, and only the inverse
CDF's ``searchsorted`` runs once per row.  So a filter resamples all its
due replicates in one call, with the bytes of one call per replicate.
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


def _stack(w: np.ndarray, rng) -> tuple:
    """Weights as a (k, N) stack and the generators of its rows: one (N,)
    vector is the one-row stack of ``rng``."""
    return (w[None], (rng,)) if w.ndim == 1 else (w, rng)


def _uniforms(rngs, k: int, shape: tuple) -> np.ndarray:
    """(k, *shape) uniforms, row i drawn by one ``random(out=)`` call from
    the i-th generator of ``rngs``, which is taken only after row i-1 is
    drawn; so the generators may be one object, reopened on each step."""
    u = np.empty((k,) + shape)
    rngs = iter(rngs)
    for row in u:
        next(rngs).random(out=row)
    return u


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Row i of the (k, m) uniforms ``u`` mapped through row i of the
    (k, N) running sums ``cdf``, as indices into that row: a (k, m) array,
    or with a (k, m) boolean ``mask``, the 1-D array of the entries it
    selects, in row order.  The last column of ``cdf`` is set to 1.  A
    cumsum along a row adds in the order of the 1-D cumsum, so each row's
    CDF is the one of its probabilities alone."""
    cdf[:, -1] = 1.0
    if mask is None:
        idx = np.empty(u.shape, dtype=np.intp)
        for i, row in enumerate(cdf):  # numpy has no row-batched searchsorted
            idx[i] = np.searchsorted(row, u[i], side="right")
    else:
        queries = u[mask]
        idx = np.empty(queries.shape, dtype=np.intp)
        ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
        for row, a, b in zip(cdf, [0] + ends, ends):
            if a < b:
                idx[a:b] = np.searchsorted(row, queries[a:b], side="right")
    return np.minimum(idx, cdf.shape[1] - 1, out=idx)  # never below 0


def _flat(idx: np.ndarray, n: int, one_row: bool) -> np.ndarray:
    """(k, m) row indices into a (k, N) stack as flat indices into its k*N
    rows; for a one-row stack given as an (N,) vector, the (m,) row."""
    if one_row:
        return idx[0]
    idx += np.arange(0, idx.shape[0] * n, n)[:, None]
    return idx.reshape(-1)


def multinomial_indices(w: np.ndarray, n_draws: int, rng) -> np.ndarray:
    """i.i.d. categorical draws from the normalized weights ``w`` via
    inverse CDF on uniforms.

    ``w`` is one (N,) vector with its generator ``rng``, giving (n_draws,)
    indices, or a (k, N) stack with an iterable ``rng`` of one generator per
    row (see ``_uniforms``), giving (k*n_draws,) indices into the stack's
    flattened k*N rows, row i's draws first; each row's draws equal those
    of its vector alone.
    """
    stack, rngs = _stack(w, rng)
    u = _uniforms(rngs, len(stack), (n_draws,))
    return _flat(_inverse_cdf(np.cumsum(stack, axis=-1), u), stack.shape[1], w.ndim == 1)


def maximal_coupling_indices(wf: np.ndarray, wc: np.ndarray, n_draws: int, rng) -> IndexPairs:
    """Draw ``n_draws`` index pairs from the maximal coupling of two
    normalized weight vectors.

    Per pair: with probability alpha = sum_i min(wf_i, wc_i) a common index
    is drawn from min(wf, wc)/alpha; otherwise fine and coarse are drawn
    independently from the normalized residuals.  The uniform stream is
    consumed in fixed order (branch, common, fine-residual, coarse-residual),
    so the draw is a pure function of the rng state.  ``wf`` and ``wc`` may
    be (k, N) stacks, with ``rng`` and the indices as in
    ``multinomial_indices``.  A row's overlap, alpha, residuals and CDFs
    are reduced along the row, as for its vectors alone, and each CDF maps
    the uniforms of the draws of its branch.
    """
    if wf.shape != wc.shape:
        raise ValueError("weight vectors must share the ancestor count")
    (sf, rngs), (sc, _) = _stack(wf, rng), _stack(wc, None)
    overlap = np.minimum(sf, sc)
    alpha = overlap.sum(axis=-1, keepdims=True)
    u = _uniforms(rngs, len(sf), (4, n_draws))
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
    for idx, side, uniforms in ((fine, sf, u[:, 2]), (coarse, sc, u[:, 3])):
        np.subtract(side, overlap, out=probs)
        np.divide(probs, 1.0 - alpha, out=probs, where=~full)
        idx[rest] = _inverse_cdf(np.cumsum(probs, axis=-1, out=probs), uniforms, rest)
    one_row, n = wf.ndim == 1, sf.shape[1]
    return IndexPairs(_flat(fine, n, one_row), _flat(coarse, n, one_row),
                      coupled[0] if one_row else coupled.reshape(-1))


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
    The weights and states may be (k, N) stacks, with ``rng`` and the
    indices as in ``multinomial_indices``; each row is sorted on its own.
    """
    if np.shape(fine_states) != wf.shape or np.shape(coarse_states) != wc.shape:
        raise ValueError("sorted coupling needs (N,) scalar states, one per weight")
    (sf, rngs), (sc, _) = _stack(wf, rng), _stack(wc, None)
    order_f = np.argsort(np.reshape(fine_states, sf.shape), axis=-1, kind="stable")
    order_c = np.argsort(np.reshape(coarse_states, sc.shape), axis=-1, kind="stable")
    u = _uniforms(rngs, len(sf), (n_draws,))
    pairs = []
    for side, order in ((sf, order_f), (sc, order_c)):
        cdf = np.cumsum(np.take_along_axis(side, order, -1), axis=-1)
        pairs.append(_flat(np.take_along_axis(order, _inverse_cdf(cdf, u), -1), sf.shape[1],
                           wf.ndim == 1))
    return IndexPairs(*pairs, pairs[0] == pairs[1])
