import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp
from scipy.stats import chisquare

from mlpf.resampling import (
    FULL_COUPLING_EPS,
    DegenerateWeightsError,
    IndexPairs,
    ess,
    log_mean_weight,
    maximal_coupling_indices,
    multinomial_indices,
    normalize_log_weights,
    sorted_coupling_indices,
)


def one_pair(branch, common, fine, coarse):
    """The (1, 4, 1) uniforms of one maximal-coupling pair, in the order the
    sampler reads them."""
    return np.reshape([branch, common, fine, coarse], (1, 4, 1))


def wv(weights):
    w = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore"):
        return normalize_log_weights(np.log(w))


class TestNormalize:
    def test_uniform(self):
        v = normalize_log_weights(np.full(7, -3.2))
        assert np.allclose(v, 1 / 7, atol=1e-15)

    def test_support_collapse(self):
        v = normalize_log_weights(np.array([0.0, -np.inf]))
        assert np.array_equal(v, [1.0, 0.0])

    def test_direct_arithmetic(self):
        v = normalize_log_weights(np.log([2.0, 1.0, 1.0]))
        assert np.allclose(v, [0.5, 0.25, 0.25], atol=1e-15)

    def test_all_neg_inf_raises(self):
        with pytest.raises(DegenerateWeightsError):
            normalize_log_weights(np.array([-np.inf, -np.inf]))

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=20), st.floats(-100, 100))
    def test_shift_invariance(self, lws, c):
        a = normalize_log_weights(np.array(lws))
        b = normalize_log_weights(np.array(lws) + c)
        assert np.allclose(a, b, atol=1e-12)
        assert abs(a.sum() - 1.0) < 1e-12


class TestLogMeanWeight:
    def test_matches_scipy_logsumexp(self):
        rng = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        for i in range(600):
            n = int(rng.integers(1, 300))
            lw = rng.normal(0.0, [0.1, 1.0, 10.0, 300.0][i % 4], n) + rng.normal(0.0, 50.0)
            ref = float(logsumexp(lw) - np.log(n))
            assert abs(log_mean_weight(lw) - ref) <= 8 * eps * max(1.0, abs(ref))

    def test_edge_values(self):
        assert log_mean_weight(np.array([-3.5])) == -3.5
        assert log_mean_weight(np.zeros(50)) == 0.0
        assert log_mean_weight(np.array([-np.inf, -np.inf])) == -np.inf
        assert log_mean_weight(np.array([0.0, -np.inf])) == pytest.approx(-np.log(2.0))
        assert np.isnan(log_mean_weight(np.array([0.0, np.nan])))


class TestIndexPairs:
    def test_consistent_pairs_accepted(self):
        pairs = IndexPairs(np.array([0, 1, 2]), np.array([0, 2, 2]), np.array([True, False, True]))
        assert pairs.coupled.sum() == 2

    def test_coupled_pair_with_different_indices_rejected(self):
        with pytest.raises(ValueError, match="coupled pairs"):
            IndexPairs(np.array([0, 1]), np.array([0, 2]), np.array([True, True]))


class TestEss:
    def test_uniform(self):
        assert ess(wv(np.ones(13))) == pytest.approx(13.0)

    def test_atom(self):
        assert ess(wv([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_hand_value(self):
        assert ess(wv([0.5, 0.25, 0.25])) == pytest.approx(1 / 0.375)


class TestMultinomial:
    def test_degenerate(self):
        idx = multinomial_indices(wv([1.0, 0, 0, 0])[None], np.random.default_rng(0).random((1, 50)))
        assert np.all(idx == 0)

    def test_inverse_cdf_walkthrough(self):
        idx = multinomial_indices(wv([0.7, 0.3])[None], np.array([[0.65, 0.75]]))
        assert list(idx) == [0, 1]

    def test_frequencies(self):
        n = 8
        draws = 100_000
        idx = multinomial_indices(wv(np.ones(n))[None], np.random.default_rng(42).random((1, draws)))
        freq = np.bincount(idx, minlength=n) / draws
        se = np.sqrt((1 / n) * (1 - 1 / n) / draws)
        assert np.all(np.abs(freq - 1 / n) < 5 * se)


class TestMaximalCouplingPmf:
    def test_identical_halves(self):
        pmf = maximal_coupling_pmf(wv([0.5, 0.5]), wv([0.5, 0.5]))
        assert np.allclose(pmf, np.eye(2) / 2, atol=1e-15)

    def test_hand_enumeration(self):
        pmf = maximal_coupling_pmf(wv([0.7, 0.3]), wv([0.4, 0.6]))
        assert np.allclose(pmf, [[0.4, 0.3], [0.0, 0.3]], atol=1e-12)

    @given(st.lists(st.floats(0.01, 1), min_size=2, max_size=8),
           st.lists(st.floats(0.01, 1), min_size=2, max_size=8))
    def test_marginals(self, a, b):
        n = min(len(a), len(b))
        wf, wc = wv(a[:n]), wv(b[:n])
        pmf = maximal_coupling_pmf(wf, wc)
        assert np.allclose(pmf.sum(axis=1), wf, atol=1e-12)
        assert np.allclose(pmf.sum(axis=0), wc, atol=1e-12)
        coupled_mass = np.trace(np.diag(np.minimum(wf, wc)))
        assert pmf.trace() >= coupled_mass - 1e-12


class TestMaximalCouplingSampler:
    def test_identical_weights_fully_coupled(self):
        pairs = maximal_coupling_indices(wv([0.2, 0.8])[None], wv([0.2, 0.8])[None],
                                         np.random.default_rng(1).random((1, 4, 100)))
        assert np.all(pairs.coupled)
        assert np.array_equal(pairs.fine, pairs.coarse)

    def test_disjoint_supports(self):
        pairs = maximal_coupling_indices(wv([1.0, 0.0])[None], wv([0.0, 1.0])[None],
                                         np.random.default_rng(2).random((1, 4, 64)))
        assert not np.any(pairs.coupled)
        assert np.all(pairs.fine == 0) and np.all(pairs.coarse == 1)

    def test_joint_pmf_hand_case(self):
        wf, wc = wv([0.7, 0.3]), wv([0.4, 0.6])
        u = np.random.default_rng(7).random((1, 4, 200_000))
        pairs = maximal_coupling_indices(wf[None], wc[None], u)
        counts = np.zeros((2, 2))
        np.add.at(counts, (pairs.fine, pairs.coarse), 1)
        assert np.allclose(counts / 200_000, [[0.4, 0.3], [0.0, 0.3]], atol=0.01)
        assert abs(np.mean(pairs.coupled) - 0.7) < 0.01

    def test_stub_enumeration_matches_pmf(self):
        wf, wc = wv([0.7, 0.3]), wv([0.4, 0.6])
        law = enumerate_sampler_law(wf, wc)
        assert np.allclose(law, maximal_coupling_pmf(wf, wc), atol=1e-12)

    def test_chi_square_against_pmf(self):
        wf, wc = wv([0.5, 0.2, 0.3]), wv([0.1, 0.6, 0.3])
        pmf = maximal_coupling_pmf(wf, wc)
        draws = 100_000
        pairs = maximal_coupling_indices(wf[None], wc[None],
                                         np.random.default_rng(11).random((1, 4, draws)))
        counts = np.zeros((3, 3))
        np.add.at(counts, (pairs.fine, pairs.coarse), 1)
        mask = pmf.flatten() > 0
        stat, pval = chisquare(counts.flatten()[mask], draws * pmf.flatten()[mask])
        assert pval > 1e-3


def maximal_coupling_pmf(wf: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """Exact N x N joint law of one maximal-coupling index pair."""
    overlap = np.minimum(wf, wc)
    alpha = float(overlap.sum())
    joint = np.diag(overlap)
    if 1.0 - alpha >= FULL_COUPLING_EPS:
        res_f = (wf - overlap) / (1.0 - alpha)
        res_c = (wc - overlap) / (1.0 - alpha)
        joint = joint + (1.0 - alpha) * np.outer(res_f, res_c)
    return joint


def enumerate_sampler_law(wf: np.ndarray, wc: np.ndarray) -> np.ndarray:
    """Drive the sampler through every branch/index cell of its uniform input
    space and accumulate each outcome weighted by the cell probability."""
    n = wf.size
    overlap = np.minimum(wf, wc)
    alpha = overlap.sum()
    law = np.zeros((n, n))

    def cells(probs):
        edges = np.concatenate([[0.0], np.cumsum(probs)])
        for i in range(len(probs)):
            if probs[i] > 0:
                yield i, (edges[i] + edges[i + 1]) / 2, probs[i]

    if 1.0 - alpha < 1e-14:
        for i, u, pr in cells(overlap / alpha):
            pairs = maximal_coupling_indices(wf[None], wc[None], one_pair(0.0, u, 0.5, 0.5))
            law[pairs.fine[0], pairs.coarse[0]] += pr
        return law
    res_f = (wf - overlap) / (1 - alpha)
    res_c = (wc - overlap) / (1 - alpha)
    if alpha > 0:
        for i, u, pr in cells(overlap / alpha):
            pairs = maximal_coupling_indices(wf[None], wc[None], one_pair(alpha / 2, u, 0.5, 0.5))
            assert pairs.coupled[0]
            law[pairs.fine[0], pairs.coarse[0]] += alpha * pr
    for i, uf, pf in cells(res_f):
        for j, uc, pc in cells(res_c):
            u_branch = (1 + alpha) / 2
            pairs = maximal_coupling_indices(wf[None], wc[None], one_pair(u_branch, 0.5, uf, uc))
            assert not pairs.coupled[0]
            law[pairs.fine[0], pairs.coarse[0]] += (1 - alpha) * pf * pc
    return law


class TestSortedCoupling:
    def test_identical_ensembles(self):
        states = np.array([[0.3, -1.0, 2.0, 0.9]])
        weights = wv([0.1, 0.4, 0.2, 0.3])[None]
        for u in [0.05, 0.3, 0.6, 0.95]:
            a = sorted_coupling_indices(weights, weights, states, states, np.array([[u]]))
            assert a.fine[0] == a.coarse[0]

    def test_comonotone_pick_of_larger_state(self):
        states = np.array([[5.0, 1.0]])
        weights = wv([0.5, 0.5])[None]
        pairs = sorted_coupling_indices(weights, weights, states, states, np.array([[0.9]]))
        assert pairs.fine[0] == 0  # index of the larger state

    def test_marginals_monte_carlo(self):
        wf, wc = wv([0.5, 0.3, 0.2]), wv([0.2, 0.2, 0.6])
        sf = np.array([[0.0, 1.0, 2.0]])
        sc = np.array([[2.0, 0.0, 1.0]])
        draws = 100_000
        u = np.random.default_rng(5).random((1, draws))
        pairs = sorted_coupling_indices(wf[None], wc[None], sf, sc, u)
        for target, idx in ((wf, pairs.fine), (wc, pairs.coarse)):
            freq = np.bincount(idx, minlength=3) / draws
            se = np.sqrt(target * (1 - target) / draws)
            assert np.all(np.abs(freq - target) < 5 * np.maximum(se, 1e-4))

    def test_rejects_vector_states(self):
        w = wv([0.5, 0.5])[None]
        with pytest.raises(ValueError):
            sorted_coupling_indices(w, w, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)),
                                    np.random.default_rng(0).random((1, 2)))


class TestGroupReduction:
    """An (R, N) stack of log-weights is reduced row by row, each row bit-equal
    to the 1-D reduction of its own weights."""

    @pytest.mark.parametrize("r", [1, 3, 20])
    @pytest.mark.parametrize("n", [2, 127, 128, 129, 8191, 8192, 8193, 51200])
    def test_rows_equal_one_dimensional(self, n, r):
        rng = np.random.default_rng([n, r])
        lw = rng.normal(0.0, 4.0, (r, n)) + rng.normal(0.0, 50.0, (r, 1))
        lw[:, ::17] = -np.inf  # particles with zero weight in every row
        lw[:, 1] = 0.0  # and a finite maximum in every row
        group = normalize_log_weights(lw)
        group_ess = ess(group)
        assert group.shape == (r, n)
        assert group_ess.shape == (r,)
        for i in range(r):
            alone = normalize_log_weights(lw[i].copy())
            assert np.array_equal(group[i], alone)
            assert group_ess[i] == ess(alone)
        assert type(ess(normalize_log_weights(lw[0]))) is float

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_one_degenerate_row_raises(self, bad):
        lw = np.zeros((3, 5))
        lw[1] = bad
        with pytest.raises(DegenerateWeightsError):
            normalize_log_weights(lw)

    def test_shape_is_checked(self):
        for lw in (np.zeros((2, 0)), np.zeros((2, 3, 4)), np.zeros(0)):
            with pytest.raises(ValueError, match="non-empty"):
                normalize_log_weights(lw)

    def test_row_draws_equal_one_dimensional(self):
        lw = np.random.default_rng(8).normal(size=(4, 30))
        group = normalize_log_weights(lw)
        u = np.stack([np.random.default_rng(i).random(30) for i in range(4)])
        idx = multinomial_indices(group, u).reshape(4, 30)
        for i in range(4):
            alone = normalize_log_weights(lw[i])
            assert np.array_equal(idx[i] - 30 * i, multinomial_indices(alone[None], u[i:i + 1]))
