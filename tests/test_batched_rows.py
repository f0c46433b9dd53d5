"""The batched forms of a filter interval's bookkeeping, one pass over a
(k, N) stack of rows, and the Euler kernel's blocks of steps give the bytes
of plain references that take one row, or one step, at a time."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpf import streams
from mlpf.euler import BLOCK_PARTICLE_STEPS, NonFiniteStateError, propagate_unit
from mlpf.filters import _weighted, cpf_run, pf_run
from mlpf.models import ModelSpec, builtin_model
from mlpf.observations import simulate_observations
from mlpf.resampling import (
    FULL_COUPLING_EPS,
    log_mean_weight,
    maximal_coupling_indices,
    multinomial_indices,
    normalize_log_weights,
    sorted_coupling_indices,
)

# one-row references, in the plain form of one (N,) vector and one generator


def ref_inverse_cdf(probs, u):
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, u, side="right"), probs.size - 1)


def ref_log_mean_weight(lw):
    i = int(np.argmax(lw))
    top = lw[i]
    if not np.isfinite(top):
        return float(top)
    rest = np.exp(lw - top)
    rest[i] = 0.0
    return float(np.log1p(rest.sum()) + top - np.log(lw.size))


def ref_multinomial(w, n, rng):
    return ref_inverse_cdf(w, rng.random(n))


def ref_maximal(wf, wc, n, rng):
    overlap = np.minimum(wf, wc)
    alpha = float(overlap.sum())
    u_branch, u_common, u_fine, u_coarse = (rng.random(n) for _ in range(4))
    if 1.0 - alpha < FULL_COUPLING_EPS:
        idx = ref_inverse_cdf(overlap / alpha, u_common)
        return idx, idx.copy(), np.ones(n, dtype=bool)
    coupled = u_branch < alpha
    fine = np.empty(n, dtype=np.int64)
    coarse = np.empty(n, dtype=np.int64)
    if np.any(coupled):
        fine[coupled] = coarse[coupled] = ref_inverse_cdf(overlap / alpha, u_common[coupled])
    rest = ~coupled
    if np.any(rest):
        fine[rest] = ref_inverse_cdf((wf - overlap) / (1.0 - alpha), u_fine[rest])
        coarse[rest] = ref_inverse_cdf((wc - overlap) / (1.0 - alpha), u_coarse[rest])
    return fine, coarse, coupled


def ref_sorted(wf, wc, xf, xc, n, rng):
    order_f, order_c = np.argsort(xf, kind="stable"), np.argsort(xc, kind="stable")
    u = rng.random(n)
    fine = order_f[ref_inverse_cdf(wf[order_f], u)]
    coarse = order_c[ref_inverse_cdf(wc[order_c], u)]
    return fine, coarse, fine == coarse


def ref_weighted(lw, states, phi):
    w = np.exp(lw - np.max(lw))
    vals = phi(states)
    return float((w @ vals) / (w @ np.ones_like(vals)))


def same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# rows of (fine, coarse) log-weights, each of one kind
ROW_KINDS = ("spread", "zeros", "full", "disjoint", "near")


@st.composite
def weight_stacks(draw):
    """(fine, coarse) log-weight stacks of k rows of N, each row of a kind:
    spread weights, weights with zeros (-inf), identical rows (full
    coupling), disjoint supports (alpha 0), or nearly equal rows."""
    n = draw(st.sampled_from([1, 2, 46, 1723]))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    lwf = rng.normal(0.0, scale, (len(kinds), n))
    lwc = lwf + rng.normal(0.0, scale, lwf.shape)
    for i, kind in enumerate(kinds):
        if kind == "zeros":
            zero = rng.random(n) < 0.4
            zero[rng.integers(n)] = False
            lwf[i, zero] = -np.inf
            lwc[i, zero[::-1]] = -np.inf
            lwc[i, rng.integers(n)] = 0.0
        elif kind == "full" or (kind == "disjoint" and n == 1):
            lwc[i] = lwf[i]
        elif kind == "disjoint":
            lwf[i, n // 2:] = -np.inf
            lwc[i, :n // 2] = -np.inf
        elif kind == "near":
            lwc[i] = lwf[i] + 1e-12 * rng.standard_normal(n)
    return lwf, lwc, kinds


def row_seeds(k, salt=0):
    return [1000 * salt + i for i in range(k)]


def reopened(seeds, *shape):
    """The (k, *shape) uniforms of a batched call, as the filters draw them:
    row i by one ``random(out=)`` call from row i's stream, on one generator
    reset to each row's stream in turn."""
    keys = streams.stream_keys(np.array(seeds, dtype=np.uint64), streams.TAG_RESAMPLE, 3, 0)
    u = np.empty((len(seeds),) + shape)
    stream = None
    for key, row in zip(keys, u):
        stream = streams.open_stream(key, stream)
        stream.random(out=row)
    return u


def alone(seed):
    return streams.open_stream(streams.stream_keys(seed, streams.TAG_RESAMPLE, 3, 0))


def stacked(parts, n):
    """Row references as the flat stack indices of a batched call."""
    return np.concatenate([p + i * n for i, p in enumerate(parts)])


PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(weight_stacks())
def test_maximal_coupling_rows(stack):
    lwf, lwc, kinds = stack
    wf, wc = normalize_log_weights(lwf), normalize_log_weights(lwc)
    k, n = wf.shape
    seeds = row_seeds(k)
    pairs = maximal_coupling_indices(wf, wc, reopened(seeds, 4, n))
    refs = [ref_maximal(wf[i].copy(), wc[i].copy(), n, alone(s)) for i, s in enumerate(seeds)]
    assert np.array_equal(pairs.fine, stacked([r[0] for r in refs], n))
    assert np.array_equal(pairs.coarse, stacked([r[1] for r in refs], n))
    assert np.array_equal(pairs.coupled, np.concatenate([r[2] for r in refs]))
    for i, kind in enumerate(kinds):
        rows = slice(i * n, (i + 1) * n)
        if kind == "full":
            assert pairs.coupled[rows].all()
        elif kind == "disjoint" and n > 1:
            assert not pairs.coupled[rows].any()


@PROPERTY
@given(weight_stacks())
def test_multinomial_and_sorted_coupling_rows(stack):
    lwf, lwc, _ = stack
    wf, wc = normalize_log_weights(lwf), normalize_log_weights(lwc)
    k, n = wf.shape
    seeds = row_seeds(k, 1)
    got = multinomial_indices(wf, reopened(seeds, n))
    assert np.array_equal(got, stacked([ref_multinomial(wf[i].copy(), n, alone(s))
                                        for i, s in enumerate(seeds)], n))
    # states with ties, so the stable order matters
    xf = np.round(np.random.default_rng(n).normal(size=wf.shape), 1)
    xc = xf[:, ::-1].copy()
    pairs = sorted_coupling_indices(wf, wc, xf, xc, reopened(seeds, n))
    refs = [ref_sorted(wf[i].copy(), wc[i].copy(), xf[i].copy(), xc[i].copy(), n, alone(s))
            for i, s in enumerate(seeds)]
    assert np.array_equal(pairs.fine, stacked([r[0] for r in refs], n))
    assert np.array_equal(pairs.coarse, stacked([r[1] for r in refs], n))
    assert np.array_equal(pairs.coupled, np.concatenate([r[2] for r in refs]))


@PROPERTY
@given(weight_stacks(), st.lists(st.sampled_from(["finite", "-inf", "nan", "inf"]),
                                 min_size=1, max_size=4))
def test_log_mean_weight_and_weighted_estimate_rows(stack, faults):
    lwf, _, _ = stack
    lw = np.concatenate([lwf, np.zeros((len(faults), lwf.shape[1]))])
    for i, fault in enumerate(faults, len(lwf)):
        lw[i] = np.random.default_rng(i).normal(size=lw.shape[1])
        if fault == "-inf":
            lw[i] = -np.inf
        elif fault != "finite":
            lw[i, i % lw.shape[1]] = np.nan if fault == "nan" else np.inf
    got = log_mean_weight(lw)
    assert got.shape == (len(lw),)
    for i, row in enumerate(lw):
        assert same_bytes(got[i], ref_log_mean_weight(row.copy()))
    # a (chains, k, N) stack gives a (chains, k) array
    assert same_bytes(log_mean_weight(np.stack([lwf, lwf])), np.stack([log_mean_weight(lwf)] * 2))
    states = np.random.default_rng(7).normal(size=lwf.shape)
    phis = {"x": lambda x: x, "x2": lambda x: x ** 2, "one": lambda x: np.ones(x.shape[0])}
    into = [{} for _ in lwf]
    _weighted(lwf, states, phis, 1, into)
    for i, estimates in enumerate(into):
        for fid, phi in phis.items():
            assert same_bytes(estimates[(1.0, fid)], ref_weighted(lwf[i].copy(),
                                                                  states[i].copy(), phi))


GBM = builtin_model("gbm", {})
PATH = simulate_observations("p", GBM, 6, 5, seed=11)


def runner(n, l, coupling):
    if coupling is None:
        return lambda seed: pf_run(GBM, PATH, l, n, ["x", "x2"], seed=seed)
    return lambda seed: cpf_run(GBM, PATH, l, n, ["x", "x2"], seed=seed, coupling=coupling)


@pytest.mark.parametrize("coupling", [None, "maximal", "sorted"])
def test_resampled_subsets_with_gaps_equal_single_runs(coupling):
    """Under ``ess_below_half`` some interval resamples a subset of the
    replicates that is not a run from the first one, so its stack rows move
    to other replicates' rows; each replicate still gets the bytes of its
    single-seed run."""
    run, seeds = runner(5, 1, coupling), tuple(range(6))
    outs = run(seeds)
    due = [[r for r, out in enumerate(outs) if t in out.diagnostics.resample_times]
           for t in map(float, range(1, PATH.T + 1))]
    assert any(reps and reps != list(range(len(reps))) for reps in due), due
    assert outs == tuple(run(s) for s in seeds)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([1, 2, 5, 46]), st.integers(1, 5),
       st.lists(st.integers(0, 2 ** 64 - 1), min_size=2, max_size=4, unique=True),
       st.sampled_from([None, "maximal", "sorted"]))
def test_ess_gated_subsets_equal_single_runs(n, l, seeds, coupling):
    run = runner(n, l, coupling)
    assert run(tuple(seeds)) == tuple(run(s) for s in seeds)


# the block kernel against a plain loop of one step at a time


def ref_propagate(model, l, x0, obs, noise):
    delta = 2.0 ** -l
    x, log_g = x0, np.zeros(x0.shape[0])
    for k in range(1 << l):
        h = model.observation(x)
        log_g = log_g + (h * float(obs[k]) - 0.5 * delta * (h * h))
        x = x + model.drift(x) * delta + model.diffusion(x) * noise[:, k]
    return x, log_g


KERNEL_MODELS = {
    "gbm": GBM,
    "ou": builtin_model("ou", {}),
    "sin": ModelSpec(name="sin", drift=lambda x: -0.5 * x, diffusion=lambda x: 0.3 + 0.1 * np.cos(x),
                     observation=np.sin, x_star=0.4),
}


def block_cases():
    """(l, n): every level 0..10 with the rows for blocks of steps - 1,
    steps and steps + 1 steps, and rows about the block bound and about 256,
    at a few levels."""
    cases = set()
    for l in range(11):
        for k in (1 << l) - 1, 1 << l, (1 << l) + 1:
            if k >= 1:
                cases.add((l, max(1, BLOCK_PARTICLE_STEPS // k)))
    for l in (0, 3, 6):
        for edge in BLOCK_PARTICLE_STEPS, 256:
            cases.update((l, edge + d) for d in (-1, 0, 1))
    return sorted(cases)


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
@pytest.mark.parametrize("l,n", block_cases())
def test_block_kernel_equals_one_step_at_a_time(name, l, n):
    model = KERNEL_MODELS[name]
    rng = np.random.default_rng([l, n])
    x0 = model.x_star + 0.3 * rng.standard_normal(n)
    obs = 0.2 * rng.standard_normal(1 << l)
    noise = np.sqrt(2.0 ** -l) * rng.standard_normal((n, 1 << l))
    prop = propagate_unit(model, l, x0, obs, noise)
    endpoint, log_g = ref_propagate(model, l, x0, obs, noise)
    assert np.array_equal(prop.endpoint, endpoint)
    assert np.array_equal(prop.log_g_total, log_g)


@pytest.mark.parametrize("n,step", [(4, 20), (BLOCK_PARTICLE_STEPS // 8, 19),
                                    (BLOCK_PARTICLE_STEPS + 1, 33)])
def test_overflow_mid_block_raises_naming_its_row(n, step):
    """A state that turns infinite in the middle of a block of steps still
    raises at the endpoint check, naming the first particle that did."""
    l = 6
    model = ModelSpec(name="blow_up", drift=lambda x: np.where(x > 1.0, np.inf, 0.0),
                      diffusion=lambda x: np.ones(np.shape(x)), observation=lambda x: x,
                      x_star=0.0, sigma=1.0)
    noise = np.zeros((n, 1 << l))
    noise[[n // 2, n - 1], step] = 2.0
    with pytest.raises(NonFiniteStateError) as err:
        propagate_unit(model, l, np.zeros(n), np.zeros(1 << l), noise)
    assert err.value.row == n // 2
