"""Seed tuples: every replicate of a stacked batch equals its single-seed run exactly."""

import copy

import pytest

from mlpf import streams
from mlpf.bench import parse_config, run_benchmark
from mlpf.filters import MAX_TILE_PARTICLE_STEPS, cpf_run, pf_run
from mlpf.models import BUILTIN_NAMES, builtin_model
from mlpf.multilevel import allocate, mlpf_run
from mlpf.observations import simulate_observations

SEEDS = (0, 5, 123456789, 42)
POLICIES = ("always", "ess_below_half")


@pytest.fixture(scope="module", params=BUILTIN_NAMES)
def model_path(request):
    model = builtin_model(request.param, {})
    return model, simulate_observations("p", model, 3, 7, seed=11)


@pytest.mark.parametrize("policy", POLICIES)
def test_pf_batch_equals_single(model_path, policy):
    model, path = model_path
    batch = pf_run(model, path, 4, 37, ["x", "x2", "one"], seed=SEEDS, resample_policy=policy)
    assert isinstance(batch, tuple) and len(batch) == len(SEEDS)
    for s, out in zip(SEEDS, batch):
        assert out == pf_run(model, path, 4, 37, ["x", "x2", "one"], seed=s,
                             resample_policy=policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("coupling", ("maximal", "sorted", "independent"))
def test_cpf_batch_equals_single(model_path, policy, coupling, request):
    model, path = model_path
    if coupling == "independent":
        request.getfixturevalue("independent_resampling")
        coupling = "maximal"
    kw = dict(resample_policy=policy, coupling=coupling)
    batch = cpf_run(model, path, 4, 29, ["x", "x2"], seed=SEEDS, **kw)
    assert len(batch) == len(SEEDS)
    for s, out in zip(SEEDS, batch):
        assert out == cpf_run(model, path, 4, 29, ["x", "x2"], seed=s, **kw)


@pytest.mark.parametrize("policy", POLICIES)
# report_times None reports at every integer time; the case ids are kept
# stable so that recorded test names still match
@pytest.mark.parametrize("rule,coupling,report_times", [
    pytest.param("mlpf_constant", "maximal", [1, 3], id="mlpf_constant-maximal-inter0"),
    pytest.param("mlpf_nonconstant", "sorted", [2], id="mlpf_nonconstant-sorted-inter1"),
    pytest.param("single_pf", "maximal", None, id="single_pf-maximal-None"),
])
def test_mlpf_batch_equals_single(model_path, policy, rule, coupling, report_times):
    model, path = model_path
    alloc = allocate(rule, 5, 0.5)
    kw = dict(resample_policy=policy, coupling=coupling, report_times=report_times)
    batch = mlpf_run(model, path, alloc, ["x"], seed=SEEDS, **kw)
    assert len(batch) == len(SEEDS)
    for s, out in zip(SEEDS, batch):
        assert out == mlpf_run(model, path, alloc, ["x"], seed=s, **kw)


def test_batch_spans_several_groups():
    """Six replicates of a quarter tile each, stacked in one block of 3072
    rows per interval, which is cut into two tiles drawn ahead."""
    model = builtin_model("ou", {})
    path = simulate_observations("pbar", model, 2, 7, seed=3)
    l = 7
    n = MAX_TILE_PARTICLE_STEPS >> (l + 2)
    seeds = tuple(range(100, 106))
    batch = cpf_run(model, path, l, n, ["x"], seed=seeds, resample_policy="always")
    for s, out in zip(seeds, batch):
        assert out == cpf_run(model, path, l, n, ["x"], seed=s, resample_policy="always")
    batch = pf_run(model, path, l, n, ["x"], seed=seeds)
    for s, out in zip(seeds, batch):
        assert out == pf_run(model, path, l, n, ["x"], seed=s)


def test_benchmark_records_equal_single_seed_runs():
    raw = {
        "model": "gbm", "T": 2, "L_data": 6, "repeats": 3, "paths": 2, "master_seed": 21,
        "data_seed": 8, "truth_level": 5, "truth_n": 200, "output_dir": "unused",
        "estimators": [{"id": "ml", "rule": "mlpf_nonconstant", "L_min": 2, "L_max": 3,
                        "base": 1.0, "resample_policy": "always"}],
    }
    cfg = parse_config(copy.deepcopy(raw))
    records, _ = run_benchmark(cfg)
    model = builtin_model("gbm", {})
    paths = [simulate_observations("pbar", model, 2, 6, seed=8),
             simulate_observations("pbar", model, 2, 6, seed=int(
                 streams.generator(8, streams.TAG_OBS, 1).integers(2 ** 63)))]
    assert len(records) == 2 * 2 * 3
    for rec in records:
        out = mlpf_run(model, paths[rec.repeat // 3], allocate("mlpf_nonconstant", rec.L, 1.0),
                       ["x"], report_times=[2], resample_policy="always", seed=rec.seed)
        assert rec.estimate == out.estimates[(2.0, "x")]
        assert rec.cost_units == out.cost_units
