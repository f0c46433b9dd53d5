import copy
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlpf import bench
from mlpf.bench import (
    BenchmarkConfig,
    ConfigError,
    EstimatorConfig,
    _seed_slices,
    emit_outputs,
    fit_slope,
    parse_config,
    records_csv,
    render_svg,
    run_benchmark,
    summary_csv,
)

BASE_CONFIG = {
    "model": "ou",
    "T": 2,
    "L_data": 5,
    "repeats": 3,
    "master_seed": 12,
    "output_dir": "out",
    "data_seed": 4,
    "estimators": [
        {"id": "ml", "rule": "mlpf_constant", "L_min": 1, "L_max": 3, "base": 4.0},
        {"id": "pf", "rule": "single_pf", "L_min": 1, "L_max": 3, "base": 20.0},
    ],
}


def make_config(**overrides):
    raw = copy.deepcopy(BASE_CONFIG)
    raw.update(overrides)
    return parse_config(raw)


class TestParseConfig:
    def test_roundtrip_defaults(self):
        cfg = make_config()
        assert cfg.functionals == ("x",)
        assert cfg.workers == 1
        assert cfg.truth_level is None

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda r: r.update(bogus=1), "bogus"),
        (lambda r: r.pop("model"), "model"),
        (lambda r: r.update(repeats=1), "repeats"),
        (lambda r: r.update(estimators=[]), "estimators"),
        (lambda r: r["estimators"][0].update(rule="nope"), "estimators[0]"),
        (lambda r: r["estimators"][0].update(L_max=9), "L_data"),
        (lambda r: r["estimators"][1].update(L_min=5, L_max=2), "estimators[1]"),
        (lambda r: r["estimators"][0].update(coupling="odd"), "coupling"),
        (lambda r: r.update(truth_level=7), "truth_level"),
        (lambda r: r.update(paths=0), "paths"),
        (lambda r: r.update(truth_level="3"), "config.truth_level"),
        (lambda r: r.update(data_mode="bogus"), "data_mode"),
        pytest.param(lambda r: r.update(T=2.5), "config.T", id="T-float"),
        pytest.param(lambda r: r.update(T="3"), "config.T", id="T-string"),
        pytest.param(lambda r: r.update(L_data=5.9), "config.L_data", id="L_data-float"),
        pytest.param(lambda r: r["estimators"][0].update(L_min=1.5),
                     "config.estimators[0].L_min", id="L_min-float"),
        pytest.param(lambda r: r.update(functionals=[]), "config.functionals",
                     id="functionals-empty"),
        pytest.param(lambda r: r.update(functionals="x2"), "config.functionals",
                     id="functionals-string"),
        pytest.param(lambda r: r.update(functionals=["x", "nope"]), "config.functionals",
                     id="functionals-unknown"),
        pytest.param(lambda r: r.update(model_params=[1]), "config.model_params",
                     id="model_params-list"),
        pytest.param(lambda r: r["estimators"][1].update(id="ml"), "config.estimators[1].id",
                     id="estimator-id-duplicate"),
        pytest.param(lambda r: r["estimators"][0].update(id=[1]), "config.estimators[0].id",
                     id="id-list"),
        pytest.param(lambda r: r["estimators"][0].update(id=None), "config.estimators[0].id",
                     id="id-null"),
        pytest.param(lambda r: r["estimators"][1].update(id=3), "config.estimators[1].id",
                     id="id-int"),
        pytest.param(lambda r: r["estimators"][0].update(id=""), "config.estimators[0].id",
                     id="id-empty"),
        pytest.param(lambda r: r.update(model_params={"sigma": [1]}), "config.model_params.sigma",
                     id="model_params-sigma-list"),
        pytest.param(lambda r: r.update(model_params={"theta": "1"}), "config.model_params.theta",
                     id="model_params-theta-string"),
        pytest.param(lambda r: r.update(model_params={"sigma": -1.0}), "config.model_params.sigma",
                     id="model_params-sigma-negative"),
        pytest.param(lambda r: r.update(model_params={"x_star": float("nan")}),
                     "config.model_params.x_star", id="model_params-x_star-nan"),
        pytest.param(lambda r: r.update(model_params={"rho": 1.0}), "config.model_params: unknown",
                     id="model_params-unknown-key"),
        pytest.param(lambda r: r.update(model="cir"), "config.model: unknown model",
                     id="model-unknown"),
        pytest.param(lambda r: r.update(wall_time_in_csv="no"), "wall_time_in_csv",
                     id="wall_time_in_csv-removed"),
        pytest.param(lambda r: r["estimators"][0].update(base=[1]), "config.estimators[0].base",
                     id="base-list"),
        pytest.param(lambda r: r["estimators"][0].update(base=None), "config.estimators[0].base",
                     id="base-null"),
        pytest.param(lambda r: r["estimators"][0].update(base=float("inf")),
                     "config.estimators[0].base", id="base-infinity"),
        pytest.param(lambda r: r["estimators"][0].update(base=float("nan")),
                     "config.estimators[0].base", id="base-nan"),
        pytest.param(lambda r: r["estimators"][0].update(base="abc"), "config.estimators[0].base",
                     id="base-string"),
        pytest.param(lambda r: r["estimators"][0].update(base=0), "config.estimators[0].base",
                     id="base-zero"),
        pytest.param(lambda r: r["estimators"][1].update(base=True), "config.estimators[1].base",
                     id="base-bool"),
        pytest.param(lambda r: r["estimators"][0].update(base=10 ** 400),
                     "config.estimators[0].base", id="base-huge-int"),
        pytest.param(lambda r: r["estimators"][1].update(base=1e308),
                     "config.estimators[1]: base 1e+308", id="base-count-overflow"),
        pytest.param(lambda r: r["estimators"][0].update(base=1e300),
                     "config.estimators[0]: base 1e+300", id="base-count-above-any-array"),
        pytest.param(lambda r: r["estimators"][1].update(base=1e17),
                     "config.estimators[1]: base 1e+17", id="base-count-1e17"),
        pytest.param(lambda r: r["estimators"][1].update(base=1e14),
                     "config.estimators[1]: base 1e+14 gives a filter call at L=",
                     id="base-beyond-physical-memory"),
        pytest.param(lambda r: r["estimators"][0].update(L_max=0, L_min=0, base=1e14),
                     "config.estimators[0]: base 1e+14 gives a filter call at L=0",
                     id="base-beyond-physical-memory-L0"),
        pytest.param(lambda r: r.update(truth_level=-1), "config.truth_level",
                     id="truth_level-negative"),
        pytest.param(lambda r: r.update(master_seed=-1), "config.master_seed",
                     id="master_seed-negative"),
        pytest.param(lambda r: r.update(data_seed=-1), "config.data_seed",
                     id="data_seed-negative"),
        pytest.param(lambda r: r.update(master_seed=2 ** 64), "config.master_seed: must be < 2**64",
                     id="master_seed-2**64"),
        pytest.param(lambda r: r.update(data_seed=2 ** 64), "config.data_seed: must be < 2**64",
                     id="data_seed-2**64"),
        pytest.param(lambda r: r.update(workers=0), "config.workers", id="workers-zero"),
        pytest.param(lambda r: r.update(workers=-3), "config.workers", id="workers-negative"),
        pytest.param(lambda r: r.update(truth_n=0), "config.truth_n", id="truth_n-zero"),
        pytest.param(lambda r: r.update(output_dir=[1]), "config.output_dir",
                     id="output_dir-list"),
        pytest.param(lambda r: r.update(model_params={"sigma": 10 ** 400}),
                     "config.model_params.sigma", id="model_params-sigma-huge-int"),
    ])
    def test_rejections_name_the_field(self, mutate, fragment):
        raw = copy.deepcopy(BASE_CONFIG)
        mutate(raw)
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
        assert fragment in str(e.value)

    def test_not_a_dict(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([2 ** 63, -(10 ** 400), 10 ** 400]),
    st.floats(), st.text(max_size=8),
    st.lists(st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=4)), max_size=3),
    st.dictionaries(st.text(max_size=6), st.one_of(st.integers(), st.floats()), max_size=2),
)
CONFIG_KEYS, ESTIMATOR_KEYS = (sorted(f.name for f in fields(c))
                               for c in (BenchmarkConfig, EstimatorConfig))
FIELDS = [(key,) for key in CONFIG_KEYS] + [(i, key) for i in (0, 1) for key in ESTIMATOR_KEYS]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), JSON_VALUES)
@example(field=(0, "base"), value=[1])
@example(field=(1, "base"), value=float("inf"))
@example(field=("model_params",), value={"sigma": 10 ** 400})
def test_any_field_value_parses_or_is_a_config_error(field, value):
    """One field of a valid config set to an arbitrary JSON value: parse_config
    returns a config or raises ConfigError, and raises nothing else."""
    raw = copy.deepcopy(BASE_CONFIG)
    if len(field) == 1:
        raw[field[0]] = value
    else:
        raw["estimators"][field[0]][field[1]] = value
    try:
        assert isinstance(parse_config(raw), BenchmarkConfig)
    except ConfigError:
        pass


class TestFitSlope:
    def test_exact_line(self):
        pts = [(10.0 ** (3 - 2 * k), 10.0 ** k) for k in range(-4, 0)]
        slope, intercept, r2 = fit_slope(pts)
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert intercept == pytest.approx(3.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_noisy_line(self):
        rng = np.random.default_rng(0)
        mses = 10.0 ** np.arange(-5, 0, 0.5)
        costs = 10.0 ** (2 - 1.5 * np.log10(mses) + 0.01 * rng.standard_normal(len(mses)))
        slope, _, r2 = fit_slope(list(zip(costs, mses)))
        assert slope == pytest.approx(-1.5, abs=0.05)
        assert r2 > 0.99

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_slope([(1.0, 1.0), (2.0, 0.5)])

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            fit_slope([(1.0, 0.0), (2.0, 0.5), (3.0, 0.1)])

    @pytest.mark.parametrize("point,named", [((math.inf, 0.5), "cost inf"), ((2.0, math.nan), "mse nan")],
                             ids=["inf-cost", "nan-mse"])
    def test_non_finite(self, point, named):
        with pytest.raises(ValueError, match=named):
            fit_slope([(1.0, 1.0), point, (3.0, 0.1)])


@pytest.fixture(scope="module")
def bench_result():
    cfg = make_config()
    return cfg, run_benchmark(cfg)


class TestRunBenchmark:
    def test_shape_and_order(self, bench_result):
        cfg, (records, summary) = bench_result
        assert len(records) == 2 * 3 * cfg.repeats
        keys = [(r.estimator, r.L, r.repeat) for r in records]
        assert keys == sorted(keys)
        assert {(s["estimator"], s["L"]) for s in summary} == {
            (e, L) for e in ("ml", "pf") for L in (1, 2, 3)}
        for s in summary:
            assert s["n_repeats"] == cfg.repeats

    def test_squared_error_consistent(self, bench_result):
        _, (records, _) = bench_result
        for r in records:
            assert r.squared_error == (r.estimate - r.truth) ** 2
            assert r.cost_units > 0

    def test_truth_is_kalman_for_ou(self, bench_result):
        cfg, (records, _) = bench_result
        from mlpf.models import builtin_model
        from mlpf.observations import simulate_observations
        from mlpf.oracle import kalman_run

        path = simulate_observations("pbar", builtin_model("ou", {}), cfg.T, cfg.L_data, cfg.data_seed)
        kal = kalman_run(path, cfg.L_data, 1.0, 0.0, 0.5)
        assert records[0].truth == kal.at_time(float(cfg.T))[0]

    def test_deterministic_rerun(self, bench_result):
        cfg, (records, _) = bench_result
        records2, _ = run_benchmark(cfg)
        assert records_csv(records) == records_csv(records2)

    def test_workers_match_serial(self, bench_result):
        cfg, (records, _) = bench_result
        cfg_mp = make_config(workers=2)
        records_mp, _ = run_benchmark(cfg_mp)
        assert records_csv(records) == records_csv(records_mp)

    def test_pool_splits_jobs_into_seed_slices(self):
        assert _seed_slices(6, 1) == [(0, 6)]
        assert _seed_slices(6, 4) == [(0, 2), (2, 4), (4, 5), (5, 6)]
        assert _seed_slices(2, 8) == [(0, 1), (1, 2)]
        ests = [{"id": "pf", "rule": "single_pf", "L_min": 2, "L_max": 3, "base": 10.0}]
        calls = []
        records, _ = run_benchmark(make_config(workers=2, estimators=ests),
                                   progress=lambda i, n: calls.append((i, n)))
        # two slices per job (2 and 1 of the 3 replicates), largest planned cost first
        assert calls == [(2, 6), (3, 6), (5, 6), (6, 6)]
        serial, _ = run_benchmark(make_config(estimators=ests))
        assert records_csv(records) == records_csv(serial)

    @pytest.mark.parametrize("cpus,opened", [(64, 3), (2, 2), (None, 1)])
    def test_pool_opens_no_more_processes_than_tasks_or_cpus(self, monkeypatch, cpus, opened):
        """Eight workers for three seed slices: the pool, faked here so that
        no process starts, is opened with at most one process per task and
        per CPU, and the records are the serial run's."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        ests = [{"id": "pf", "rule": "single_pf", "L_min": 2, "L_max": 2, "base": 10.0}]
        records, _ = run_benchmark(make_config(workers=8, estimators=ests))
        assert sizes == [opened]
        assert records_csv(records) == records_csv(run_benchmark(make_config(estimators=ests))[0])

    def test_multiple_paths(self):
        cfg = make_config(paths=2, repeats=2,
                          estimators=[{"id": "pf", "rule": "single_pf",
                                       "L_min": 2, "L_max": 2, "base": 10.0}])
        calls = []
        records, summary = run_benchmark(cfg, progress=lambda i, n: calls.append((i, n)))
        assert len(records) == 4
        assert len({r.truth for r in records}) == 2
        assert summary[0]["n_repeats"] == 4
        assert calls == [(2, 4), (4, 4)]  # replicates done, one job (path) at a time


class TestOutputs:
    def test_csv_full_precision(self, bench_result):
        _, (records, summary) = bench_result
        text = records_csv(records)
        rows = text.strip().split("\n")
        assert rows[0] == "estimator,L,repeat,seed,cost_units,wall_seconds,estimate,truth,squared_error"
        first = rows[1].split(",")
        assert float(first[6]) == records[0].estimate  # round-trips exactly
        assert first[5] == "0"  # wall time is kept out of the CSV

    def test_summary_csv(self, bench_result):
        _, (_, summary) = bench_result
        rows = summary_csv(summary).strip().split("\n")
        assert rows[0] == "estimator,L,mean_cost,mse,n_repeats"
        assert len(rows) == len(summary) + 1

    def test_emit_outputs(self, bench_result, tmp_path):
        _, (records, summary) = bench_result
        written = emit_outputs(records, summary, str(tmp_path))
        assert set(written) == {"csv", "json", "svg"}
        with open(written["json"][0]) as f:
            payload = json.load(f)
        assert len(payload["records"]) == len(records)
        with open(written["svg"][0]) as f:
            svg = f.read()
        assert svg.count("<circle") == len(summary)
        assert svg.startswith("<svg")

    def test_emit_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_outputs([], [], str(tmp_path))

    def test_svg_fit_lines(self, bench_result):
        _, (_, summary) = bench_result
        svg = render_svg(summary)
        # one fitted line per estimator with >= 3 levels, plus the two axes
        assert svg.count("<line") == 2 + 2
