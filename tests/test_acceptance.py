"""End-to-end acceptance checks at desk scale.

Each test prints a single PASS/FAIL line for its criterion and asserts both
the statistical target and the runtime budget.
"""

import json
import os
import time

import numpy as np
import pytest

from mlpf import streams
from mlpf.bench import fit_slope, parse_config, run_benchmark
from mlpf.cli import EXIT_OK, main as cli_main
from mlpf.euler import propagate_unit, propagate_unit_coupled
from mlpf.filters import cpf_run, pf_run
from mlpf.models import builtin_model
from mlpf.observations import increments_at_level, simulate_observations
from mlpf.oracle import kalman_run
from mlpf.resampling import normalize_log_weights

from test_resampling import enumerate_sampler_law, maximal_coupling_pmf

pytestmark = pytest.mark.acceptance

_WORKERS = min(4, os.cpu_count() or 1)


def report(name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget:.0f}s"


def test_01_maximal_coupling_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for case in range(25):
        n = int(rng.integers(2, 5))
        a = rng.integers(1, 10, size=n).astype(float)
        b = rng.integers(1, 10, size=n).astype(float)
        wf = normalize_log_weights(np.log(a))
        wc = normalize_log_weights(np.log(b))
        law = enumerate_sampler_law(wf, wc)
        pmf = maximal_coupling_pmf(wf, wc)
        worst = max(worst, np.max(np.abs(law - pmf)))
        worst = max(worst, np.max(np.abs(law.sum(axis=1) - wf.normalized)))
        worst = max(worst, np.max(np.abs(law.sum(axis=0) - wc.normalized)))
        # the coupled mass of the target law is exactly the total overlap
        overlap = np.minimum(wf.normalized, wc.normalized)
        assert np.array_equal(np.diag(pmf), overlap)
    report("criterion 1 (maximal-coupling exactness)", worst < 1e-12,
           f"max deviation {worst:.2e}", time.perf_counter() - t0, 1.0)


def test_02_coupled_kernel_marginal_fidelity():
    t0 = time.perf_counter()
    n_bad = 0
    for name in ("ou", "langevin", "gbm", "nonlinear_sigma"):
        m = builtin_model(name, {})
        for l in (1, 4, 7):
            rng = np.random.default_rng(abs(hash((name, l))) % 2 ** 32)
            noise = rng.standard_normal((100, 1 << l)) * np.sqrt(2.0 ** -l)
            obs_f = rng.standard_normal(1 << l) * 0.2
            obs_c = obs_f[0::2] + obs_f[1::2]
            x0 = rng.standard_normal(100) + (1.0 if name == "gbm" else 0.0)
            cp = propagate_unit_coupled(m, l, x0, x0, obs_f, obs_c, noise)
            fine = propagate_unit(m, l, x0, obs_f, noise)
            coarse = propagate_unit(m, l - 1, x0, obs_c, noise[:, 0::2] + noise[:, 1::2])
            for got, want in ((cp.fine.endpoint, fine.endpoint),
                              (cp.fine.log_g_total, fine.log_g_total),
                              (cp.coarse.endpoint, coarse.endpoint),
                              (cp.coarse.log_g_total, coarse.log_g_total)):
                n_bad += int(not np.array_equal(got, want))
    report("criterion 2 (coupled-kernel marginal fidelity)", n_bad == 0,
           f"{n_bad} bitwise mismatches", time.perf_counter() - t0, 5.0)


def test_03_strong_coupling_rate():
    t0 = time.perf_counter()
    slopes = {}
    for name in ("gbm", "nonlinear_sigma"):
        m = builtin_model(name, {})
        levels = range(3, 9)
        log_err = []
        for l in levels:
            noise = np.sqrt(2.0 ** -l) * streams.noise_block(3000 + l, l, 0, 10_000)
            obs_f = np.zeros(1 << l)
            obs_c = np.zeros(1 << (l - 1))
            x0 = np.full(10_000, 1.0)
            cp = propagate_unit_coupled(m, l, x0, x0, obs_f, obs_c, noise)
            log_err.append(np.log2(np.mean((cp.fine.endpoint - cp.coarse.endpoint) ** 2)))
        slopes[name] = float(np.polyfit(list(levels), log_err, 1)[0])
    ok = all(-1.3 < s < -0.7 for s in slopes.values())
    report("criterion 3 (strong coupling rate)", ok,
           f"slopes {slopes}", time.perf_counter() - t0, 60.0)


@pytest.mark.slow
def test_04_same_ancestor_decay():
    t0 = time.perf_counter()
    m = builtin_model("ou", {})
    path = simulate_observations("p", m, 10, 8, seed=41)
    levels = range(3, 8)
    log_defect = []
    for l in levels:
        fracs = [cpf_run(m, path, l, 4000, ["x"], seed=100 * l + r).final_same_ancestor_fraction
                 for r in range(20)]
        log_defect.append(np.log2(1.0 - np.mean(fracs)))
    slope = float(np.polyfit(list(levels), log_defect, 1)[0])
    report("criterion 4 (same-ancestor decay)", slope <= -0.3,
           f"slope {slope:.3f} (need <= -0.3)", time.perf_counter() - t0, 300.0)


@pytest.mark.slow
def test_05_cpf_variance_decay():
    t0 = time.perf_counter()
    m = builtin_model("ou", {})
    path = simulate_observations("p", m, 10, 8, seed=52)
    levels = range(2, 8)
    log_var = []
    for l in levels:
        vals = [cpf_run(m, path, l, 1000, ["x"], seed=977 * l + r).estimates[(10.0, "x")]
                for r in range(50)]
        log_var.append(np.log2(np.var(vals, ddof=1)))
    slope = float(np.polyfit(list(levels), log_var, 1)[0])
    report("criterion 5 (CPF variance decay)", slope <= -0.4,
           f"slope {slope:.3f} (need <= -0.4)", time.perf_counter() - t0, 300.0)


def test_06_bias_order():
    t0 = time.perf_counter()
    m = builtin_model("ou", {})
    levels = range(3, 10)
    errs = np.zeros((10, len(levels)))
    for pi in range(10):
        path = simulate_observations("p", m, 5, 12, seed=600 + pi)
        ref = kalman_run(path, 12, 1.0, 0.0, 0.5).at_time(5.0)[0]
        for li, l in enumerate(levels):
            errs[pi, li] = abs(kalman_run(path, l, 1.0, 0.0, 0.5).at_time(5.0)[0] - ref)
    slope = float(np.polyfit(list(levels), np.log2(errs.mean(axis=0)), 1)[0])
    report("criterion 6 (bias order)", -1.4 < slope < -0.6,
           f"slope {slope:.3f} (need in [-1.4, -0.6])", time.perf_counter() - t0, 60.0)


def _cost_mse_slopes(model_name, estimators, tmp_path):
    cfg = parse_config({
        "model": model_name, "T": 10, "L_data": 9, "data_mode": "p", "data_seed": 700,
        "repeats": 20, "master_seed": 77, "output_dir": str(tmp_path),
        "truth_level": 9, "truth_n": 51200, "workers": _WORKERS,
        "estimators": estimators,
    })
    _, summary = run_benchmark(cfg)
    slopes = {}
    for est in {e["id"] for e in estimators}:
        pts = [(row["mean_cost"], row["mse"]) for row in summary if row["estimator"] == est]
        slopes[est] = fit_slope(pts)[0]
    return slopes


@pytest.mark.slow
def test_07_cost_mse_slopes(tmp_path):
    t0 = time.perf_counter()
    windows = {}
    slopes = {}
    out = _cost_mse_slopes("ou", [
        {"id": "single_pf", "rule": "single_pf", "L_min": 3, "L_max": 7, "base": 20.0},
        {"id": "mlpf", "rule": "mlpf_constant", "L_min": 3, "L_max": 7, "base": 4.0},
    ], tmp_path)
    slopes["single_pf"] = out["single_pf"]
    windows["single_pf"] = (-2.6, -1.5)
    slopes["mlpf/ou"] = out["mlpf"]
    windows["mlpf/ou"] = (-1.5, -0.7)
    slopes["mlpf/langevin"] = _cost_mse_slopes("langevin", [
        {"id": "mlpf", "rule": "mlpf_constant", "L_min": 3, "L_max": 7, "base": 4.0},
    ], tmp_path)["mlpf"]
    windows["mlpf/langevin"] = (-1.5, -0.7)
    for name in ("gbm", "nonlinear_sigma"):
        slopes[f"mlpf/{name}"] = _cost_mse_slopes(name, [
            {"id": "mlpf", "rule": "mlpf_nonconstant", "L_min": 3, "L_max": 7, "base": 2.0},
        ], tmp_path)["mlpf"]
        windows[f"mlpf/{name}"] = (-2.1, -1.1)
    bad = {k: round(v, 3) for k, v in slopes.items()
           if not windows[k][0] < v < windows[k][1]}
    detail = ", ".join(f"{k}={v:.2f}" for k, v in slopes.items())
    report("criterion 7 (cost-MSE slopes)", not bad,
           detail + (f"; out of window: {bad}" if bad else ""),
           time.perf_counter() - t0, 1800.0)


@pytest.mark.slow
def test_08_pf_vs_kalman_consistency():
    t0 = time.perf_counter()
    m = builtin_model("ou", {})
    path = simulate_observations("p", m, 10, 6, seed=80)
    kal_mean = kalman_run(path, 6, 1.0, 0.0, 0.5).at_time(10.0)[0]
    rmses = []
    ok = True
    details = []
    for ni, n in enumerate((1000, 4000, 16000)):
        vals = np.array([pf_run(m, path, 6, n, ["x"], seed=8000 + 61 * ni + r).estimates[(10.0, "x")]
                         for r in range(30)])
        rmses.append(float(np.sqrt(np.mean((vals - kal_mean) ** 2))))
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        mean_ok = abs(vals.mean() - kal_mean) < 4 * se
        ok = ok and mean_ok
        details.append(f"N={n} rmse={rmses[-1]:.4f} mean_ok={mean_ok}")
    ratios = [rmses[0] / rmses[1], rmses[1] / rmses[2]]
    ok = ok and all(1.6 <= r <= 2.6 for r in ratios)
    report("criterion 8 (PF-vs-Kalman consistency)", ok,
           "; ".join(details) + f"; ratios {[round(r, 2) for r in ratios]}",
           time.perf_counter() - t0, 300.0)


def test_09_determinism(tmp_path):
    t0 = time.perf_counter()
    raw = {
        "model": "ou", "T": 2, "L_data": 5, "repeats": 3, "master_seed": 9,
        "data_seed": 90, "output_dir": "placeholder",
        "estimators": [
            {"id": "pf", "rule": "single_pf", "L_min": 1, "L_max": 3, "base": 8.0},
            {"id": "ml", "rule": "mlpf_constant", "L_min": 1, "L_max": 3, "base": 4.0},
        ],
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(raw))
    outputs = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
        out_dir = tmp_path / tag
        rc = cli_main(["benchmark", "--config", str(cfg_file), "--quiet",
                       "--workers", str(workers), "--output-dir", str(out_dir)])
        assert rc == EXIT_OK
        outputs[tag] = ((out_dir / "records.csv").read_bytes(),
                        (out_dir / "summary.csv").read_bytes())
    ok = outputs["a"] == outputs["b"] == outputs["c"]
    report("criterion 9 (determinism)", ok,
           "records+summary CSVs byte-identical across reruns and worker counts"
           if ok else "CSV mismatch", time.perf_counter() - t0, 120.0)
