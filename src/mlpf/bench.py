"""Configuration-driven cost-versus-MSE benchmark runner.

A benchmark fixes one observation path (or several, via ``paths``), computes
the truth once per path at a reference level, then sweeps estimators over a
range of highest levels with repeated independent replicates.  Outputs are
canonical CSV/JSON plus a dependency-free SVG log-log plot.  Everything is
deterministic given the master seed, including under multiprocess execution.

A job is one (estimator, L, path): it carries the seeds of all ``repeats``
replicates and runs them in one batched ``mlpf_run`` call, so each level's
replicates share one Euler sweep (see ``filters``).  Replicate ``k`` in
sweep order still gets ``replicate_seed(master_seed, k)`` and the same
estimate as a run of its own.  On a pool of W > 1 workers each job's seeds
are split into min(W, repeats) contiguous slices, one task each, so the
largest job does not bound the sweep.  Tasks go to the workers largest
planned cost first.  A record's ``wall_seconds`` is its task's wall time
split equally over the task's replicates.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import streams
from .models import ModelSpec, builtin_model
from .multilevel import ALLOCATION_RULES, allocate, mlpf_run, total_cost
from .observations import ObservationPath, simulate_observations
from .oracle import reference_truth

__all__ = [
    "ConfigError",
    "EstimatorConfig",
    "BenchmarkConfig",
    "BenchmarkRecord",
    "run_benchmark",
    "fit_slope",
    "emit_outputs",
    "RECORD_FIELDS",
    "SUMMARY_FIELDS",
]

RECORD_FIELDS = ("estimator", "L", "repeat", "seed", "cost_units", "wall_seconds",
                 "estimate", "truth", "squared_error")
SUMMARY_FIELDS = ("estimator", "L", "mean_cost", "mse", "n_repeats")


class ConfigError(ValueError):
    """Invalid benchmark configuration; message carries the offending field path."""


@dataclass(frozen=True)
class EstimatorConfig:
    id: str
    rule: str
    L_min: int
    L_max: int
    base: float
    coupling: str = "maximal"
    resample_policy: str = "ess_below_half"


@dataclass(frozen=True)
class BenchmarkConfig:
    model: str
    T: int
    L_data: int
    estimators: tuple
    repeats: int
    master_seed: int
    output_dir: str
    model_params: dict = field(default_factory=dict)
    data_mode: str = "pbar"
    data_seed: int = 0
    functionals: tuple = ("x",)
    paths: int = 1
    truth_level: int | None = None
    truth_n: int = 51200
    workers: int = 1
    wall_time_in_csv: bool = False


_ESTIMATOR_KEYS = {"id", "rule", "L_min", "L_max", "base", "coupling", "resample_policy"}
_CONFIG_KEYS = {
    "model", "model_params", "T", "L_data", "data_mode", "data_seed", "estimators",
    "functionals", "repeats", "paths", "master_seed", "output_dir", "truth_level",
    "truth_n", "workers", "wall_time_in_csv",
}


def parse_config(raw: dict) -> BenchmarkConfig:
    """Validate a JSON-decoded config dict; unknown keys are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config: unknown key(s) {sorted(unknown)}")
    missing = {"model", "T", "L_data", "estimators", "repeats", "master_seed", "output_dir"} - set(raw)
    if missing:
        raise ConfigError(f"config: missing required key(s) {sorted(missing)}")
    ests = raw["estimators"]
    if not isinstance(ests, list) or not ests:
        raise ConfigError("config.estimators: expected a non-empty list")
    parsed_ests = []
    for i, e in enumerate(ests):
        where = f"config.estimators[{i}]"
        if not isinstance(e, dict):
            raise ConfigError(f"{where}: expected an object")
        unknown = set(e) - _ESTIMATOR_KEYS
        if unknown:
            raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
        missing = {"id", "rule", "L_min", "L_max", "base"} - set(e)
        if missing:
            raise ConfigError(f"{where}: missing key(s) {sorted(missing)}")
        if e["rule"] not in ALLOCATION_RULES:
            raise ConfigError(f"{where}.rule: {e['rule']!r} not in {ALLOCATION_RULES}")
        ec = EstimatorConfig(
            id=str(e["id"]), rule=e["rule"], L_min=_int(e["L_min"], f"{where}.L_min"),
            L_max=_int(e["L_max"], f"{where}.L_max"),
            base=float(e["base"]), coupling=e.get("coupling", "maximal"),
            resample_policy=e.get("resample_policy", "ess_below_half"),
        )
        if ec.L_min > ec.L_max or ec.L_min < 0:
            raise ConfigError(f"{where}: need 0 <= L_min <= L_max")
        if ec.coupling not in ("maximal", "sorted"):
            raise ConfigError(f"{where}.coupling: must be 'maximal' or 'sorted'")
        if ec.resample_policy not in ("always", "ess_below_half"):
            raise ConfigError(f"{where}.resample_policy: must be 'always' or 'ess_below_half'")
        parsed_ests.append(ec)
    cfg = BenchmarkConfig(
        model=str(raw["model"]),
        model_params=dict(raw.get("model_params", {})),
        T=_int(raw["T"], "config.T"),
        L_data=_int(raw["L_data"], "config.L_data"),
        data_mode=raw.get("data_mode", "pbar"),
        data_seed=_int(raw.get("data_seed", 0), "config.data_seed"),
        estimators=tuple(parsed_ests),
        functionals=tuple(raw.get("functionals", ["x"])),
        repeats=_int(raw["repeats"], "config.repeats"),
        paths=_int(raw.get("paths", 1), "config.paths"),
        master_seed=_int(raw["master_seed"], "config.master_seed"),
        output_dir=str(raw["output_dir"]),
        truth_level=_optional_int(raw.get("truth_level"), "config.truth_level"),
        truth_n=_int(raw.get("truth_n", 51200), "config.truth_n"),
        workers=_int(raw.get("workers", 1), "config.workers"),
        wall_time_in_csv=bool(raw.get("wall_time_in_csv", False)),
    )
    if cfg.data_mode not in ("pbar", "p"):
        raise ConfigError(f"config.data_mode: {cfg.data_mode!r} must be 'pbar' or 'p'")
    if cfg.T < 1 or cfg.L_data < 1:
        raise ConfigError("config.T / config.L_data: must be >= 1")
    if cfg.repeats < 2:
        raise ConfigError("config.repeats: need >= 2 for variance estimates")
    if cfg.paths < 1:
        raise ConfigError("config.paths: must be >= 1")
    max_l = max(e.L_max for e in cfg.estimators)
    if max_l > cfg.L_data:
        raise ConfigError(f"config.estimators: max L {max_l} exceeds L_data {cfg.L_data}")
    tl = cfg.truth_level if cfg.truth_level is not None else cfg.L_data
    if tl > cfg.L_data:
        raise ConfigError(f"config.truth_level: {tl} exceeds L_data {cfg.L_data}")
    return cfg


def _int(value, where: str) -> int:
    """A JSON integer; anything else (a bool, a float, a string) is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _optional_int(value, where: str):
    """None or a JSON integer, as ``_int``."""
    return None if value is None else _int(value, where)


@dataclass(frozen=True)
class BenchmarkRecord:
    estimator: str
    L: int
    repeat: int
    seed: int
    cost_units: int
    wall_seconds: float
    estimate: float
    truth: float
    squared_error: float


def _run_one(args) -> tuple:
    """One job: every replicate of one (estimator, L, path), in one batched
    ``mlpf_run``; module-level for pickling under process pools.

    Returns (estimates, total cost units, wall seconds, cost units per
    replicate), the estimates in seed order.
    """
    (model_name, model_params, inc, T, L_data, d_y, mode, data_seed,
     allocation, coupling, policy, functionals, seeds) = args
    model = builtin_model(model_name, model_params)
    path = ObservationPath(T, L_data, d_y, np.asarray(inc), mode, data_seed)
    t0 = time.perf_counter()
    outs = mlpf_run(model, path, allocation, functionals, report_times=[T],
                    resample_policy=policy, coupling=coupling, seed=seeds)
    wall = time.perf_counter() - t0
    key = (float(T), functionals[0])
    costs = tuple(out.cost_units for out in outs)
    return tuple(out.estimates[key] for out in outs), sum(costs), wall, costs


def run_benchmark(config: BenchmarkConfig, progress=None):
    """Execute the full sweep; returns (records, summary_rows).

    Truth is fixed per observation path (Kalman for linear-Gaussian models,
    a replicated reference PF otherwise) and all replicates of all
    estimators run against the same path(s).  ``progress(done, total)``, if
    given, is called as replicates finish, a job's worth at a time.
    """
    model = builtin_model(config.model, config.model_params)
    truth_level = config.truth_level if config.truth_level is not None else config.L_data
    fid = config.functionals[0]
    t_report = float(config.T)
    path_data = []
    for pi in range(config.paths):
        ds = config.data_seed if pi == 0 else int(
            streams.generator(config.data_seed, streams.TAG_OBS, pi).integers(2 ** 63))
        path = simulate_observations(config.data_mode, model, config.T, config.L_data, ds)
        truth = reference_truth(model, path, truth_level, config.truth_n, list(config.functionals),
                                seed=config.master_seed, report_times=[config.T])
        path_data.append((path, truth.estimates[(t_report, fid)]))
    # one job per (estimator, L, path); replicate seeds are numbered in that order.
    # A pool gets each job as contiguous seed slices, one task per slice.
    slices = _seed_slices(config.repeats, config.workers)
    jobs = []
    meta = []
    planned = []
    n_seeds = 0
    for est in config.estimators:
        for L in range(est.L_min, est.L_max + 1):
            allocation = allocate(est.rule, L, est.base,
                                  constant_diffusion=model.has_constant_diffusion)
            for pi, (path, truth_val) in enumerate(path_data):
                seeds = tuple(streams.replicate_seed(config.master_seed, n_seeds + r)
                              for r in range(config.repeats))
                n_seeds += config.repeats
                for a, b in slices:
                    jobs.append((
                        config.model, config.model_params, path.increments, config.T,
                        config.L_data, path.d_y, path.mode, path.seed,
                        allocation, est.coupling, est.resample_policy,
                        tuple(config.functionals), seeds[a:b],
                    ))
                    meta.append((est.id, L, pi * config.repeats + a, seeds[a:b], truth_val))
                    planned.append(total_cost(allocation, config.T) * (b - a))
    # largest planned cost first, so a pool's last tasks are its shortest
    order = sorted(range(len(jobs)), key=lambda i: -planned[i])
    results = [None] * len(jobs)
    done = 0
    with contextlib.ExitStack() as stack:
        if config.workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=config.workers))
            outs = pool.map(_run_one, [jobs[i] for i in order])
        else:
            outs = map(_run_one, [jobs[i] for i in order])
        for i, out in zip(order, outs):
            results[i] = out
            done += len(meta[i][3])
            if progress:
                progress(done, n_seeds)
    records = []
    for (est_id, L, rep0, seeds, truth_val), (estimates, _, wall, costs) in zip(meta, results):
        for r, (seed, estimate, cost) in enumerate(zip(seeds, estimates, costs)):
            err = estimate - truth_val
            records.append(BenchmarkRecord(est_id, L, rep0 + r, seed, cost, wall / len(seeds),
                                           estimate, truth_val, err * err))
    records.sort(key=lambda r: (r.estimator, r.L, r.repeat))
    summary = summarize(records)
    return records, summary


def _seed_slices(repeats: int, workers: int) -> list:
    """Contiguous (start, stop) slices of a job's ``repeats`` seeds: the whole
    tuple for one worker, else min(workers, repeats) slices whose sizes
    differ by at most one, the longer ones first."""
    k = 1 if workers <= 1 else min(workers, repeats)
    q, rem = divmod(repeats, k)
    bounds = [0]
    for j in range(k):
        bounds.append(bounds[-1] + q + (j < rem))
    return list(zip(bounds, bounds[1:]))


def summarize(records):
    """Per (estimator, L): mean cost and MSE = mean of squared errors."""
    groups: dict = {}
    for r in records:
        groups.setdefault((r.estimator, r.L), []).append(r)
    rows = []
    for (est, L) in sorted(groups):
        rs = groups[(est, L)]
        rows.append({
            "estimator": est,
            "L": L,
            "mean_cost": float(np.mean([r.cost_units for r in rs])),
            "mse": float(np.mean([r.squared_error for r in rs])),
            "n_repeats": len(rs),
        })
    return rows


def fit_slope(points):
    """OLS of log10(cost) on log10(mse); returns (slope, intercept, r2)."""
    pts = [(float(c), float(m)) for c, m in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if any(c <= 0 or m <= 0 for c, m in pts):
        raise ValueError("cost and mse must be positive for a log-log fit")
    x = np.log10([m for _, m in pts])
    y = np.log10([c for c, _ in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def records_csv(records, wall_time_in_csv: bool) -> str:
    lines = [",".join(RECORD_FIELDS)]
    for r in records:
        wall = r.wall_seconds if wall_time_in_csv else 0.0
        lines.append(",".join(_fmt(v) for v in (
            r.estimator, r.L, r.repeat, r.seed, r.cost_units, wall,
            r.estimate, r.truth, r.squared_error)))
    return "\n".join(lines) + "\n"


def summary_csv(summary) -> str:
    lines = [",".join(SUMMARY_FIELDS)]
    for row in summary:
        lines.append(",".join(_fmt(row[k]) for k in SUMMARY_FIELDS))
    return "\n".join(lines) + "\n"


def emit_outputs(records, summary, output_dir, formats=("csv", "json", "svg"),
                 wall_time_in_csv: bool = False) -> dict:
    """Write the requested output files; returns {format: [paths]}."""
    import os

    if not records:
        raise ValueError("refusing to emit outputs for zero records")
    os.makedirs(output_dir, exist_ok=True)
    written: dict = {}
    if "csv" in formats:
        rp = os.path.join(output_dir, "records.csv")
        sp = os.path.join(output_dir, "summary.csv")
        with open(rp, "w") as f:
            f.write(records_csv(records, wall_time_in_csv))
        with open(sp, "w") as f:
            f.write(summary_csv(summary))
        written["csv"] = [rp, sp]
    if "json" in formats:
        jp = os.path.join(output_dir, "results.json")
        with open(jp, "w") as f:
            json.dump({"records": [asdict(r) for r in records], "summary": summary}, f, indent=1)
        written["json"] = [jp]
    if "svg" in formats:
        vp = os.path.join(output_dir, "cost_vs_mse.svg")
        with open(vp, "w") as f:
            f.write(render_svg(summary))
        written["svg"] = [vp]
    return written


_PALETTE = ("#c8a400", "#000000", "#6fb7e8", "#c04040", "#40a060", "#8040c0")


def render_svg(summary, width=640, height=480) -> str:
    """Self-contained log-log scatter of cost against MSE with OLS fit lines."""
    by_est: dict = {}
    for row in summary:
        by_est.setdefault(row["estimator"], []).append(row)
    xs = [math.log10(r["mse"]) for r in summary if r["mse"] > 0]
    ys = [math.log10(r["mean_cost"]) for r in summary]
    if not xs:
        raise ValueError("no positive MSE values to plot")
    pad = 0.3
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    ml, mr, mt, mb = 60, 20, 20, 50

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mb - mt)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">log10 MSE</text>',
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">log10 cost</text>',
    ]
    for tick in range(math.ceil(x0), math.floor(x1) + 1):
        parts.append(f'<text x="{px(tick):.1f}" y="{height - mb + 18}" text-anchor="middle" '
                     f'font-size="11">{tick}</text>')
    for tick in range(math.ceil(y0), math.floor(y1) + 1):
        parts.append(f'<text x="{ml - 8}" y="{py(tick) + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{tick}</text>')
    for i, (est, rows) in enumerate(sorted(by_est.items())):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(row["mean_cost"], row["mse"]) for row in rows if row["mse"] > 0]
        for cost, mse in pts:
            parts.append(f'<circle cx="{px(math.log10(mse)):.2f}" cy="{py(math.log10(cost)):.2f}" '
                         f'r="4" fill="{color}"/>')
        if len(pts) >= 3:
            slope, intercept, _ = fit_slope(pts)
            xa, xb = min(math.log10(m) for _, m in pts), max(math.log10(m) for _, m in pts)
            parts.append(f'<line x1="{px(xa):.2f}" y1="{py(slope * xa + intercept):.2f}" '
                         f'x2="{px(xb):.2f}" y2="{py(slope * xb + intercept):.2f}" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            label = f"{est} (slope {slope:.2f})"
        else:
            label = est
        parts.append(f'<text x="{width - mr - 200}" y="{mt + 16 + 16 * i}" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
