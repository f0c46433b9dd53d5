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
split equally over the task's replicates; it goes to ``results.json`` only,
and ``records.csv`` writes 0 in its place, so the CSVs are deterministic.

The config schema is the fields of ``BenchmarkConfig`` and
``EstimatorConfig``: those without a default are required, the others take
their defaults when absent.  Name fields take the vocabularies of the
modules that use them, and integer fields their least values from ``_INT_LEAST``;
the seeds in ``_SEEDS`` are also less than 2**64.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import streams
from .filters import COUPLINGS, DEFAULT_FUNCTIONALS, RESAMPLE_POLICIES, _call_bytes
from .models import ModelParameterError, builtin_model
from .multilevel import ALLOCATION_RULES, allocate, mlpf_run, total_cost
from .observations import MODES, ObservationPath, simulate_observations
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


# the least value of each integer field; two replicates give a variance estimate
_INT_LEAST = {"T": 1, "L_data": 1, "data_seed": 0, "repeats": 2, "paths": 1, "master_seed": 0,
              "truth_level": 0, "truth_n": 1, "workers": 1, "L_min": 0, "L_max": 0}
# the integer fields that are seeds, and so also less than 2**64
_SEEDS = ("master_seed", "data_seed")
# the names each name field takes, as defined by the module that uses the field
_NAMES = {"data_mode": MODES, "rule": ALLOCATION_RULES, "coupling": COUPLINGS,
          "resample_policy": RESAMPLE_POLICIES}


def parse_config(raw: dict) -> BenchmarkConfig:
    """Validate a JSON-decoded config dict; unknown keys are rejected, and an
    absent optional key takes its ``BenchmarkConfig``/``EstimatorConfig`` default."""
    kw = _present(raw, BenchmarkConfig, "config")
    ests = kw["estimators"]
    if not isinstance(ests, list) or not ests:
        raise ConfigError("config.estimators: expected a non-empty list")
    parsed_ests = []
    for i, e in enumerate(ests):
        where = f"config.estimators[{i}]"
        ekw = _present(e, EstimatorConfig, where)
        if not (isinstance(ekw["id"], str) and ekw["id"]):
            raise ConfigError(f"{where}.id: expected a non-empty string, got {ekw['id']!r}")
        if ekw["id"] in {ec.id for ec in parsed_ests}:
            raise ConfigError(f"{where}.id: duplicate estimator id {ekw['id']!r}")
        ekw["base"] = _positive_number(ekw["base"], f"{where}.base")
        if ekw["L_min"] > ekw["L_max"]:
            raise ConfigError(f"{where}: need 0 <= L_min <= L_max")
        parsed_ests.append(EstimatorConfig(**ekw))
    kw["estimators"] = tuple(parsed_ests)
    if "model_params" in kw:
        if not isinstance(kw["model_params"], dict):
            raise ConfigError(f"config.model_params: expected a JSON object, got {kw['model_params']!r}")
        kw["model_params"] = dict(kw["model_params"])
    if "functionals" in kw:
        functionals = kw["functionals"]
        if (not isinstance(functionals, list) or not functionals
                or not all(isinstance(f, str) and f in DEFAULT_FUNCTIONALS for f in functionals)):
            raise ConfigError(f"config.functionals: expected a non-empty list of names from "
                              f"{sorted(DEFAULT_FUNCTIONALS)}, got {functionals!r}")
        kw["functionals"] = tuple(functionals)
    if not isinstance(kw["output_dir"], str):
        raise ConfigError(f"config.output_dir: expected a string, got {kw['output_dir']!r}")
    cfg = BenchmarkConfig(**kw)
    try:  # build the model once, so a bad name or parameter is a config error
        model = builtin_model(cfg.model, cfg.model_params)
    except ModelParameterError as exc:
        where = "config.model_params" if exc.key is None else f"config.model_params.{exc.key}"
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config.model: {exc}") from None
    max_l = max(e.L_max for e in cfg.estimators)
    if max_l > cfg.L_data:
        raise ConfigError(f"config.estimators: max L {max_l} exceeds L_data {cfg.L_data}")
    tl = cfg.truth_level if cfg.truth_level is not None else cfg.L_data
    if tl > cfg.L_data:
        raise ConfigError(f"config.truth_level: {tl} exceeds L_data {cfg.L_data}")
    memory = _physical_memory()
    start, stop = _seed_slices(cfg.repeats, cfg.workers)[0]  # the longest slice of a job
    for i, e in enumerate(cfg.estimators):
        try:  # an estimator's counts are largest at L_max
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a multilevel rule at L 0, run as single_pf
                counts = allocate(e.rule, e.L_max, e.base,
                                  constant_diffusion=model.sigma is not None).counts
        except ValueError as exc:
            raise ConfigError(f"config.estimators[{i}]: {exc}") from None
        # its largest filter call: one chain on the lowest rung, two above
        need = max(_call_bytes(c, stop - start, 1 if j == 0 else 2) for j, c in enumerate(counts))
        if memory is not None and need > memory:
            raise ConfigError(f"config.estimators[{i}]: base {e.base:g} gives a filter call at "
                              f"L={e.L_max} whose states and log-weights need {need} bytes, "
                              f"more than the {memory} bytes of physical memory")
    return cfg


def _physical_memory() -> int | None:
    """The machine's physical memory in bytes, or None where the platform
    does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _present(raw, cls, where: str) -> dict:
    """JSON object ``raw`` as keyword arguments of dataclass ``cls``, with its
    keys, integers and names checked; a null is kept where the default is None."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = {f.name for f in fields(cls)
               if f.default is MISSING and f.default_factory is MISSING} - set(raw)
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {sorted(missing)}")
    kw = dict(raw)
    for key, value in kw.items():
        if key in _INT_LEAST and not (value is None and getattr(cls, key, MISSING) is None):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
            if value < _INT_LEAST[key]:
                raise ConfigError(f"{where}.{key}: must be >= {_INT_LEAST[key]}, got {value}")
            if key in _SEEDS and not streams.is_seed(value):
                raise ConfigError(f"{where}.{key}: must be < 2**64, got {value}")
        if key in _NAMES and value not in _NAMES[key]:
            raise ConfigError(f"{where}.{key}: {value!r} not in {_NAMES[key]}")
    return kw


def _positive_number(value, where: str) -> float:
    """A finite, positive JSON number as a float; a bool, a string, NaN, an
    infinity or an int too large for a float is a ConfigError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 < value <= sys.float_info.max):
        raise ConfigError(f"{where}: expected a finite positive number, got {value!r}")
    return float(value)


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
    (model_name, model_params, inc, T, L_data, mode, data_seed,
     allocation, coupling, policy, functionals, seeds) = args
    model = builtin_model(model_name, model_params)
    path = ObservationPath(T, L_data, inc, mode, data_seed)
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
    jobs, meta, planned = [], [], []
    n_seeds = 0
    # every replicate seed of the sweep, in one pass
    total = sum(e.L_max - e.L_min + 1 for e in config.estimators) * config.paths * config.repeats
    all_seeds = streams.replicate_seed(config.master_seed, np.arange(total)).tolist()
    for est in config.estimators:
        for L in range(est.L_min, est.L_max + 1):
            allocation = allocate(est.rule, L, est.base,
                                  constant_diffusion=model.sigma is not None)
            for pi, (path, truth_val) in enumerate(path_data):
                seeds = tuple(all_seeds[n_seeds:n_seeds + config.repeats])
                n_seeds += config.repeats
                for a, b in slices:
                    jobs.append((
                        config.model, config.model_params, path.increments, config.T,
                        config.L_data, path.mode, path.seed,
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
            # a forked pool starts all its processes at the first submit, so
            # it gets no more than there are tasks or CPUs; the seed slices
            # still follow config.workers, so the records do not change
            workers = min(config.workers, len(jobs), os.cpu_count() or 1)
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
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
    return records, summarize(records)


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
    """OLS of log10(cost) on log10(mse); returns (slope, intercept, r2).

    MSEs too close for a well-conditioned fit (all equal, say) raise
    ``ValueError`` rather than give an arbitrary slope."""
    pts = [(float(c), float(m)) for c, m in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a slope fit")
    for c, m in pts:
        if not (0 < c < math.inf and 0 < m < math.inf):  # nan fails both comparisons
            raise ValueError(f"cost and mse must be positive and finite for a log-log fit, "
                             f"got cost {c!r} and mse {m!r}")
    x = np.log10([m for _, m in pts])
    y = np.log10([c for c, _ in pts])
    with warnings.catch_warnings():
        # polyfit's one warning, RankWarning, flags a rank-deficient fit
        warnings.simplefilter("error")
        try:
            slope, intercept = np.polyfit(x, y, 1)
        except Warning:
            raise ValueError(f"mse values {[m for _, m in pts]} are too close to fit a slope "
                             f"of cost on mse") from None
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def records_csv(records) -> str:
    """Records as CSV; the ``wall_seconds`` column is always 0, so the text
    depends on the seeds alone."""
    lines = [",".join(RECORD_FIELDS)]
    for r in records:
        lines.append(",".join(_fmt(v) for v in (
            r.estimator, r.L, r.repeat, r.seed, r.cost_units, 0.0,
            r.estimate, r.truth, r.squared_error)))
    return "\n".join(lines) + "\n"


def summary_csv(summary) -> str:
    lines = [",".join(SUMMARY_FIELDS)]
    for row in summary:
        lines.append(",".join(_fmt(row[k]) for k in SUMMARY_FIELDS))
    return "\n".join(lines) + "\n"


def emit_outputs(records, summary, output_dir) -> dict:
    """Write the CSV, JSON and SVG outputs; returns {format: [paths]}."""
    if not records:
        raise ValueError("refusing to emit outputs for zero records")
    os.makedirs(output_dir, exist_ok=True)
    rp = os.path.join(output_dir, "records.csv")
    sp = os.path.join(output_dir, "summary.csv")
    with open(rp, "w") as f:
        f.write(records_csv(records))
    with open(sp, "w") as f:
        f.write(summary_csv(summary))
    jp = os.path.join(output_dir, "results.json")
    with open(jp, "w") as f:
        json.dump({"records": [asdict(r) for r in records], "summary": summary}, f, indent=1)
    vp = os.path.join(output_dir, "cost_vs_mse.svg")
    with open(vp, "w") as f:
        f.write(render_svg(summary))
    return {"csv": [rp, sp], "json": [jp], "svg": [vp]}


_PALETTE = ("#c8a400", "#000000", "#6fb7e8", "#c04040", "#40a060", "#8040c0")
_SVG_WIDTH, _SVG_HEIGHT = 640, 480


def render_svg(summary) -> str:
    """Self-contained log-log scatter of cost against MSE with OLS fit lines."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
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
