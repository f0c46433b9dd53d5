"""Command-line interface for data simulation, filter runs, and benchmarks."""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bench
from .euler import NonFiniteStateError
from .filters import cpf_run, pf_run
from .models import BUILTIN_NAMES, builtin_model
from .multilevel import allocate, mlpf_run, total_cost
from .observations import read_path, simulate_observations, write_path, export_csv
from .oracle import reference_truth
from .resampling import DegenerateWeightsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_model_args(p):
    p.add_argument("--model", required=True, choices=BUILTIN_NAMES)
    p.add_argument("--params", default="{}", help="JSON object of model parameters")


def _model_from(args):
    return builtin_model(args.model, json.loads(args.params))


def _add_path_arg(p):
    p.add_argument("--path", required=True, help="binary observation path file")


def build_parser():
    ap = argparse.ArgumentParser(prog="mlpf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-data", help="generate an observation path file")
    _add_model_args(p)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--L-data", type=int, required=True)
    p.add_argument("--mode", choices=("pbar", "p"), default="pbar")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also export increments as CSV to this file")

    p = sub.add_parser("run-pf", help="run one particle filter")
    _add_model_args(p)
    _add_path_arg(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resample-policy", choices=("always", "ess_below_half"), default="ess_below_half")
    p.add_argument("--functionals", default="x", help="comma-separated built-in functional names")

    p = sub.add_parser("run-cpf", help="run one coupled particle filter")
    _add_model_args(p)
    _add_path_arg(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coupling", choices=("maximal", "sorted"), default="maximal")
    p.add_argument("--resample-policy", choices=("always", "ess_below_half"), default="ess_below_half")
    p.add_argument("--functionals", default="x")

    p = sub.add_parser("run-mlpf", help="run one multilevel particle filter")
    _add_model_args(p)
    _add_path_arg(p)
    p.add_argument("--rule", choices=("mlpf_nonconstant", "mlpf_constant", "wasserstein_new", "single_pf"),
                   default="mlpf_nonconstant")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--base", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coupling", choices=("maximal", "sorted"), default="maximal")
    p.add_argument("--resample-policy", choices=("always", "ess_below_half"), default="ess_below_half")
    p.add_argument("--functionals", default="x")

    p = sub.add_parser("truth", help="compute the reference truth for a path")
    _add_model_args(p)
    _add_path_arg(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--n", type=int, default=51200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--functionals", default="x")

    p = sub.add_parser("benchmark", help="run a config-driven benchmark sweep")
    p.add_argument("--config", required=True, help="JSON benchmark configuration")
    p.add_argument("--workers", type=int, help="override worker count")
    p.add_argument("--output-dir", help="override output directory")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("slope", help="fit log-log cost-vs-MSE slopes from a summary CSV")
    p.add_argument("--summary", required=True)
    p.add_argument("--estimator", help="restrict to one estimator id")
    return ap


def _estimates_json(out):
    payload = {
        "level": out.level,
        "n_particles": out.n_particles,
        "estimates": {f"{t}:{fid}": v for (t, fid), v in sorted(out.estimates.items())},
        "log_normalizer": out.log_normalizer,
        "cost_units": out.cost_units,
        "resample_count": out.diagnostics.resample_count,
        "min_ess": out.diagnostics.min_ess,
        "mean_ess": out.diagnostics.mean_ess,
    }
    if out.fine_estimates is not None:
        payload["fine_estimates"] = {f"{t}:{fid}": v for (t, fid), v in sorted(out.fine_estimates.items())}
        payload["coarse_estimates"] = {f"{t}:{fid}": v for (t, fid), v in sorted(out.coarse_estimates.items())}
        payload["log_normalizer_coarse"] = out.log_normalizer_coarse
        payload["coupling_fraction"] = out.diagnostics.coupling_fraction
        payload["same_ancestor_fraction"] = out.final_same_ancestor_fraction
    return payload


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (NonFiniteStateError, DegenerateWeightsError) as exc:  # numerical faults at run time
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "simulate-data":
        model = _model_from(args)
        path = simulate_observations(args.mode, model, args.T, args.L_data, args.seed)
        write_path(path, args.out)
        if args.csv:
            export_csv(path, args.csv)
        print(json.dumps({"out": args.out, "T": path.T, "L_data": path.L_data,
                          "increments": int(path.increments.shape[0])}))
        return EXIT_OK
    if cmd in ("run-pf", "run-cpf"):
        model = _model_from(args)
        path = read_path(args.path)
        fns = args.functionals.split(",")
        if cmd == "run-pf":
            out = pf_run(model, path, args.level, args.n, fns,
                         resample_policy=args.resample_policy, seed=args.seed)
        else:
            out = cpf_run(model, path, args.level, args.n, fns,
                          resample_policy=args.resample_policy, seed=args.seed,
                          coupling=args.coupling)
        print(json.dumps(_estimates_json(out), indent=1))
        return EXIT_OK
    if cmd == "run-mlpf":
        model = _model_from(args)
        path = read_path(args.path)
        allocation = allocate(args.rule, args.L, args.base,
                              constant_diffusion=model.sigma is not None)
        out = mlpf_run(model, path, allocation, args.functionals.split(","),
                       resample_policy=args.resample_policy, coupling=args.coupling,
                       seed=args.seed)
        print(json.dumps({
            "rule": allocation.rule,
            "L": allocation.L,
            "counts": list(allocation.counts),
            "cost_units": out.cost_units,
            "planned_cost": total_cost(allocation, path.T),
            "estimates": {f"{t}:{fid}": v for (t, fid), v in sorted(out.estimates.items())},
        }, indent=1))
        return EXIT_OK
    if cmd == "truth":
        model = _model_from(args)
        path = read_path(args.path)
        truth = reference_truth(model, path, args.level, args.n,
                                args.functionals.split(","), seed=args.seed)
        print(json.dumps({
            "kind": truth.kind,
            "estimates": {f"{t}:{fid}": v for (t, fid), v in sorted(truth.estimates.items())},
            "standard_errors": None if truth.standard_errors is None else
            {f"{t}:{fid}": v for (t, fid), v in sorted(truth.standard_errors.items())},
        }, indent=1))
        return EXIT_OK
    if cmd == "benchmark":
        with open(args.config) as f:
            raw = json.load(f)
        if args.workers is not None:
            raw["workers"] = args.workers
        if args.output_dir is not None:
            raw["output_dir"] = args.output_dir
        try:
            cfg = bench.parse_config(raw)
        except bench.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        progress = None
        if not args.quiet:
            progress = lambda i, n: print(f"\r{i}/{n} replicates", end="", file=sys.stderr)
        try:
            records, summary = bench.run_benchmark(cfg, progress=progress)
        except KeyboardInterrupt:
            print("\ninterrupted", file=sys.stderr)
            return EXIT_RUNTIME
        if not args.quiet:
            print("", file=sys.stderr)
        written = bench.emit_outputs(records, summary, cfg.output_dir)
        print(json.dumps({"records": len(records), "outputs": written}, indent=1))
        return EXIT_OK
    if cmd == "slope":
        with open(args.summary) as f:
            rows = list(csv.DictReader(f))
        by_est: dict = {}
        for row in rows:
            if args.estimator and row["estimator"] != args.estimator:
                continue
            by_est.setdefault(row["estimator"], []).append(
                (float(row["mean_cost"]), float(row["mse"])))
        if not by_est:
            raise ValueError("no matching rows in summary file")
        out = {}
        for est, pts in sorted(by_est.items()):
            slope, intercept, r2 = bench.fit_slope(pts)
            out[est] = {"slope": slope, "intercept": intercept, "r2": r2, "points": len(pts)}
        print(json.dumps(out, indent=1))
        return EXIT_OK
    raise ValueError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
