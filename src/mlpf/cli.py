"""Command-line interface for data simulation, filter runs, and benchmarks.

Each subcommand binds its handler with ``set_defaults(run=...)``; ``main``
builds the model and reads the path a command names, runs the handler and
maps errors to exit codes.  Choices are the vocabularies of the modules
that own them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bench
from .euler import NonFiniteStateError
from .filters import COUPLINGS, RESAMPLE_POLICIES, cpf_run, pf_run
from .models import BUILTIN_NAMES, builtin_model
from .multilevel import ALLOCATION_RULES, allocate, mlpf_run, total_cost
from .observations import MODES, export_csv, read_path, simulate_observations, write_path
from .oracle import reference_truth
from .resampling import DegenerateWeightsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser():
    ap = argparse.ArgumentParser(prog="mlpf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help, model=True, path=True):
        """A subcommand running ``run``; ``path`` adds a path file, a seed and functionals."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if model:
            p.add_argument("--model", required=True, choices=BUILTIN_NAMES)
            p.add_argument("--params", default="{}", help="JSON object of model parameters")
        if path:
            p.add_argument("--path", required=True, help="binary observation path file")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--functionals", type=lambda text: text.split(","), default="x",
                           help="comma-separated built-in functional names")
        return p

    p = command("simulate-data", _simulate_data, "generate an observation path file", path=False)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--L-data", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="pbar")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also export increments as CSV to this file")

    p = command("run-pf", _run_pf, "run one particle filter")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--resample-policy", choices=RESAMPLE_POLICIES, default="ess_below_half")

    p = command("run-cpf", _run_cpf, "run one coupled particle filter")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coupling", choices=COUPLINGS, default="maximal")
    p.add_argument("--resample-policy", choices=RESAMPLE_POLICIES, default="ess_below_half")

    p = command("run-mlpf", _run_mlpf, "run one multilevel particle filter")
    p.add_argument("--rule", choices=ALLOCATION_RULES, default="mlpf_nonconstant")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--base", type=float, required=True)
    p.add_argument("--coupling", choices=COUPLINGS, default="maximal")
    p.add_argument("--resample-policy", choices=RESAMPLE_POLICIES, default="ess_below_half")

    p = command("truth", _truth, "compute the reference truth for a path")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--n", type=int, default=51200)

    p = command("benchmark", _benchmark, "run a config-driven benchmark sweep", model=False, path=False)
    p.add_argument("--config", required=True, help="JSON benchmark configuration")
    p.add_argument("--workers", type=int, help="override worker count")
    p.add_argument("--output-dir", help="override output directory")
    p.add_argument("--quiet", action="store_true")

    p = command("slope", _slope, "fit log-log cost-vs-MSE slopes from a summary CSV",
                model=False, path=False)
    p.add_argument("--summary", required=True)
    p.add_argument("--estimator", help="restrict to one estimator id")
    return ap


def _keyed(values: dict) -> dict:
    """``{(t, fid): v}`` as JSON keys ``"t:fid"``, in sorted order."""
    return {f"{t}:{fid}": v for (t, fid), v in sorted(values.items())}


def _read(flag: str, read, *args):
    """``read(*args)``, with the ``ValueError`` of an undecodable file or bad
    JSON naming ``flag``."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _print(payload, indent=1) -> int:
    print(json.dumps(payload, indent=indent))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the one place a command's model is built and its path file read
        model = (builtin_model(args.model, _read("--params", json.loads, args.params))
                 if "model" in args else None)
        path = read_path(args.path) if "path" in args else None
        return args.run(args, model, path)
    except bench.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteStateError, DegenerateWeightsError, OSError, MemoryError) as exc:  # run time
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _simulate_data(args, model, _) -> int:
    path = simulate_observations(args.mode, model, args.T, args.L_data, args.seed)
    write_path(path, args.out)
    if args.csv:
        export_csv(path, args.csv)
    return _print({"out": args.out, "T": path.T, "L_data": path.L_data,
                   "increments": int(path.increments.shape[0])}, indent=None)


def _run_pf(args, model, path) -> int:
    return _print(_estimates_json(pf_run(model, path, args.level, args.n, args.functionals,
                                         resample_policy=args.resample_policy, seed=args.seed)))


def _run_cpf(args, model, path) -> int:
    return _print(_estimates_json(cpf_run(model, path, args.level, args.n, args.functionals,
                                          resample_policy=args.resample_policy, seed=args.seed,
                                          coupling=args.coupling)))


def _estimates_json(out):
    payload = {
        "level": out.level,
        "n_particles": out.n_particles,
        "estimates": _keyed(out.estimates),
        "log_normalizer": out.log_normalizer,
        "cost_units": out.cost_units,
        "resample_count": out.diagnostics.resample_count,
        "min_ess": out.diagnostics.min_ess,
        "mean_ess": out.diagnostics.mean_ess,
    }
    if out.fine_estimates is not None:
        payload["fine_estimates"] = _keyed(out.fine_estimates)
        payload["coarse_estimates"] = _keyed(out.coarse_estimates)
        payload["log_normalizer_coarse"] = out.log_normalizer_coarse
        payload["coupling_fraction"] = out.diagnostics.coupling_fraction
        payload["same_ancestor_fraction"] = out.final_same_ancestor_fraction
    return payload


def _run_mlpf(args, model, path) -> int:
    allocation = allocate(args.rule, args.L, args.base, constant_diffusion=model.sigma is not None)
    out = mlpf_run(model, path, allocation, args.functionals, resample_policy=args.resample_policy,
                   coupling=args.coupling, seed=args.seed)
    return _print({
        "rule": allocation.rule,
        "L": allocation.L,
        "counts": list(allocation.counts),
        "cost_units": out.cost_units,
        "planned_cost": total_cost(allocation, path.T),
        "estimates": _keyed(out.estimates),
    })


def _truth(args, model, path) -> int:
    truth = reference_truth(model, path, args.level, args.n, args.functionals, seed=args.seed)
    errors = truth.standard_errors
    return _print({"kind": truth.kind, "estimates": _keyed(truth.estimates),
                   "standard_errors": None if errors is None else _keyed(errors)})


def _benchmark(args, *_) -> int:
    with open(args.config) as f:
        raw = _read(f"--config {args.config}", json.load, f)
    if isinstance(raw, dict):  # parse_config rejects any other value, naming config
        for key, value in (("workers", args.workers), ("output_dir", args.output_dir)):
            if value is not None:
                raw[key] = value
    cfg = bench.parse_config(raw)
    progress = None if args.quiet else (
        lambda i, n: print(f"\r{i}/{n} replicates", end="", file=sys.stderr))
    try:
        records, summary = bench.run_benchmark(cfg, progress=progress)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return EXIT_RUNTIME
    if not args.quiet:
        print("", file=sys.stderr)
    written = bench.emit_outputs(records, summary, cfg.output_dir)
    return _print({"records": len(records), "outputs": written})


def _slope(args, *_) -> int:
    by_est: dict = {}
    with open(args.summary, newline="") as f:
        reader = csv.DictReader(_read(f"--summary {args.summary}", f.readlines))
        columns = reader.fieldnames or ()
        missing = [c for c in ("estimator", "mean_cost", "mse") if c not in columns]
        if missing:
            raise ValueError(f"summary file has no column {', '.join(missing)}")
        for row in reader:
            if not args.estimator or row["estimator"] == args.estimator:
                try:
                    point = (float(row["mean_cost"]), float(row["mse"]))
                except (TypeError, ValueError):  # a short row reads None
                    raise ValueError(f"summary line {reader.line_num}: mean_cost "
                                     f"{row['mean_cost']!r} and mse {row['mse']!r} must be "
                                     f"numbers") from None
                by_est.setdefault(row["estimator"], []).append(point)
    if not by_est:
        raise ValueError("no matching rows in summary file")
    out = {}
    for est, pts in sorted(by_est.items()):
        slope, intercept, r2 = bench.fit_slope(pts)
        out[est] = {"slope": slope, "intercept": intercept, "r2": r2, "points": len(pts)}
    return _print(out)


if __name__ == "__main__":
    sys.exit(main())
