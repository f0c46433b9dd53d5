#!/usr/bin/env python3
"""Desk-scale cost-versus-MSE benchmark.

Runs the single-level particle filter and the multilevel estimator over
L in {3..7} on a chosen model, writes records/summary CSVs, a JSON dump,
and a log-log SVG plot, then prints the fitted slopes.

Example:
    python3 scripts/desk_benchmark.py --model ou --out results/ou
    python3 scripts/desk_benchmark.py --model gbm --repeats 40 --workers 8
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mlpf.bench import emit_outputs, fit_slope, parse_config, run_benchmark  # noqa: E402
from mlpf.models import BUILTIN_NAMES, builtin_model  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", choices=BUILTIN_NAMES, default="ou")
    ap.add_argument("--T", type=int, default=10)
    ap.add_argument("--L-min", type=int, default=3)
    ap.add_argument("--L-max", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--pf-base", type=float, default=20.0)
    ap.add_argument("--ml-base", type=float, default=None,
                    help="default: 4 for constant-diffusion models, 2 otherwise")
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--data-seed", type=int, default=700)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=None, help="output directory (default results/<model>)")
    args = ap.parse_args()

    model = builtin_model(args.model, {})
    ml_rule = "mlpf_constant" if model.sigma is not None else "mlpf_nonconstant"
    ml_base = args.ml_base if args.ml_base is not None else (4.0 if model.sigma is not None else 2.0)
    out_dir = args.out or os.path.join("results", args.model)

    cfg = parse_config({
        "model": args.model,
        "T": args.T,
        "L_data": max(args.L_max + 2, 9),
        "data_mode": "p",
        "data_seed": args.data_seed,
        "repeats": args.repeats,
        "master_seed": args.seed,
        "output_dir": out_dir,
        "truth_level": max(args.L_max + 2, 9),
        "truth_n": 51200,
        "workers": args.workers,
        "estimators": [
            {"id": "single_pf", "rule": "single_pf",
             "L_min": args.L_min, "L_max": args.L_max, "base": args.pf_base},
            {"id": "mlpf", "rule": ml_rule,
             "L_min": args.L_min, "L_max": args.L_max, "base": ml_base},
        ],
    })
    print(f"model={args.model} rule={ml_rule} L in [{args.L_min}, {args.L_max}] "
          f"repeats={args.repeats} workers={args.workers}")
    records, summary = run_benchmark(
        cfg, progress=lambda i, n: print(f"\r{i}/{n} replicates", end="", file=sys.stderr))
    print("", file=sys.stderr)
    written = emit_outputs(records, summary, out_dir)
    slopes = {}
    for est in ("single_pf", "mlpf"):
        pts = [(r["mean_cost"], r["mse"]) for r in summary if r["estimator"] == est]
        slope, _, r2 = fit_slope(pts)
        slopes[est] = {"slope": round(slope, 3), "r2": round(r2, 4)}
    print(json.dumps({"slopes": slopes, "outputs": written}, indent=1))


if __name__ == "__main__":
    main()
