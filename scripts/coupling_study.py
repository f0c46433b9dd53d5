#!/usr/bin/env python3
"""Diagnostics for the level-(l, l-1) coupling.

Three quick studies on a chosen model:
  strong    mean-square fine/coarse endpoint gap per level (driftless paths)
  ancestors decay of the fraction of pairs with a common ancestral line
  variance  decay of the variance of the time-T difference estimator

Each prints a per-level table and the fitted log2 slope.

Example:
    python3 scripts/coupling_study.py --model gbm strong
    python3 scripts/coupling_study.py --model ou ancestors variance
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mlpf import streams  # noqa: E402
from mlpf.euler import propagate_unit_coupled  # noqa: E402
from mlpf.filters import cpf_run  # noqa: E402
from mlpf.models import BUILTIN_NAMES, builtin_model  # noqa: E402
from mlpf.observations import simulate_observations  # noqa: E402


def fit(levels, log_vals, label):
    if not np.all(np.isfinite(log_vals)):
        print(f"  {label} hit zero at some level; no slope fit (try larger --T or --n)\n")
        return
    slope = np.polyfit(levels, log_vals, 1)[0]
    print(f"  fitted slope of log2 {label} vs level: {slope:.3f}\n")


def study_strong(model, args):
    print("strong coupling: E|fine - coarse|^2 over one unit interval")
    levels = list(range(args.l_min, args.l_max + 1))
    logs = []
    for l in levels:
        noise = np.sqrt(2.0 ** -l) * streams.noise_block(args.seed, l, 0, args.samples)
        x0 = np.full(args.samples, model.x_star)
        cp = propagate_unit_coupled(model, l, x0, x0, np.zeros(1 << l), np.zeros(1 << (l - 1)), noise)
        err2 = float(np.mean((cp.fine.endpoint - cp.coarse.endpoint) ** 2))
        logs.append(np.log2(err2))
        print(f"  l={l}  E|gap|^2 = {err2:.3e}")
    fit(levels, logs, "E|gap|^2")


def study_ancestors(model, args):
    print("same-ancestor fraction at the terminal time")
    path = simulate_observations("p", model, args.T, args.l_max + 1, args.seed)
    levels = list(range(max(args.l_min, 1), args.l_max + 1))
    logs = []
    for l in levels:
        fracs = [cpf_run(model, path, l, args.n, ["x"], seed=100 * l + r).final_same_ancestor_fraction
                 for r in range(args.repeats)]
        defect = 1.0 - float(np.mean(fracs))
        logs.append(np.log2(defect))
        print(f"  l={l}  mean fraction = {np.mean(fracs):.4f}  (1 - fraction = {defect:.4f})")
    fit(levels, logs, "(1 - fraction)")


def study_variance(model, args):
    print("variance of the time-T difference estimator")
    path = simulate_observations("p", model, args.T, args.l_max + 1, args.seed)
    levels = list(range(max(args.l_min, 1), args.l_max + 1))
    logs = []
    for l in levels:
        vals = [cpf_run(model, path, l, args.n, ["x"], seed=977 * l + r).estimates[(float(args.T), "x")]
                for r in range(args.repeats)]
        var = float(np.var(vals, ddof=1))
        logs.append(np.log2(var))
        print(f"  l={l}  var = {var:.3e}")
    fit(levels, logs, "variance")


STUDIES = {"strong": study_strong, "ancestors": study_ancestors, "variance": study_variance}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("studies", nargs="+", choices=sorted(STUDIES))
    ap.add_argument("--model", choices=BUILTIN_NAMES, default="ou")
    ap.add_argument("--l-min", type=int, default=3)
    ap.add_argument("--l-max", type=int, default=7)
    ap.add_argument("--T", type=int, default=10)
    ap.add_argument("--n", type=int, default=1000, help="particles per filter run")
    ap.add_argument("--samples", type=int, default=10_000, help="paths for the strong study")
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--seed", type=int, default=41)
    args = ap.parse_args()
    model = builtin_model(args.model, {})
    for name in args.studies:
        STUDIES[name](model, args)


if __name__ == "__main__":
    main()
