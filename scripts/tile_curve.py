#!/usr/bin/env python3
"""Cost and memory of a cut ``pf_run`` against the noise tile cap.

For each level l and each cap on a noise tile, runs one gbm replicate whose
noise block per unit interval is ``--block-mib`` MiB (N = block / 2**l
particles).  ``filters._cuts`` draws a block ahead, in tiles, on the helper
thread when it has at least ``AHEAD_TILE_ROWS`` rows and at least half a
tile (half the cap) of particle-steps, so every block is drawn ahead when
the cap is at most twice the block and N is at least ``AHEAD_TILE_ROWS``.
A call's rows are cut by ``filters._cuts`` alone, whatever its replicate
count, so R replicates of N / R particles give the same tiles.  It prints
the median ns per particle-step of k timed runs and the tracemalloc peak of
one more run.  The caps are run in turn within each round, so a drift in
the host's speed falls on all of them alike.

The cap is set through ``mlpf.filters.MAX_TILE_PARTICLE_STEPS``, as the
filters read it on every call.  A tile drawn ahead keeps at least
``AHEAD_TILE_ROWS`` rows, so at fine levels small caps give the same tiles;
the ``rows`` column shows the tile each cap gives.

With ``--rows``, each level instead runs one replicate of each given row
count under the default cap, which prints the small-N curve: the fixed
cost of an Euler step shows in the us/step column at tens of rows, and the
per-particle cost in ns/step at thousands.

Examples:
    python3 scripts/tile_curve.py --k 5
    python3 scripts/tile_curve.py --levels 7 9 --rows 16 46 276 1024 2560 --k 9
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mlpf import filters  # noqa: E402
from mlpf.models import builtin_model  # noqa: E402
from mlpf.observations import simulate_observations  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--levels", type=int, nargs="+", default=[5, 6, 7, 8, 9])
    ap.add_argument("--caps-mib", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    ap.add_argument("--block-mib", type=int, default=32, help="noise block per unit interval")
    ap.add_argument("--rows", type=int, nargs="+",
                    help="row counts to run at every level, under the default cap, "
                         "in place of --caps-mib and --block-mib")
    ap.add_argument("--T", type=int, default=2)
    ap.add_argument("--k", type=int, default=5, help="timed runs per level and cap")
    args = ap.parse_args()

    model = builtin_model("gbm", {})
    path = simulate_observations("p", model, args.T, max(args.levels), seed=700)
    default_cap = filters.MAX_TILE_PARTICLE_STEPS
    print(f"{'l':>2} {'N':>7} {'cap MiB':>7} {'rows':>6} {'tiles':>5} {'us/step':>8} "
          f"{'ns/step':>8} {'IQR':>11} {'peak MiB':>8}")
    try:
        for l in args.levels:
            # (cap in particle-steps, particles) of each run at this level
            if args.rows:
                runs = [(default_cap, rows) for rows in args.rows]
            else:
                runs = [(cap << 17, (args.block_mib << 17) >> l) for cap in args.caps_mib]

            def run(n):
                filters.pf_run(model, path, l, n, ["x"], seed=(11,))

            times = [[] for _ in runs]
            for _ in range(args.k + 1):  # the first round warms up
                for (cap, n), ts in zip(runs, times):
                    filters.MAX_TILE_PARTICLE_STEPS = cap
                    t0 = time.perf_counter()
                    run(n)
                    ts.append(time.perf_counter() - t0)
            for (cap, n), ts in zip(runs, times):
                filters.MAX_TILE_PARTICLE_STEPS = cap
                cuts, _ = filters._cuts(n, l)
                tracemalloc.start()
                run(n)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                steps = [t / ((1 << l) * args.T) for t in ts[1:]]
                ns = [t * 1e9 / n for t in steps]
                q = statistics.quantiles(ns, n=4) if len(ns) > 1 else (ns[0], ns[0], ns[0])
                print(f"{l:2d} {n:7d} {cap >> 17:7d} {cuts[0].stop:6d} {len(cuts):5d} "
                      f"{statistics.median(steps) * 1e6:8.2f} {statistics.median(ns):8.1f} "
                      f"{q[0]:5.1f}-{q[2]:5.1f} {peak / 2 ** 20:8.1f}", flush=True)
    finally:
        filters.MAX_TILE_PARTICLE_STEPS = default_cap


if __name__ == "__main__":
    main()
