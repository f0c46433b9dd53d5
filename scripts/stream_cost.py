#!/usr/bin/env python3
"""Cost of opening a filter call's random streams: one SeedSequence each
against one batched key pass.

For each count of keys per pass, opens that many streams keyed like a
filter call's, (seed, purpose, level, interval) with seeds in [2**63, 2**64)
and the two purposes of a call, in two ways:

- ``seedseq``: a ``SeedSequence`` and a new Philox generator per stream, as
  every filter stream was opened before the keys were batched;
- ``keyed``: one ``streams.stream_keys`` pass for all the keys, then
  ``streams.open_stream`` on one reused generator per key, as the filters
  open them now.

It prints the median us per stream opened over k timed rounds, with the
quartiles, and the keyed pass's parts: the key pass alone and one reset.
The two ways run in turn within each round, so a drift in the host's speed
falls on both alike.  Both open the same streams, which is checked.

Example:
    python3 scripts/stream_cost.py --k 7
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mlpf import streams  # noqa: E402

LEVEL, INTERVAL = 5, 3


def seedseq(seeds: list, purposes: tuple) -> list:
    return [np.random.Generator(np.random.Philox(np.random.SeedSequence(
        s, spawn_key=(p, LEVEL, INTERVAL)))) for s in seeds for p in purposes]


def keyed(seeds: list, purposes: tuple) -> list:
    keys = streams.stream_keys(np.array(seeds, dtype=np.uint64)[:, None], np.array(purposes),
                               LEVEL, INTERVAL)
    stream = None
    for key in keys.reshape(-1, 2).tolist():
        stream = streams.open_stream(key, stream)
    return keys


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def summary(us: list) -> str:
    q = statistics.quantiles(us, n=4) if len(us) > 1 else (us[0], us[0], us[0])
    return f"{statistics.median(us):8.2f} {q[0]:6.2f}-{q[2]:6.2f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--keys", type=int, nargs="+", default=[12, 24, 400, 2000],
                    help="streams per pass, each an even count")
    ap.add_argument("--k", type=int, default=7, help="timed rounds per count")
    args = ap.parse_args()

    purposes = (streams.TAG_NOISE, streams.TAG_RESAMPLE)
    print(f"{'keys':>5} {'seedseq us':>8} {'IQR':>13} {'keyed us':>8} {'IQR':>13} "
          f"{'speed-up':>8} {'pass us':>8} {'reset us':>8}")
    for n in args.keys:
        seeds = [2 ** 63 + 7919 * i for i in range(n // len(purposes))]
        count = len(seeds) * len(purposes)
        keys = keyed(seeds, purposes).reshape(-1, 2)
        refs = seedseq(seeds, purposes)
        assert all(np.array_equal(g.bit_generator.state["state"]["key"], k)
                   for g, k in zip(refs, keys))
        old, new, passes = [], [], []
        for _ in range(args.k + 1):  # the first round warms up
            old.append(timed(seedseq, seeds, purposes) * 1e6 / count)
            new.append(timed(keyed, seeds, purposes) * 1e6 / count)
            passes.append(timed(streams.stream_keys, np.array(seeds, dtype=np.uint64)[:, None],
                                np.array(purposes), LEVEL, INTERVAL) * 1e6)
        stream = streams.open_stream(keys[0])
        rows = keys.tolist()
        t0 = time.perf_counter()
        for key in rows:
            streams.open_stream(key, stream)
        reset = (time.perf_counter() - t0) * 1e6 / count
        old, new = old[1:], new[1:]
        print(f"{count:5d} {summary(old)} {summary(new)} "
              f"{statistics.median(old) / statistics.median(new):7.1f}x "
              f"{statistics.median(passes[1:]):8.1f} {reset:8.2f}", flush=True)


if __name__ == "__main__":
    main()
