"""Sample allocation across levels, the multilevel estimator, and cost accounting.

An allocation is a ladder of levels: a PF on its lowest rung and a
fine-minus-coarse CPF on each rung above, up to L, whose estimates sum
(telescope) at each integer report time.  Multilevel rules start at level
0; "single_pf" is the one-rung ladder at level L.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import streams
from .filters import _call_bytes, _call_keys, cpf_run, pf_run, seed_tuple
from .models import ModelSpec
from .observations import ObservationPath

__all__ = ["LevelAllocation", "MLPFOutput", "allocate", "total_cost", "mlpf_run", "ALLOCATION_RULES"]

ALLOCATION_RULES = ("mlpf_nonconstant", "mlpf_constant", "wasserstein_new", "single_pf")


@dataclass(frozen=True)
class LevelAllocation:
    L: int
    counts: tuple  # one per rung lowest..L: N_0..N_L, or (N,) at level L for single_pf
    rule: str
    base: float

    def __post_init__(self):
        rungs = self.L - self.lowest + 1
        if len(self.counts) != rungs:
            raise ValueError(f"{self.rule} at L={self.L} needs {rungs} count(s), got {len(self.counts)}")

    @property
    def lowest(self) -> int:
        """The lowest rung, where the plain PF runs: L for "single_pf", else 0."""
        return self.L if self.rule == "single_pf" else 0


def allocate(rule: str, L: int, base: float, constant_diffusion: bool = True) -> LevelAllocation:
    """Per-level particle counts for a target highest level.

    With eps^2 = 2**-L: "mlpf_nonconstant" uses N_l ~ eps^-2 * 2^(L/4) * 2^(-3l/4);
    "mlpf_constant" uses N_l ~ eps^-2 * 2^-l * L; "wasserstein_new" uses
    eps^-2 * 2^(-3l/2) when the signal diffusion is constant and the
    "mlpf_constant" counts otherwise; "single_pf" puts ceil(base * eps^-2)
    particles at level L.  All counts are floored at 2, and a count whose
    coupled filter call's states and log-weights would need more than
    sys.maxsize bytes is a ``ValueError`` naming ``base``.
    """
    if rule not in ALLOCATION_RULES:
        raise ValueError(f"rule must be one of {ALLOCATION_RULES}")
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    if not 0 < base < math.inf:
        raise ValueError(f"base must be a finite number > 0, got {base}")
    try:
        inv_eps2 = math.ldexp(1.0, L)  # 2**L, without building the integer
    except OverflowError:
        raise ValueError(f"L must be < 1024, where 2**L overflows a float, got {L}") from None

    def count(raw: float) -> int:
        if not _call_bytes(raw, 1, 2) <= sys.maxsize:  # also a count that overflows a float
            raise ValueError(f"base {base} gives a particle count at L={L} too large for "
                             "a coupled filter call's states and log-weights")
        return max(2, math.ceil(raw))

    if rule == "single_pf" or L == 0:
        if rule != "single_pf":
            warnings.warn(f"L=0 with rule {rule!r}: degrading to single_pf")
        return LevelAllocation(L, (count(base * inv_eps2),), "single_pf", base)
    counts = []
    for l in range(L + 1):
        if rule == "mlpf_nonconstant":
            raw = base * inv_eps2 * 2.0 ** (L / 4.0) * 2.0 ** (-3.0 * l / 4.0)
        elif rule == "mlpf_constant":
            raw = base * inv_eps2 * 2.0 ** (-l) * L
        elif constant_diffusion:  # wasserstein_new, constant diffusion
            raw = base * inv_eps2 * 2.0 ** (-1.5 * l)
        else:
            raw = base * inv_eps2 * 2.0 ** (-l) * L
        counts.append(count(raw - 1e-9))
    return LevelAllocation(L, tuple(counts), rule, base)


def total_cost(allocation: LevelAllocation, T: int = 1) -> int:
    """Total Euler steps of an allocation over T unit intervals: 2^l per particle
    on the lowest rung l, 2^l + 2^(l-1) per particle pair on each rung above."""
    lowest = allocation.lowest
    cost = allocation.counts[0] * (1 << lowest)
    for l, n in enumerate(allocation.counts[1:], lowest + 1):
        cost += n * ((1 << l) + (1 << (l - 1)))
    return T * cost


@dataclass(frozen=True)
class MLPFOutput:
    allocation: LevelAllocation
    level_outputs: tuple  # FilterOutput per level, ascending
    estimates: dict  # (time, functional id) -> combined value
    cost_units: int


def mlpf_run(
    model: ModelSpec,
    path: ObservationPath,
    allocation: LevelAllocation,
    functionals,
    report_times=None,
    resample_policy: str = "ess_below_half",
    coupling: str = "maximal",
    seed: int | tuple = 0,
):
    """A PF on the allocation's lowest rung plus an independent CPF on each
    rung above it, combined by the telescoping sum.

    Per-level seeds derive from ``(seed, level)`` so levels are independent
    and insensitive to execution order; the stream keys of every level's
    filter call are derived from them in one pass.  Combined estimates sum
    the lowest rung's value and the difference estimators in ascending level
    order.
    ``seed`` may be a tuple of ints: every level then runs all replicates at once
    (stacked by ``pf_run`` and ``cpf_run``) and one ``MLPFOutput`` per seed
    is returned, each equal to the single-seed run.
    """
    if allocation.L > path.L_data:
        raise ValueError(f"allocation level {allocation.L} exceeds data frequency {path.L_data}")
    seeds = seed_tuple(seed)
    lowest = allocation.lowest
    rungs = np.arange(lowest, lowest + len(allocation.counts))
    # every rung's seeds in one pass, row i holding rung lowest + i's seed of
    # each replicate; then every rung's stream keys in one more
    level_seeds = streams.level_seed(np.array(seeds, dtype=np.uint64), rungs[:, None])
    keys = _call_keys(level_seeds, rungs, path.T)
    rung_seeds = [tuple(row) for row in level_seeds.tolist()]
    levels = [pf_run(
        model, path, lowest, allocation.counts[0], functionals,
        report_times=report_times, resample_policy=resample_policy, seed=rung_seeds[0],
        _keys=keys[0],
    )]
    for l, n in enumerate(allocation.counts[1:], lowest + 1):
        levels.append(cpf_run(
            model, path, l, n, functionals,
            report_times=report_times, resample_policy=resample_policy,
            seed=rung_seeds[l - lowest], coupling=coupling, _keys=keys[l - lowest],
        ))
    results = tuple(_combine(allocation, outputs) for outputs in zip(*levels))
    return results if isinstance(seed, tuple) else results[0]


def _combine(allocation: LevelAllocation, outputs: tuple) -> MLPFOutput:
    """Telescoping sum of one replicate's level outputs, in ascending level order."""
    combined: dict = {}
    for key, acc in outputs[0].estimates.items():
        for out in outputs[1:]:
            acc = acc + out.estimates[key]
        combined[key] = acc
    cost = sum(out.cost_units for out in outputs)
    return MLPFOutput(allocation, tuple(outputs), combined, cost)

