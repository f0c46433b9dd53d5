"""Sample allocation across levels, the multilevel estimator, and cost accounting."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import streams
from .filters import FilterOutput, cpf_run, pf_run
from .models import ModelSpec
from .observations import ObservationPath

__all__ = ["LevelAllocation", "MLPFOutput", "allocate", "total_cost", "mlpf_run", "ALLOCATION_RULES"]

ALLOCATION_RULES = ("mlpf_nonconstant", "mlpf_constant", "wasserstein_new", "single_pf")


@dataclass(frozen=True)
class LevelAllocation:
    L: int
    counts: tuple  # N_0..N_L for multilevel rules; (N,) at level L for single_pf
    rule: str
    base: float

    @property
    def epsilon(self) -> float:
        """Implied accuracy target: bias matched via epsilon^2 = 2**-L."""
        return 2.0 ** (-self.L / 2.0)


def allocate(rule: str, L: int, base: float, constant_diffusion: bool = True) -> LevelAllocation:
    """Per-level particle counts for a target highest level.

    With eps^2 = 2**-L: "mlpf_nonconstant" uses N_l ~ eps^-2 * 2^(L/4) * 2^(-3l/4);
    "mlpf_constant" uses N_l ~ eps^-2 * 2^-l * L; "wasserstein_new" uses
    eps^-2 * 2^(-3l/2) when the signal diffusion is constant and the
    "mlpf_constant" counts otherwise; "single_pf" puts ceil(base * eps^-2)
    particles at level L.  All counts are floored at 2.
    """
    if rule not in ALLOCATION_RULES:
        raise ValueError(f"rule must be one of {ALLOCATION_RULES}")
    if L < 0 or base <= 0:
        raise ValueError("need L >= 0 and base > 0")
    inv_eps2 = float(2 ** L)
    if rule == "single_pf":
        return LevelAllocation(L, (max(2, math.ceil(base * inv_eps2)),), rule, base)
    if L == 0:
        warnings.warn(f"L=0 with rule {rule!r}: degrading to single_pf")
        return LevelAllocation(0, (max(2, math.ceil(base * inv_eps2)),), "single_pf", base)
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
        counts.append(max(2, math.ceil(raw - 1e-9)))
    return LevelAllocation(L, tuple(counts), rule, base)


def total_cost(allocation: LevelAllocation, T: int = 1) -> int:
    """Total Euler steps implied by an allocation over a horizon of T unit intervals."""
    if allocation.rule == "single_pf":
        return T * allocation.counts[0] * (1 << allocation.L)
    cost = allocation.counts[0]
    for l in range(1, allocation.L + 1):
        cost += allocation.counts[l] * ((1 << l) + (1 << (l - 1)))
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
    intermediate_times=None,
):
    """One level-0 PF plus L independent CPFs, combined by the telescoping sum.

    Per-level seeds derive from ``(seed, level)`` so levels are independent
    and insensitive to execution order.  Combined estimates sum the level-0
    value and the difference estimators in ascending level order.  ``seed``
    may be a tuple of ints: every level then runs all replicates at once
    (stacked by ``pf_run`` and ``cpf_run``) and one ``MLPFOutput`` per seed
    is returned, each equal to the single-seed run.
    """
    if allocation.L > path.L_data:
        raise ValueError(f"allocation level {allocation.L} exceeds data frequency {path.L_data}")
    seeds = seed if isinstance(seed, tuple) else (seed,)

    def level_seeds(l):
        return tuple(streams.level_seed(s, l) for s in seeds)

    if allocation.rule == "single_pf":
        outs = pf_run(
            model, path, allocation.L, allocation.counts[0], functionals,
            report_times=report_times, resample_policy=resample_policy,
            seed=level_seeds(allocation.L), intermediate_times=intermediate_times,
        )
        results = tuple(MLPFOutput(allocation, (out,), dict(out.estimates), out.cost_units)
                        for out in outs)
        return results if isinstance(seed, tuple) else results[0]
    # intermediate combined estimates are based at the coarsest CPF level whose
    # grid contains the requested time; the level-0 half-open grid is empty
    base_inter = _intermediate_base_levels(intermediate_times, allocation.L)
    levels = [pf_run(
        model, path, 0, allocation.counts[0], functionals,
        report_times=report_times, resample_policy=resample_policy, seed=level_seeds(0),
    )]
    for l in range(1, allocation.L + 1):
        inter_l = [t for t, lb in base_inter.items() if lb <= l] if base_inter else None
        levels.append(cpf_run(
            model, path, l, allocation.counts[l], functionals,
            report_times=report_times, resample_policy=resample_policy,
            seed=level_seeds(l), coupling=coupling, intermediate_times=inter_l,
        ))
    results = tuple(_combine(allocation, outputs, base_inter) for outputs in zip(*levels))
    return results if isinstance(seed, tuple) else results[0]


def _combine(allocation: LevelAllocation, outputs: tuple, base_inter: dict) -> MLPFOutput:
    """Telescoping sum of one replicate's level outputs, in ascending level order."""
    out0 = outputs[0]
    combined: dict = {}
    for key, value in out0.estimates.items():
        acc = value
        for out in outputs[1:]:
            acc = acc + out.estimates[key]
        combined[key] = acc
    for t, lb in base_inter.items():
        cpf_base = outputs[lb]
        for key in [k for k in cpf_base.fine_estimates if k[0] == t]:
            # base term: the fine-level estimate of the coarsest usable CPF,
            # then the telescoping differences from the finer levels
            acc = cpf_base.fine_estimates[key]
            for out in outputs[lb + 1 :]:
                acc += out.estimates[key]
            combined[key] = acc
    cost = sum(out.cost_units for out in outputs)
    return MLPFOutput(allocation, tuple(outputs), combined, cost)


def _intermediate_base_levels(intermediate_times, L):
    """Coarsest CPF level whose coarse grid contains each fractional time."""
    if not intermediate_times:
        return {}
    out = {}
    for t in intermediate_times:
        frac = t - math.floor(t)
        base = None
        for l in range(1, L + 1):
            j = frac * 2 ** (l - 1)
            if abs(j - round(j)) < 1e-9 and 1 <= round(j) <= 2 ** (l - 1) - 1:
                base = l
                break
        if base is None:
            raise ValueError(f"intermediate time {t} not on any coarse grid up to level {L}")
        out[float(t)] = base
    return out
