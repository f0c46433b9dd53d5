"""Euler propagation over one unit time interval with accumulated log-potentials.

States are scalar; the per-step loop works on flat (N,) views and does
only arithmetic, with its input checks at the interval boundary.  The coupled
propagation drives the coarse chain with pairwise sums of the fine Brownian
increments, so its fine half is bit-identical to a standalone fine
propagation given the same noise block.

Every operation in the loop is elementwise, so the particle axis may hold
several independent filters on the same observation path: the filters stack
R replicates of N particles as R*N rows and step them all in one Python
iteration per Euler step, and each replicate's rows come out exactly as if
it had been propagated alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec

__all__ = [
    "NonFiniteStateError",
    "UnitPropagation",
    "CoupledUnitPropagation",
    "log_potential",
    "propagate_unit",
    "propagate_unit_coupled",
]


@dataclass(frozen=True)
class UnitPropagation:
    """Result of propagating a batch of particles across one unit interval."""

    level: int
    endpoint: np.ndarray  # (N, 1)
    log_g_total: np.ndarray  # (N,)
    partial_log_g: np.ndarray | None = None  # (N, 2**level) running sums
    intermediate_states: np.ndarray | None = None  # (N, 2**level + 1, 1)

    def rows(self, sl: slice) -> UnitPropagation:
        """Views of the particles in ``sl``, e.g. one replicate of a stacked batch."""
        return UnitPropagation(
            self.level, self.endpoint[sl], self.log_g_total[sl],
            None if self.partial_log_g is None else self.partial_log_g[sl],
            None if self.intermediate_states is None else self.intermediate_states[sl],
        )


@dataclass(frozen=True)
class CoupledUnitPropagation:
    fine: UnitPropagation
    coarse: UnitPropagation


class NonFiniteStateError(ValueError):
    """A state, or an observation increment, is not finite: a runtime fault."""


_NON_FINITE = "non-finite inputs to log_potential"


def _log_g(h, dy: float, delta: float):
    """Per-step log-potential h * dy - delta/2 * h^2 for observed values h."""
    return h * dy - 0.5 * delta * (h * h)


def log_potential(model: ModelSpec, x: np.ndarray, dy: np.ndarray, delta: float) -> np.ndarray:
    """log G for states x (N, 1), observation increment dy (1,), step delta."""
    if delta <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x, dtype=float).reshape(-1)
    dy = np.asarray(dy, dtype=float).reshape(())
    if not (np.all(np.isfinite(x)) and np.isfinite(dy)):
        raise NonFiniteStateError(_NON_FINITE)
    return _log_g(model.observation(x), float(dy), delta)


def propagate_unit(
    model: ModelSpec,
    l: int,
    x0: np.ndarray,
    obs: np.ndarray,
    noise: np.ndarray,
    retain: bool = False,
) -> UnitPropagation:
    """Iterate 2**l Euler steps from x0 (N, 1), accumulating log-potentials.

    ``obs`` holds the 2**l level-l observation increments, ``noise`` the
    2**l Brownian increments per particle (shape (N, 2**l, 1), each with
    variance 2**-l).  The potential at each step is evaluated at the
    pre-step state; the endpoint's potential belongs to the next interval.

    Inputs are checked once: x0 and ``obs`` on entry, and the endpoint
    after the loop.  A non-finite state stays non-finite through
    x + b(x) * delta + sigma(x) * xi, so a finite endpoint implies finite
    pre-step states, and a state that overflows on any step, the last one
    included, raises ``NonFiniteStateError``.  The loop runs with numpy's
    overflow and invalid-value warnings off, since this check reports them.
    """
    steps = 1 << l
    delta = 2.0 ** (-l)
    x0 = np.asarray(x0, dtype=float)
    obs = np.asarray(obs, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if x0.ndim != 2 or x0.shape[1] != 1:
        raise ValueError(f"x0 must have shape (N, 1), got {x0.shape}")
    n = x0.shape[0]
    if obs.shape != (steps, 1):
        raise ValueError(f"expected {steps} observation increments of shape ({steps}, 1), got {obs.shape}")
    if noise.shape != (n, steps, 1):
        raise ValueError(f"noise shape {noise.shape} incompatible with ({n}, {steps}, 1)")
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(obs))):
        raise NonFiniteStateError(_NON_FINITE)
    dys = obs[:, 0].tolist()
    xi = noise[:, :, 0].T  # row k: the step-k increments of every particle
    x = x0[:, 0]
    log_g = np.zeros(n)
    partials = np.empty((n, steps)) if retain else None
    states = np.empty((n, steps + 1, 1)) if retain else None
    if retain:
        states[:, 0, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            log_g += _log_g(model.observation(x), dys[k], delta)
            x = x + model.drift(x) * delta + model.diffusion(x) * xi[k]
            if retain:
                partials[:, k] = log_g
                states[:, k + 1, 0] = x
    if not np.all(np.isfinite(x)):
        raise NonFiniteStateError(_NON_FINITE)
    return UnitPropagation(l, x[:, None], log_g, partials, states)


def propagate_unit_coupled(
    model: ModelSpec,
    l: int,
    x_fine: np.ndarray,
    x_coarse: np.ndarray,
    obs_fine: np.ndarray,
    obs_coarse: np.ndarray,
    noise: np.ndarray,
    retain: bool = False,
) -> CoupledUnitPropagation:
    """Couple level-l and level-(l-1) propagation through common Brownian increments.

    The coarse chain consumes the pairwise sums of the fine noise, so both
    marginals coincide bit-for-bit with standalone propagations.
    """
    if l < 1:
        raise ValueError("coupled propagation needs l >= 1")
    noise = np.asarray(noise, dtype=float)
    fine = propagate_unit(model, l, x_fine, obs_fine, noise, retain=retain)
    coarse_noise = noise[:, 0::2] + noise[:, 1::2]
    coarse = propagate_unit(model, l - 1, x_coarse, obs_coarse, coarse_noise, retain=retain)
    return CoupledUnitPropagation(fine, coarse)
