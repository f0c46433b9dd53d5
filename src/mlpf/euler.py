"""Euler propagation over one unit time interval with accumulated log-potentials.

States are scalar, so the shapes are (N,) states, (2**l,) observation
increments and (N, 2**l) noise, one row per particle.  The per-step loop
does only arithmetic, with its input checks at the interval boundary.  The
coupled propagation drives the coarse chain with pairwise sums of the fine
Brownian increments, so its fine half is bit-identical to a standalone fine
propagation given the same noise block.  A propagation returns each
particle's endpoint and summed log-potential, which is all the filters'
estimates at integer report times need; no state inside the interval is
kept.

Every operation in the loop is elementwise, so the particle axis may hold
several independent filters on the same observation path: the filters stack
R replicates of N particles as R*N rows and step them all in one Python
iteration per Euler step, and each replicate's rows come out exactly as if
it had been propagated alone.

The step itself allocates nothing: the log-potential and the update run
into (N,) buffers made once per call, in the fixed operation order
h*dy - (delta/2)*(h*h) and (x + b(x)*delta) + s*xi, and the first step's
new states go into the one array that later steps update in place.  Here s
is the model's constant ``sigma`` when it has one, so the diffusion is then
never called, and sigma(x) otherwise; since s*xi == xi*s in IEEE
arithmetic, both give the same bytes.  Only the model's own callables
allocate per step.  Neither the caller's states nor its noise block is
written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec

__all__ = [
    "NonFiniteStateError",
    "UnitPropagation",
    "CoupledUnitPropagation",
    "propagate_unit",
    "propagate_unit_coupled",
]


@dataclass(frozen=True)
class UnitPropagation:
    """Result of propagating a batch of particles across one unit interval."""

    level: int
    endpoint: np.ndarray  # (N,)
    log_g_total: np.ndarray  # (N,)


@dataclass(frozen=True)
class CoupledUnitPropagation:
    fine: UnitPropagation
    coarse: UnitPropagation


class NonFiniteStateError(ValueError):
    """A state, or an observation increment, is not finite: a runtime fault."""


_NON_FINITE = "non-finite state or observation increment"


def _log_g(h, dy: float, delta: float, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Per-step log-potential h * dy - delta/2 * h^2 for observed values h,
    written into ``out`` with ``work`` as scratch."""
    hh = np.multiply(np.multiply(h, h, out=work), 0.5 * delta, out=work)
    return np.subtract(np.multiply(h, dy, out=out), hh, out=out)


def propagate_unit(
    model: ModelSpec,
    l: int,
    x0: np.ndarray,
    obs: np.ndarray,
    noise: np.ndarray,
) -> UnitPropagation:
    """Iterate 2**l Euler steps from x0 (N,), accumulating log-potentials.

    ``obs`` holds the 2**l level-l observation increments, shape (2**l,),
    ``noise`` the 2**l Brownian increments per particle (shape (N, 2**l),
    each with variance 2**-l).  The potential at each step is evaluated at the
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
    if x0.ndim != 1:
        raise ValueError(f"x0 must have shape (N,), got {x0.shape}")
    n = x0.shape[0]
    if obs.shape != (steps,):
        raise ValueError(f"expected observation increments of shape ({steps},), got {obs.shape}")
    if noise.shape != (n, steps):
        raise ValueError(f"noise shape {noise.shape} incompatible with ({n}, {steps})")
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(obs))):
        raise NonFiniteStateError(_NON_FINITE)
    dys = obs.tolist()
    xi = noise.T  # row k: the step-k increments of every particle
    drift, diffusion, observation, sigma = model.drift, model.diffusion, model.observation, model.sigma
    x = x0  # the first step writes a new array, the private state that later steps update
    log_g = np.zeros(n)
    a = np.empty(n)
    b = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            np.add(log_g, _log_g(observation(x), dys[k], delta, a, b), out=log_g)
            np.add(x, np.multiply(drift(x), delta, out=a), out=a)
            if sigma is None:
                np.multiply(diffusion(x), xi[k], out=b)
            else:
                np.multiply(xi[k], sigma, out=b)
            x = np.add(a, b, out=None if x is x0 else x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteStateError(_NON_FINITE)
    return UnitPropagation(l, x, log_g)


def propagate_unit_coupled(
    model: ModelSpec,
    l: int,
    x_fine: np.ndarray,
    x_coarse: np.ndarray,
    obs_fine: np.ndarray,
    obs_coarse: np.ndarray,
    noise: np.ndarray,
    coarse_noise: np.ndarray | None = None,
) -> CoupledUnitPropagation:
    """Couple level-l and level-(l-1) propagation through common Brownian increments.

    The coarse chain consumes the pairwise sums of the fine noise, so both
    marginals coincide bit-for-bit with standalone propagations.  The sums
    are written into ``coarse_noise``, an (N, 2**(l-1)) buffer, when one is
    given, and into a new array otherwise.
    """
    if l < 1:
        raise ValueError("coupled propagation needs l >= 1")
    noise = np.asarray(noise, dtype=float)
    fine = propagate_unit(model, l, x_fine, obs_fine, noise)
    coarse_noise = np.add(noise[:, 0::2], noise[:, 1::2], out=coarse_noise)
    coarse = propagate_unit(model, l - 1, x_coarse, obs_coarse, coarse_noise)
    return CoupledUnitPropagation(fine, coarse)
