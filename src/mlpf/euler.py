"""Euler propagation over one unit time interval with accumulated log-potentials.

States are scalar, so the shapes are (N,) states, (2**l,) observation
increments and (N, 2**l) noise, one row per particle.  The per-step loop
does only arithmetic, with its input checks at the interval boundary; a
``NonFiniteStateError`` names the first particle whose state is not
finite.  The coupled propagation drives the coarse chain with pairwise sums
of the fine Brownian increments, so its fine half is bit-identical to a
standalone fine propagation given the same noise block.  A propagation returns each
particle's endpoint and summed log-potential, which is all the filters'
estimates at integer report times need; no state inside the interval is
kept.

Every operation in the loop is elementwise, so the particle axis may hold
several independent filters on the same observation path: the filters stack
R replicates of N particles as R*N rows and step them all in one Python
iteration per Euler step, and each replicate's rows come out exactly as if
it had been propagated alone.

Steps run in blocks of K, where K*N is at most ``BLOCK_PARTICLE_STEPS`` (at
least one step, at most the interval's 2**l).  A step writes its new states
into row j+1 of a (K, N) buffer, as (x + b(x)*delta) + xi*s, where s is the
model's constant ``sigma`` when it has one (so the diffusion is never called)
and sigma(x) otherwise; multiplication is commutative in IEEE arithmetic, so
both give the same bytes.  b(x) and sigma(x) are written into the step's
buffers by the model's in-place forms, ``drift_into`` and
``diffusion_into``; a model without them has its plain callables wrapped to
the same signature once per call, so the step loop has one path.  Once per
block, before its last step writes the endpoint over row 0, the
observation is evaluated on the flat (K*N,) view of
the block's pre-step states, and the log-potentials h*dy - (delta/2)*(h*h) of
all its steps in a few calls; they are added to the running sum, its own
(N,) array from 0, by one ``np.add`` per step in step order.  So a step makes
about six numpy calls, the fixed cost that dominates where N is small, and
every output byte is that of a step-by-step loop.  The
buffers, three (K, N) blocks and the sum, are made once per call, and x0 is
copied into row 0 of the state block; a step's drift term and the block's
(delta/2)*(h*h) reuse rows that are free by then.  With K 1 a call so holds
four arrays of N floats, the three rows and the sum, besides what the
model's callables allocate.  With the built-ins' in-place forms a step
allocates nothing but langevin's one temporary; a model's plain callables
allocate their results.  Neither the caller's states nor its noise block
is written, except for a coupled step's
pair sums when the caller passes the noise's own even columns to hold them.
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
    """A state, or an observation increment, is not finite: a runtime fault.

    ``row`` is the first particle whose state is not finite, or None when
    an observation increment is at fault."""

    def __init__(self, message: str = "non-finite state or observation increment",
                 row: int | None = None):
        super().__init__(message)
        self.row = row


# a block of Euler steps holds at most BLOCK_PARTICLE_STEPS particle-steps
# (16 KiB of float64 per buffer), and at least one step: enough steps at
# tens of rows to spread a block's fixed cost, and few enough rows that its
# buffers add little to a filter call's peak memory
BLOCK_PARTICLE_STEPS = 1 << 11


def _check_finite(x: np.ndarray) -> None:
    finite = np.isfinite(x)
    if not np.all(finite):
        raise NonFiniteStateError(row=int(np.argmin(finite)))


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

    The steps run in blocks of K (see the module docstring).  Inputs are
    checked once: x0 and ``obs`` on entry, and the endpoint after the loop.
    A non-finite state stays non-finite through
    x + b(x) * delta + sigma(x) * xi, so a finite endpoint implies finite
    pre-step states, and a state that overflows on any step, the last one
    included, raises ``NonFiniteStateError`` naming its row.  The loop runs
    with numpy's overflow and invalid-value warnings off, since this check
    reports them.
    """
    steps = 1 << l
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
    if not np.all(np.isfinite(obs)):
        raise NonFiniteStateError()
    _check_finite(x0)
    k_most = max(1, min(steps, BLOCK_PARTICLE_STEPS // max(n, 1)))
    delta = np.array(2.0 ** (-l))
    half_delta = np.array(0.5 * 2.0 ** (-l))
    dys = obs[:, None]  # row k: the step-k increment, against a row of states
    xi = noise.T  # row k: the step-k increments of every particle
    drift, diffusion, observation = model.drift, model.diffusion, model.observation
    sigma = None if model.sigma is None else np.array(model.sigma)
    # a step's drift and sigma(x), written into its buffer where the model can
    drift_at = model.drift_into or (lambda x, out: drift(x))
    diffusion_at = ((lambda x, out: sigma) if sigma is not None
                    else model.diffusion_into or (lambda x, out: diffusion(x)))
    mul, add, sub = np.multiply, np.add, np.subtract
    x = np.empty((k_most, n))  # row j: the block's state before its step j
    g = np.empty((k_most, n))  # the block's log-potentials; row 0 also a step's drift term
    b = np.empty((k_most, n))  # a step's xi*s; (delta/2)*(h*h) of the block's states
    a, total = g[0], np.zeros(n)
    x[0] = x0
    k_views = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, steps, k_most):
            k = min(k_most, steps - k0)
            if k != k_views:  # the views of a block of k steps: the first, and a shorter last
                k_views = k
                states, scaled, terms = x[:k], b[:k], g[:k]
                flat, term_rows = states.reshape(-1), list(terms)
                # step j reads row j and writes row j+1; the last step writes the endpoint
                # over row 0, after the block's log-potentials have read it
                plan = list(zip(states, scaled, [*states[1:], states[0]]))
            for j, (xj, bj, out) in enumerate(plan):
                if j == k - 1:
                    # every pre-step state of the block is in place: their
                    # log-potentials h*dy - (delta/2)*(h*h), summed in step order
                    h = observation(flat).reshape(k, n)
                    mul(h, dys[k0:k0 + k], terms)
                    mul(mul(h, h, scaled), half_delta, scaled)
                    sub(terms, scaled, terms)
                    for term in term_rows:
                        add(total, term, total)
                add(xj, mul(drift_at(xj, a), delta, a), a)
                mul(xi[k0 + j], diffusion_at(xj, bj), bj)
                add(a, bj, out)
    endpoint = x[0]  # a view: the buffer holds at most max(n, BLOCK_PARTICLE_STEPS) states
    _check_finite(endpoint)
    return UnitPropagation(l, endpoint, total)


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
    given, and into a new array otherwise.  The buffer may be the noise's
    own even columns, ``noise[:, 0::2]``: the fine chain has stepped by the
    time they are overwritten, and each sum reads only its own pair.
    """
    if l < 1:
        raise ValueError("coupled propagation needs l >= 1")
    noise = np.asarray(noise, dtype=float)
    fine = propagate_unit(model, l, x_fine, obs_fine, noise)
    coarse_noise = np.add(noise[:, 0::2], noise[:, 1::2], out=coarse_noise)
    coarse = propagate_unit(model, l - 1, x_coarse, obs_coarse, coarse_noise)
    return CoupledUnitPropagation(fine, coarse)
