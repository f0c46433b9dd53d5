"""Signal/observation model family and the four built-in benchmark models.

Models are scalar: one state and one observation channel.  The built-ins
observe through the identity.  Drift, diffusion and observation callables
act elementwise on a 1-D array of any length: each maps an (M,) array of
states to an (M,) array, the diffusion giving sigma(x).  The Euler kernel
calls the drift and diffusion on the N states of one step and the
observation on the K*N states of a block of K steps, so a callable whose
value at one state depends on the others is not a model.  The simulated
latent path of ``observations.simulate_observations`` calls the drift and
diffusion on one float state.  A model whose diffusion is a constant also
carries it as the float ``sigma`` (ou and langevin), so the Euler loops
multiply it into the noise without calling the diffusion; ``sigma`` is
None for a state-dependent diffusion (gbm and nonlinear_sigma).
A model may also carry in-place forms of its drift and diffusion,
``drift_into(x, out)`` and ``diffusion_into(x, out)``: each returns an array
holding the plain callable's values at the (M,) states ``x``, written into
the (M,) buffer ``out`` where the form can, so an Euler step allocates
nothing and converts no Python float for the model.  ``out`` never aliases
``x``.  The built-ins supply them with 0-d float64 constants and the plain
lambdas' operations in the same order, so both forms give the same bytes;
a constant diffusion needs none, since ``sigma`` takes its place.  A
user-built model may leave both None, and the Euler step then calls its
plain callables as before.  ``ModelSpec`` checks the diffusion contract,
``sigma``, the in-place forms and the start state once, at construction,
so the Euler loop can multiply sigma(x) into the noise without reshaping.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["ModelSpec", "ModelParameterError", "builtin_model", "langevin_drift", "BUILTIN_NAMES"]

BUILTIN_NAMES = ("ou", "langevin", "gbm", "nonlinear_sigma")


class ModelParameterError(ValueError):
    """A bad ``params`` object or parameter value; ``key`` names the
    parameter, or is None when the whole object is at fault."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of a signal/observation SDE pair."""

    name: str
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    observation: Callable[[np.ndarray], np.ndarray]
    x_star: float
    is_linear_gaussian: bool = False
    sigma: float | None = None  # the diffusion's value when it is a constant
    params: dict = field(default_factory=dict)
    # in-place forms (x, out) -> array of the drift's and diffusion's values
    drift_into: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    diffusion_into: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (isinstance(self.x_star, numbers.Real) and math.isfinite(self.x_star)):
            raise ValueError(f"{self.name}: x_star must be a finite scalar, got {self.x_star!r}")
        object.__setattr__(self, "x_star", float(self.x_star))
        probe = np.full(2, self.x_star)
        shape = np.shape(self.diffusion(probe))
        if shape != probe.shape:
            raise ValueError(
                f"{self.name}: diffusion must return sigma(x) elementwise, "
                f"shape {probe.shape} for states of shape {probe.shape}; got {shape}"
            )
        if self.sigma is not None:
            if not (_is_real(self.sigma) and math.isfinite(self.sigma) and self.sigma > 0):
                raise ValueError(f"{self.name}: sigma must be a finite positive scalar, "
                                 f"got {self.sigma!r}")
            object.__setattr__(self, "sigma", float(self.sigma))
            if not np.all(self.diffusion(probe) == self.sigma):
                raise ValueError(f"{self.name}: sigma {self.sigma!r} disagrees with the "
                                 f"diffusion at x_star")
        # each in-place form gives its plain callable's bytes, here on a few states
        states = np.array([self.x_star, -2.5, -0.5, 0.0, 0.75, 3.0])
        for name in ("drift", "diffusion"):
            into = getattr(self, name + "_into")
            if into is not None:
                with np.errstate(all="ignore"):
                    want = np.asarray(getattr(self, name)(states))
                    got = np.asarray(into(states.copy(), np.empty_like(states)))
                if (got.dtype, got.shape, got.tobytes()) != (want.dtype, want.shape, want.tobytes()):
                    raise ValueError(f"{self.name}: {name}_into disagrees with {name} "
                                     f"at the states {states.tolist()}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def langevin_drift(x, nu: float):
    """Half the score of a Student-t density (zero location, unit scale).

    Closed form -(nu+1) * x / (2 * (nu + x^2)); odd in x.  ``x`` is a float
    or a float ndarray, and the result has its type, so a latent path
    simulated on Python floats stays on them.
    """
    if nu <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {nu}")
    return -(nu + 1.0) * x / (2.0 * (nu + x * x))


def _scalar_model(name, drift, diffusion, x_star, params, *, linear=False, sigma=None,
                  drift_into=None, diffusion_into=None):
    return ModelSpec(
        name=name,
        drift=drift,
        diffusion=diffusion,
        observation=lambda x: x,
        x_star=x_star,
        is_linear_gaussian=linear,
        sigma=sigma,
        params=dict(params),
        drift_into=drift_into,
        diffusion_into=diffusion_into,
    )


def _reverting_into(th, mu):
    """In place, th * (mu - x)."""
    th, mu = np.array(th), np.array(mu)
    sub, mul = np.subtract, np.multiply
    return lambda x, out: mul(th, sub(mu, x, out), out)


def _scaled_into(c):
    """In place, c * x."""
    c = np.array(c)
    return lambda x, out: np.multiply(c, x, out)


def _langevin_into(nu):
    """In place, ``langevin_drift(x, nu)``: -(nu+1) * x / (2 * (nu + x*x)),
    with one temporary."""
    c, nu, two = np.array(-(nu + 1.0)), np.array(nu), np.array(2.0)
    mul, add = np.multiply, np.add

    def drift_into(x, out):
        t = mul(x, x)
        mul(two, add(nu, t, t), t)
        return np.divide(mul(c, x, out), t, out)

    return drift_into


_ONE = np.array(1.0)


def _bounded_into(x, out):
    """In place, 1 / sqrt(1 + x*x): nonlinear_sigma's diffusion."""
    np.multiply(x, x, out)
    np.add(_ONE, out, out)
    return np.divide(_ONE, np.sqrt(out, out), out)


def builtin_model(name: str, params: dict | None = None) -> ModelSpec:
    """Construct one of the four scalar benchmark models by name.

    Unknown parameter keys and values that are not finite real numbers are rejected
    with a ``ModelParameterError``; omitted keys take the standard defaults
    (ou: theta=1, mu=0, sigma=0.5; langevin: nu=10; gbm: mu=0.02, sigma=0.2;
    nonlinear_sigma: theta=0, mu=0).
    """
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ModelParameterError(f"{name}: parameters must be an object of name: value, "
                                  f"got {params!r}")
    if name == "ou":
        p = _take(params, theta=1.0, mu=0.0, sigma=0.5, x_star=0.0)
        if p["sigma"] <= 0:
            raise ModelParameterError("ou: sigma must be positive", "sigma")
        th, mu, sg = p["theta"], p["mu"], p["sigma"]
        return _scalar_model(
            "ou",
            lambda x: th * (mu - x),
            lambda x: np.full(np.shape(x), sg),
            p["x_star"], p, linear=True, sigma=sg, drift_into=_reverting_into(th, mu),
        )
    if name == "langevin":
        p = _take(params, nu=10.0, x_star=0.0)
        if p["nu"] <= 0:
            raise ModelParameterError("langevin: nu must be positive", "nu")
        nu = p["nu"]
        return _scalar_model(
            "langevin",
            lambda x: langevin_drift(x, nu),
            lambda x: np.ones(np.shape(x)),
            p["x_star"], p, sigma=1.0, drift_into=_langevin_into(nu),
        )
    if name == "gbm":
        # x_star defaults to 1: the process started at 0 is identically 0.
        p = _take(params, mu=0.02, sigma=0.2, x_star=1.0)
        if p["sigma"] <= 0:
            raise ModelParameterError("gbm: sigma must be positive", "sigma")
        mu, sg = p["mu"], p["sigma"]
        return _scalar_model(
            "gbm",
            lambda x: mu * x,
            lambda x: sg * x,
            p["x_star"], p, drift_into=_scaled_into(mu), diffusion_into=_scaled_into(sg),
        )
    if name == "nonlinear_sigma":
        p = _take(params, theta=0.0, mu=0.0, x_star=0.0)
        th, mu = p["theta"], p["mu"]
        return _scalar_model(
            "nonlinear_sigma",
            lambda x: th * (mu - x),
            # a float state stays a float; both square roots are correctly rounded
            lambda x: 1.0 / (math.sqrt(1.0 + x * x) if isinstance(x, float)
                             else np.sqrt(1.0 + x * x)),
            p["x_star"], p, drift_into=_reverting_into(th, mu), diffusion_into=_bounded_into,
        )
    raise ValueError(f"unknown model {name!r}; expected one of {BUILTIN_NAMES}")


def _take(params, **defaults):
    unknown = set(params) - set(defaults)
    if unknown:
        raise ModelParameterError(
            f"unknown parameter(s) {sorted(unknown)}; expected subset of {sorted(defaults)}")
    for k, v in params.items():
        # finite as a float; math.isfinite would raise OverflowError on a huge int
        if not (_is_real(v) and abs(v) <= sys.float_info.max):
            raise ModelParameterError(f"parameter {k!r} must be a finite real number, got {v!r}", k)
    out = dict(defaults)
    out.update({k: float(v) for k, v in params.items()})
    return out
