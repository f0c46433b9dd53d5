"""Signal/observation model family and the four built-in benchmark models.

Models are scalar: one state and one observation channel.  The built-ins
observe through the identity.  Drift, diffusion and observation callables
act elementwise on a 1-D array of any length: each maps an (M,) array of
states to an (M,) array, the diffusion giving sigma(x).  The Euler kernel
calls the drift and diffusion on the N states of one step and the
observation on the K*N states of a block of K steps, so a callable whose
value at one state depends on the others is not a model.  A model whose diffusion is a constant also
carries it as the float ``sigma`` (ou and langevin), so the Euler loops
multiply it into the noise without calling the diffusion; ``sigma`` is
None for a state-dependent diffusion (gbm and nonlinear_sigma).
``ModelSpec`` checks the diffusion contract, ``sigma`` and the start state
once, at construction, so the Euler loop can multiply sigma(x) into the
noise without reshaping.
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


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def langevin_drift(x, nu: float):
    """Half the score of a Student-t density (zero location, unit scale).

    Closed form -(nu+1) * x / (2 * (nu + x^2)); odd in x.
    """
    if nu <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {nu}")
    x = np.asarray(x, dtype=float)
    return -(nu + 1.0) * x / (2.0 * (nu + x * x))


def _scalar_model(name, drift, diffusion, x_star, params, *, linear=False, sigma=None):
    return ModelSpec(
        name=name,
        drift=drift,
        diffusion=diffusion,
        observation=lambda x: x,
        x_star=x_star,
        is_linear_gaussian=linear,
        sigma=sigma,
        params=dict(params),
    )


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
            p["x_star"], p, linear=True, sigma=sg,
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
            p["x_star"], p, sigma=1.0,
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
            p["x_star"], p,
        )
    if name == "nonlinear_sigma":
        p = _take(params, theta=0.0, mu=0.0, x_star=0.0)
        th, mu = p["theta"], p["mu"]
        return _scalar_model(
            "nonlinear_sigma",
            lambda x: th * (mu - x),
            lambda x: 1.0 / np.sqrt(1.0 + x * x),
            p["x_star"], p,
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
