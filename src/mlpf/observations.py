"""Observation-increment data at a fixed finest resolution.

The stored primitive is the increment array at level ``L_data``; all coarser
views are exact partial sums of those increments, so every discretization
level consumes literally the same data.  Coarsening accumulates children
left to right, which pins the floating-point result bit-for-bit across runs.
Each path keeps a pyramid of its coarsened levels, built on first use, one
read-only array per level for the whole path.

There is one observation channel, so a path of T unit intervals stores
T * 2**L_data increments as a flat array, and the level-l increments of one
interval are a (2**l,) view.  The binary file format keeps its component
count ``d_y`` in the header; it is always 1.
"""

from __future__ import annotations

import contextlib
import csv
import struct
from array import array
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import streams
from .euler import NonFiniteStateError
from .models import ModelSpec

__all__ = [
    "ObservationPath",
    "simulate_observations",
    "increments_at_level",
    "write_path",
    "read_path",
    "export_csv",
    "FrequencyExceededError",
    "PathFormatError",
    "MODES",
]

_MAGIC = b"MLPFOBS1"
MODES = ("pbar", "p")  # the data modes of simulate_observations
MAX_INCREMENTS = 1 << 26


class FrequencyExceededError(ValueError):
    """A level finer than the stored data frequency was requested."""


class PathFormatError(ValueError):
    """A path file failed structural validation."""


@dataclass(frozen=True)
class ObservationPath:
    T: int
    L_data: int
    increments: np.ndarray  # (T * 2**L_data,)
    mode: str
    seed: int
    latent: np.ndarray | None = field(default=None, compare=False)  # (T * 2**L_data + 1,)
    # level -> read-only (T * 2**level,) coarsening, filled by increments_at_level
    _pyramid: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # observation components: the path file's header field, always 1
    d_y: ClassVar[int] = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        streams.check_count(self.T, "T", 1)
        streams.check_count(self.L_data, "L_data", 1)
        streams.check_seed(self.seed)
        inc = np.asarray(self.increments, dtype=float)
        expected = self.T * (1 << self.L_data)
        if inc.shape != (expected,):
            raise ValueError(
                f"increments shape {inc.shape} != ({expected},) for T={self.T}, L_data={self.L_data}"
            )
        bad = _first_non_finite(inc)
        if bad is not None:
            raise ValueError(f"increment {bad} is not finite ({inc[bad]!r})")
        object.__setattr__(self, "increments", inc)
        self.increments.setflags(write=False)
        self._pyramid[self.L_data] = self.increments


def _first_non_finite(values: np.ndarray):
    """Index of the first non-finite entry of ``values``, or None."""
    finite = np.isfinite(values)
    return None if finite.all() else int(np.argmin(finite))


def _increment_count(T: int, L_data: int) -> int:
    """T * 2**L_data, checked against MAX_INCREMENTS before the shift is taken."""
    if L_data >= MAX_INCREMENTS.bit_length() or T > MAX_INCREMENTS >> L_data:
        raise ValueError(f"T * 2**L_data for T={T}, L_data={L_data} exceeds the maximum {MAX_INCREMENTS}")
    return T << L_data


def simulate_observations(mode: str, model: ModelSpec, T: int, L_data: int, seed: int) -> ObservationPath:
    """Generate a data path at resolution ``2**-L_data``.

    mode "pbar": increments are pure Brownian, N(0, step * I).
    mode "p": a latent fine-grid Euler signal path is simulated and each
    increment is h(x) * step + Brownian part; the Brownian stream is shared
    with the "pbar" mode so the two coincide when h is identically zero.
    A latent state or increment that is not finite (the signal blew up)
    raises ``NonFiniteStateError``.

    The latent recursion runs on Python floats, which round each operation
    as float64 numpy scalars do, so a drift and diffusion that map a float
    to a float (every built-in's do) step it without numpy's per-scalar
    overhead and the path keeps its bytes.  A
    square in a drift or diffusion stays ``**``, libm ``pow`` on either
    type, since ``x * x`` may round differently.
    """
    streams.check_count(T, "T", 1)
    streams.check_count(L_data, "L_data", 1)
    streams.check_seed(seed)
    n = _increment_count(T, L_data)
    delta = 2.0 ** (-L_data)
    g_obs = streams.generator(seed, streams.TAG_OBS)
    brownian = np.sqrt(delta) * g_obs.standard_normal(n)
    if mode == "pbar":
        return ObservationPath(T, L_data, brownian, "pbar", seed)
    if mode != "p":
        raise ValueError(f"mode must be one of {MODES}")
    g_lat = streams.generator(seed, streams.TAG_LATENT)
    xi = (np.sqrt(delta) * g_lat.standard_normal(n)).tolist()
    x = model.x_star
    latent = array("d", [x])  # raw doubles, as in oracle.kalman_run
    drift, diffusion, sigma = model.drift, model.diffusion, model.sigma
    for dxi in xi:
        # a constant sigma multiplies in directly, as the filters' Euler step does
        x = x + drift(x) * delta + (diffusion(x) if sigma is None else sigma) * dxi
        latent.append(x)
    latent = np.frombuffer(latent)
    h_vals = model.observation(latent[:-1])
    increments = h_vals * delta + brownian
    for name, values in (("latent state", latent), ("increment", increments)):
        bad = _first_non_finite(values)
        if bad is not None:
            raise NonFiniteStateError(f"simulated {name} {bad} is not finite ({values[bad]!r})")
    return ObservationPath(T, L_data, increments, "p", seed, latent=latent)


def increments_at_level(path: ObservationPath, l: int, p: int) -> np.ndarray:
    """Level-``l`` increments covering the unit interval [p, p+1), shape (2**l,).

    The result is a read-only view into the path's level-``l`` array.
    """
    if l < 0 or p < 0 or p >= path.T:
        raise ValueError(f"invalid level {l} or interval {p}")
    if l > path.L_data:
        raise FrequencyExceededError(
            f"level {l} exceeds the data observation frequency (L_data={path.L_data})"
        )
    level = path._pyramid.get(l)
    if level is None:
        grouped = path.increments.reshape(path.T << l, 1 << (path.L_data - l))
        # cumsum adds the children strictly left to right, so its last column is
        # bit-equal to a sequential loop over each group
        level = np.cumsum(grouped, axis=1)[:, -1].copy()
        level.setflags(write=False)
        path._pyramid[l] = level
    return level[p << l : (p + 1) << l]


_HEADER = struct.Struct("<8sIIIQB")


@contextlib.contextmanager
def _opened(file, mode: str, **kwargs):
    """A file object as it is, or a path opened in ``mode`` and closed on exit."""
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        with open(file, mode, **kwargs) as f:
            yield f
    else:
        yield file


def write_path(path: ObservationPath, file) -> None:
    """Write the binary path format (little-endian, increment-major)."""
    with _opened(file, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, path.T, path.L_data, path.d_y, path.seed, MODES.index(path.mode)))
        f.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def read_path(file) -> ObservationPath:
    """Read a binary path file; raises PathFormatError on any malformation."""
    with _opened(file, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise PathFormatError("truncated header")
        magic, T, L_data, d_y, seed, mode_code = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise PathFormatError(f"bad magic {magic!r}")
        if mode_code >= len(MODES):
            raise PathFormatError(f"unknown mode code {mode_code}")
        if T < 1 or L_data < 1:
            raise PathFormatError("invalid dimensions in header")
        if d_y != ObservationPath.d_y:
            raise PathFormatError(f"header field d_y is {d_y}; paths have one component (d_y = 1)")
        try:
            n = _increment_count(T, L_data)
        except ValueError as exc:
            raise PathFormatError(str(exc)) from None
        body = f.read()
        if len(body) != n * 8:
            raise PathFormatError(f"body has {len(body)} bytes, expected {n * 8}")
        inc = np.frombuffer(body, dtype="<f8").astype(float)
        try:
            return ObservationPath(T, L_data, inc, MODES[mode_code], seed)
        except ValueError as exc:
            raise PathFormatError(str(exc)) from None


def export_csv(path: ObservationPath, file) -> None:
    """CSV export for inspection: header k,component,value (component is 0)."""
    with _opened(file, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "component", "value"])
        for k, value in enumerate(path.increments.tolist()):
            w.writerow([k, 0, repr(value)])
