"""Function-level spans for the traced benchmark run.

``install`` wraps every public function defined in the mlpf modules and
rebinds the wrapper in every mlpf namespace that holds the function, so
calls made through ``from .x import f`` bindings and through a module's own
globals are both seen.  Nothing in the package is edited on disk.

Each span adds its duration to its function's inclusive time and to its
parent span's child time; self time is the inclusive time minus the child
time.  Derived counters (particle steps, variates, bytes read, draws, ...)
are taken from the arguments and results at the same boundaries.  All of it
stays in memory in a ``Recorder``.  Traced sweeps run in one process.
"""

from __future__ import annotations

import os
import sys
import time
import types
from collections import defaultdict

# mlpf modules whose public functions are wrapped; the last name part is the layer
LAYERS = ("streams", "observations", "euler", "resampling", "filters", "multilevel",
          "oracle", "models", "bench", "cli")


class Recorder:
    """Per-function calls, inclusive and self seconds, plus derived counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child = []  # child-time accumulator per open span

    def export(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}


active = Recorder()
_saved: list = []


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_noise(c, args, kwargs, out):
    c["streams.variates"] += out.size


def _count_increments(c, args, kwargs, out):
    path = _arg(args, kwargs, 0, "path")
    c["observations.bytes_read"] += 8 * (1 << path.L_data) * path.d_y


def _count_propagate(c, args, kwargs, out):
    c["euler.particle_steps"] += out.endpoint.shape[0] << out.level


def _count_multinomial(c, args, kwargs, out):
    c["resampling.draws"] += out.shape[0]
    c["resampling.resample_events"] += 1


def _count_pairs(c, args, kwargs, out):
    n = out.fine.shape[0]
    c["resampling.draws"] += n
    c["resampling.resample_events"] += 1
    c["resampling.pairs"] += n
    c["resampling.coupled_pairs"] += int(out.coupled.sum())


def _count_filter(c, args, kwargs, out):
    c["filters.intervals"] += _arg(args, kwargs, 1, "path").T


def _count_emit(c, args, kwargs, out):
    c["bench.output_bytes"] += sum(os.path.getsize(p) for paths in out.values() for p in paths)


def _count_job(c, args, kwargs, out):
    c["bench.job_payload_bytes"] += args[0][2].nbytes  # the increments every job carries
    c["bench.cost_units"] += out[1]


COUNTERS = {
    "streams.noise_block": _count_noise,
    "observations.increments_at_level": _count_increments,
    "euler.propagate_unit": _count_propagate,
    "resampling.multinomial_indices": _count_multinomial,
    "resampling.maximal_coupling_indices": _count_pairs,
    "resampling.sorted_coupling_indices": _count_pairs,
    "filters.pf_run": _count_filter,
    "filters.cpf_run": _count_filter,
    "bench.emit_outputs": _count_emit,
    "bench._run_one": _count_job,
}


def _span(name, fn):
    count = COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        rec = active
        rec._child.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = rec._child.pop()
            if rec._child:
                rec._child[-1] += dt
            rec.calls[name] += 1
            rec.total_s[name] += dt
            rec.self_s[name] += dt - child
        if count is not None:
            count(rec.counts, args, kwargs, out)
        return out

    return wrapper


def install() -> None:
    """Wrap the public functions of every mlpf layer in all their bindings."""
    if _saved:
        raise RuntimeError("spans are already installed")
    import mlpf.bench
    import mlpf.cli  # noqa: F401  (binds most functions by name)

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "mlpf" or name.startswith("mlpf."))]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = _span(f"{layer}.{attr}", obj)
    wrappers[mlpf.bench._run_one] = _span("bench._run_one", mlpf.bench._run_one)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                _saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])


def uninstall() -> None:
    while _saved:
        mod, attr, obj = _saved.pop()
        setattr(mod, attr, obj)


def reset() -> None:
    """Start a fresh recorder."""
    global active
    active = Recorder()
