"""Multilevel particle filtering for time-discretized continuous-time models."""

from .models import ModelSpec, builtin_model, langevin_drift
from .observations import ObservationPath, increments_at_level, simulate_observations
from .euler import propagate_unit, propagate_unit_coupled
from .resampling import (
    ess,
    maximal_coupling_indices,
    multinomial_indices,
    normalize_log_weights,
    sorted_coupling_indices,
)
from .filters import cpf_run, pf_run
from .multilevel import LevelAllocation, allocate, mlpf_run, total_cost
from .oracle import kalman_run, reference_truth

__version__ = "0.1.0"
