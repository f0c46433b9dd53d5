import numpy as np
import pytest

from mlpf import filters
from mlpf.resampling import IndexPairs, multinomial_indices


def independent_indices(w_fine, w_coarse, u):
    """Fine and coarse ancestors drawn independently, each row's from its
    stream's first two blocks of uniforms: the coupled filter without its
    joint resampler.  It takes the (k, N) weight stacks and (k, 4, m)
    uniforms of the filters' batched call, and gives flat indices into the
    stack's rows, as it does."""
    fine = multinomial_indices(w_fine, u[:, 0])
    coarse = multinomial_indices(w_coarse, u[:, 1])
    return IndexPairs(fine, coarse, fine == coarse)


@pytest.fixture
def independent_resampling(monkeypatch):
    """``cpf_run(coupling="maximal")`` draws independent ancestors while active."""
    monkeypatch.setattr(filters, "maximal_coupling_indices", independent_indices)
