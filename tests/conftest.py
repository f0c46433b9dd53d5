import pytest

from mlpf import filters
from mlpf.resampling import IndexPairs, multinomial_indices


def independent_indices(w_fine, w_coarse, n_draws, rng):
    """Fine and coarse ancestors drawn independently from one stream: the
    coupled filter without its joint resampler."""
    fine = multinomial_indices(w_fine, n_draws, rng)
    coarse = multinomial_indices(w_coarse, n_draws, rng)
    return IndexPairs(fine, coarse, fine == coarse)


@pytest.fixture
def independent_resampling(monkeypatch):
    """``cpf_run(coupling="maximal")`` draws independent ancestors while active."""
    monkeypatch.setattr(filters, "maximal_coupling_indices", independent_indices)
