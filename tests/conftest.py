import numpy as np
import pytest

from mlpf import filters
from mlpf.resampling import IndexPairs, multinomial_indices


def independent_indices(w_fine, w_coarse, n_draws, rngs):
    """Fine and coarse ancestors drawn independently, each row's from its
    one stream: the coupled filter without its joint resampler.  It takes
    the (k, N) weight stacks and per-row generators of the filters' batched
    call, and gives flat indices into the stack's rows, as it does."""
    fine, coarse = [], []
    for i, rng in enumerate(rngs):
        offset = i * w_fine.shape[1]
        fine.append(multinomial_indices(w_fine[i], n_draws, rng) + offset)
        coarse.append(multinomial_indices(w_coarse[i], n_draws, rng) + offset)
    fine, coarse = np.concatenate(fine), np.concatenate(coarse)
    return IndexPairs(fine, coarse, fine == coarse)


@pytest.fixture
def independent_resampling(monkeypatch):
    """``cpf_run(coupling="maximal")`` draws independent ancestors while active."""
    monkeypatch.setattr(filters, "maximal_coupling_indices", independent_indices)
