import math
import warnings

import numpy as np
import pytest

from mlpf import streams
from mlpf.filters import pf_run
from mlpf.models import builtin_model
from mlpf.multilevel import LevelAllocation, allocate, mlpf_run, total_cost
from mlpf.observations import simulate_observations

OU = builtin_model("ou", {})


class TestAllocate:
    def test_nonconstant_formula(self):
        alloc = allocate("mlpf_nonconstant", 4, 1.0)
        expect = tuple(max(2, math.ceil(32 * 2 ** (-0.75 * l) - 1e-9)) for l in range(5))
        assert alloc.counts == expect
        assert alloc.counts[0] == 32 and alloc.counts[-1] == 4

    def test_constant_formula(self):
        alloc = allocate("mlpf_constant", 3, 2.0)
        # base * 2^L * 2^-l * L
        assert alloc.counts == (48, 24, 12, 6)

    def test_single_pf(self):
        alloc = allocate("single_pf", 4, 100.0)
        assert alloc.counts == (1600,)
        assert alloc.L == 4
        assert alloc.lowest == 4

    def test_wasserstein_variants(self):
        const = allocate("wasserstein_new", 4, 1.0, constant_diffusion=True)
        varying = allocate("wasserstein_new", 4, 1.0, constant_diffusion=False)
        assert const.counts == tuple(max(2, math.ceil(16 * 2 ** (-1.5 * l) - 1e-9)) for l in range(5))
        assert varying.counts == allocate("mlpf_constant", 4, 1.0).counts

    def test_base_linearity(self):
        a = allocate("mlpf_nonconstant", 5, 1.0)
        b = allocate("mlpf_nonconstant", 5, 4.0)
        for na, nb in zip(a.counts, b.counts):
            assert nb >= 4 * na - 4  # ceiling slack

    def test_counts_non_increasing_and_floored(self):
        for rule in ("mlpf_nonconstant", "mlpf_constant", "wasserstein_new"):
            alloc = allocate(rule, 6, 0.25)
            assert all(a >= b for a, b in zip(alloc.counts, alloc.counts[1:]))
            assert min(alloc.counts) >= 2

    def test_l0_degrades_with_warning(self):
        with pytest.warns(UserWarning):
            alloc = allocate("mlpf_constant", 0, 3.0)
        assert alloc.rule == "single_pf"
        assert alloc.counts == (3,)
        assert alloc.lowest == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            allocate("bogus", 3, 1.0)
        with pytest.raises(ValueError):
            allocate("single_pf", 3, -1.0)


class TestTotalCost:
    def test_single_pf(self):
        assert total_cost(allocate("single_pf", 4, 100.0), T=1) == 25600

    @pytest.mark.parametrize("L,counts,rule", [(4, (32, 20, 12), "mlpf_nonconstant"),
                                               (2, (8, 4, 2, 1), "mlpf_constant"),
                                               (3, (16, 8), "single_pf"),
                                               (3, (), "single_pf")],
                             ids=["short", "long", "single_pf-two", "single_pf-none"])
    def test_mis_sized_counts_rejected(self, L, counts, rule):
        with pytest.raises(ValueError, match="count"):
            LevelAllocation(L, counts, rule, 1.0)

    def test_literal_counts(self):
        alloc = LevelAllocation(4, (32, 20, 12, 8, 4), "mlpf_nonconstant", 1.0)
        assert total_cost(alloc, T=1) == 32 + 20 * 3 + 12 * 6 + 8 * 12 + 4 * 24

    def test_monotone_in_L(self):
        costs = [total_cost(allocate("mlpf_constant", L, 1.0)) for L in range(1, 7)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_scales_with_T(self):
        alloc = allocate("mlpf_nonconstant", 3, 1.0)
        assert total_cost(alloc, T=5) == 5 * total_cost(alloc, T=1)


@pytest.fixture(scope="module")
def path():
    return simulate_observations("pbar", OU, 4, 7, seed=2718)


class TestMlpfRun:
    @pytest.mark.parametrize("L", [0, 3], ids=["L0", "single_pf-L3"])
    def test_l0_equals_pf(self, path, L):
        # a one-rung ladder is the plain PF on its rung, with that level's seed
        alloc = allocate("single_pf", L, 50.0 / 2 ** L)
        out = mlpf_run(OU, path, alloc, ["x"], seed=42)
        direct = pf_run(OU, path, L, 50, ["x"], seed=streams.level_seed(42, L))
        assert out.estimates == direct.estimates
        assert out.cost_units == direct.cost_units == total_cost(alloc, T=path.T)

    def test_constant_functional_exact_one(self, path):
        alloc = allocate("mlpf_constant", 3, 4.0)
        out = mlpf_run(OU, path, alloc, ["one"], seed=1)
        assert all(v == 1.0 for v in out.estimates.values())

    @pytest.mark.parametrize("rule,L", [("mlpf_constant", 3), ("mlpf_nonconstant", 3),
                                        ("wasserstein_new", 3), ("single_pf", 3),
                                        ("mlpf_constant", 0)],
                             ids=["mlpf_constant", "mlpf_nonconstant", "wasserstein_new",
                                  "single_pf-L3", "L0-degrade"])
    def test_cost_is_sum_of_levels(self, path, rule, L):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the L = 0 degrade warns
            alloc = allocate(rule, L, 4.0)
        out = mlpf_run(OU, path, alloc, ["x"], seed=1)
        assert len(out.level_outputs) == len(alloc.counts)
        assert out.cost_units == sum(o.cost_units for o in out.level_outputs)
        assert out.cost_units == total_cost(alloc, T=path.T)

    def test_level_independence(self, path):
        # a level's output depends only on (master seed, level), not on which
        # other levels run: compare level-2 CPF inside L=3 and L=2 runs
        out3 = mlpf_run(OU, path, allocate("mlpf_constant", 3, 4.0), ["x"], seed=5)
        alloc2 = LevelAllocation(2, out3.allocation.counts[:3], "mlpf_constant", 4.0)
        out2 = mlpf_run(OU, path, alloc2, ["x"], seed=5)
        for a, b in zip(out2.level_outputs, out3.level_outputs):
            assert a.estimates == b.estimates

    def test_combined_is_exact_telescoping_sum(self, path):
        alloc = allocate("mlpf_constant", 3, 4.0)
        out = mlpf_run(OU, path, alloc, ["x"], seed=9)
        for key in out.estimates:
            acc = out.level_outputs[0].estimates[key]
            for lvl in out.level_outputs[1:]:
                acc = acc + lvl.estimates[key]
            assert out.estimates[key] == acc

    def test_matches_kalman(self, path):
        from mlpf.oracle import kalman_run

        kal = kalman_run(path, 5, 1.0, 0.0, 0.5)
        vals = [mlpf_run(OU, path, allocate("mlpf_constant", 5, 30.0), ["x"],
                         seed=s).estimates[(4.0, "x")] for s in range(10)]
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - kal.at_time(4.0)[0]) < 4 * se

    def test_allocation_data_mismatch(self, path):
        with pytest.raises(ValueError):
            mlpf_run(OU, path, allocate("mlpf_constant", 8, 1.0), ["x"])
