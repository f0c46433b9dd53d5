import numpy as np
import pytest

from mlpf.models import builtin_model
from mlpf.observations import simulate_observations
from mlpf.oracle import kalman_log_normalizer, kalman_run, reference_truth

OU = builtin_model("ou", {})


@pytest.fixture(scope="module")
def path():
    return simulate_observations("pbar", OU, 4, 9, seed=161)


class TestKalman:
    def test_predict_only_closed_form(self, path):
        # h_scale=0 removes assimilation; the moments follow the linear
        # recursion m_{k+1} = (1 - theta*delta) m_k, P_{k+1} = a^2 P_k + s^2 delta
        theta, sigma, l = 1.0, 0.5, 4
        res = kalman_run(path, l, theta, 0.0, sigma, x_star=2.0, h_scale=0.0)
        delta = 2.0 ** -l
        a = 1.0 - theta * delta
        m, P = 2.0, 0.0
        for k in range(1, len(res.means)):
            m = a * m
            P = a * a * P + sigma * sigma * delta
            assert res.means[k] == pytest.approx(m, rel=1e-12)
            assert res.variances[k] == pytest.approx(P, rel=1e-12)

    def test_single_step_hand_values(self, path):
        # one level-0 step over the first interval: point-mass prior means the
        # update is vacuous, so the posterior is pure predict
        res = kalman_run(path, 0, 1.0, 0.3, 0.5, x_star=1.5)
        assert res.means[1] == pytest.approx(1.5 + 1.0 * (0.3 - 1.5) * 1.0)
        assert res.variances[1] == pytest.approx(0.25)

    def test_variance_independent_of_observations(self, path):
        other = simulate_observations("pbar", OU, 4, 9, seed=999)
        a = kalman_run(path, 5, 1.0, 0.0, 0.5)
        b = kalman_run(other, 5, 1.0, 0.0, 0.5)
        assert np.array_equal(a.variances, b.variances)
        assert not np.array_equal(a.means, b.means)

    def test_variance_positive_and_bounded(self, path):
        res = kalman_run(path, 6, 1.0, 0.0, 0.5)
        assert np.all(res.variances[1:] > 0)
        # stationary variance of the OU signal bounds the filter variance
        assert np.all(res.variances <= 0.5 ** 2 / (2 * 1.0) + 1e-9)

    def test_at_time(self, path):
        res = kalman_run(path, 3, 1.0, 0.0, 0.5)
        m, v = res.at_time(2.0)
        idx = 2 * 8
        assert (m, v) == (res.means[idx], res.variances[idx])

    def test_log_normalizer_zero_when_silent(self, path):
        res = kalman_run(path, 4, 1.0, 0.0, 0.5, h_scale=0.0)
        assert kalman_log_normalizer(res) == pytest.approx(0.0, abs=1e-12)

    def test_level_exceeds_data(self, path):
        with pytest.raises(ValueError):
            kalman_run(path, 10, 1.0, 0.0, 0.5)

    @pytest.mark.slow
    def test_discretization_bias_first_order(self):
        # |mean_l - mean_ref| at the terminal time decays ~ 2^-l
        path = simulate_observations("pbar", OU, 5, 12, seed=7)
        ref = kalman_run(path, 12, 1.0, 0.0, 0.5).at_time(5.0)[0]
        levels = range(3, 10)
        errs = [abs(kalman_run(path, l, 1.0, 0.0, 0.5).at_time(5.0)[0] - ref)
                for l in levels]
        slope = np.polyfit(list(levels), np.log2(errs), 1)[0]
        assert -1.4 < slope < -0.6


class TestReferenceTruth:
    def test_kalman_dispatch(self, path):
        truth = reference_truth(OU, path, 6, 100, ["x", "x2", "one"])
        assert truth.kind == "kalman"
        assert truth.standard_errors is None
        res = kalman_run(path, 6, 1.0, 0.0, 0.5)
        m, v = res.at_time(4.0)
        assert truth.estimates[(4.0, "x")] == m
        assert truth.estimates[(4.0, "x2")] == v + m * m
        assert truth.estimates[(4.0, "one")] == 1.0

    def test_pf_dispatch_with_errors(self):
        m = builtin_model("nonlinear_sigma", {})
        path = simulate_observations("pbar", m, 2, 6, seed=3)
        truth = reference_truth(m, path, 5, 200, ["x"], seed=11, replicates=4)
        assert truth.kind == "reference_pf"
        assert set(truth.estimates) == {(1.0, "x"), (2.0, "x")}
        assert all(se > 0 for se in truth.standard_errors.values())

    def test_pf_truth_consistent_with_kalman_scale(self, path):
        # run the generic PF branch on the OU model by spoofing linearity off
        from dataclasses import replace

        m = replace(OU, is_linear_gaussian=False)
        truth = reference_truth(m, path, 5, 3000, ["x"], seed=5, replicates=4)
        kal = kalman_run(path, 5, 1.0, 0.0, 0.5)
        key = (4.0, "x")
        assert abs(truth.estimates[key] - kal.at_time(4.0)[0]) < 5 * truth.standard_errors[key]

    def test_unknown_functional_for_kalman(self, path):
        with pytest.raises(ValueError):
            reference_truth(OU, path, 5, 10, ["x3"])


@pytest.mark.parametrize("model", ["ou", "gbm"], ids=["kalman", "pf"])
@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", (1, 2)),
    ("replicates", 0), ("replicates", 2.0), ("replicates", True),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_bad_seed_or_replicates_is_rejected_naming_it(path, model, field, value):
    m = builtin_model(model, {})
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        reference_truth(m, path, 3, 10, ["x"], **{field: value})


@pytest.mark.parametrize("model", ["ou", "gbm"], ids=["kalman", "pf"])
def test_a_seed_of_2_64_is_rejected_naming_it(path, model):
    with pytest.raises(ValueError, match=r"^seed must be less than 2\*\*64"):
        reference_truth(builtin_model(model, {}), path, 3, 10, ["x"], seed=2 ** 64)
