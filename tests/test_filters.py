import numpy as np
import pytest
from scipy.stats import ks_2samp

from mlpf.euler import NonFiniteStateError, propagate_unit
from mlpf.filters import (
    cpf_run,
    pf_estimate_intermediate,
    pf_run,
    resolve_functionals,
)
from mlpf.models import ModelSpec, builtin_model
from mlpf.observations import ObservationPath, simulate_observations
from mlpf.oracle import kalman_log_normalizer, kalman_run

OU = builtin_model("ou", {})


def silent_model():
    m = builtin_model("ou", {})
    return ModelSpec(
        name="silent", d_x=1, d_y=1, drift=m.drift, diffusion=m.diffusion,
        observation=lambda x: np.zeros_like(x), x_star=m.x_star,
    )


@pytest.fixture(scope="module")
def path():
    return simulate_observations("pbar", OU, 4, 7, seed=314)


class TestPf:
    def test_constant_functional_exact(self, path):
        out = pf_run(silent_model(), path, 3, 50, ["one"], seed=0)
        assert all(v == 1.0 for v in out.estimates.values())

    def test_silent_model_normalizer_zero(self, path):
        out = pf_run(silent_model(), path, 3, 50, ["x"], resample_policy="always", seed=0)
        assert out.log_normalizer == 0.0

    def test_single_particle_degeneracy(self, path):
        out = pf_run(OU, path, 2, 1, ["x"], resample_policy="always", seed=5)
        # replay the single trajectory directly
        from mlpf import streams
        from mlpf.observations import increments_at_level

        x = np.array([[0.0]])
        for p in range(path.T):
            noise = np.sqrt(0.25) * streams.noise_block(5, 2, p, 1, 1)
            prop = propagate_unit(OU, 2, x, increments_at_level(path, 2, p), noise)
            x = prop.endpoint
            assert out.estimates[(float(p + 1), "x")] == x[0, 0]

    def test_cost_units(self, path):
        out = pf_run(OU, path, 3, 20, ["x"], seed=0)
        assert out.cost_units == 20 * 8 * path.T

    def test_overflow_on_the_last_step_raises(self):
        # the state first turns inf on the last step of the last interval
        gbm = builtin_model("gbm", {})
        blow_up = ModelSpec(
            name="blow_up", d_x=1, d_y=1, drift=lambda x: x * 4e308,
            diffusion=gbm.diffusion, observation=lambda x: x, x_star=gbm.x_star,
        )
        one_interval = simulate_observations("pbar", gbm, 1, 2, seed=3)
        with pytest.raises(NonFiniteStateError):
            pf_run(blow_up, one_interval, 0, 8, ["x"], seed=1)

    def test_level_exceeds_data(self, path):
        with pytest.raises(ValueError):
            pf_run(OU, path, 8, 10, ["x"])

    def test_empty_functionals(self, path):
        with pytest.raises(ValueError):
            pf_run(OU, path, 2, 10, [])

    def test_determinism(self, path):
        a = pf_run(OU, path, 4, 200, ["x", "x2"], seed=9)
        b = pf_run(OU, path, 4, 200, ["x", "x2"], seed=9)
        assert a.estimates == b.estimates
        assert a.log_normalizer == b.log_normalizer

    def test_matches_kalman(self, path):
        ests = [pf_run(OU, path, 5, 4000, ["x"], seed=s).estimates[(4.0, "x")] for s in range(10)]
        kal = kalman_run(path, 5, 1.0, 0.0, 0.5)
        se = np.std(ests, ddof=1) / np.sqrt(len(ests))
        assert abs(np.mean(ests) - kal.at_time(4.0)[0]) < 4 * se

    def test_log_normalizer_matches_kalman(self, path):
        vals = [pf_run(OU, path, 4, 4000, ["x"], seed=s).log_normalizer for s in range(10)]
        kal = kalman_run(path, 4, 1.0, 0.0, 0.5)
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - kalman_log_normalizer(kal)) < 4 * se

    def test_two_particle_normalizer_hand(self):
        # one unit interval, silent potentials replaced by hand-set weights:
        # run the definition directly through log-mean arithmetic
        from mlpf.resampling import log_mean_weight

        a, b = 0.3, -1.2
        assert log_mean_weight(np.array([a, b])) == pytest.approx(
            np.log((np.exp(a) + np.exp(b)) / 2))


class TestIntermediate:
    def test_constant_functional(self, path):
        out = pf_run(OU, path, 3, 30, ["one"], seed=2, intermediate_times=[0.5, 1.25])
        assert out.estimates[(0.5, "one")] == 1.0
        assert out.estimates[(1.25, "one")] == 1.0

    def test_two_particle_hand_arithmetic(self):
        rng = np.random.default_rng(0)
        obs = rng.standard_normal((4, 1)) * 0.2
        noise = rng.standard_normal((2, 4, 1)) * 0.5
        prop = propagate_unit(OU, 2, np.zeros((2, 1)), obs, noise, retain=True)
        cum = np.array([0.1, -0.3])
        got = pf_estimate_intermediate(cum, prop, 0.5, lambda x: x[:, 0])
        lw = cum + prop.partial_log_g[:, 1]
        w = np.exp(lw - lw.max())
        w /= w.sum()
        assert got == pytest.approx(w @ prop.intermediate_states[:, 2, 0])

    def test_off_grid_time_rejected(self):
        prop = propagate_unit(OU, 2, np.zeros((1, 1)), np.zeros((4, 1)),
                              np.zeros((1, 4, 1)), retain=True)
        with pytest.raises(ValueError):
            pf_estimate_intermediate(np.zeros(1), prop, 0.3, lambda x: x[:, 0])

    def test_smallest_grid_time_uses_one_potential(self):
        obs = np.full((4, 1), 0.7)
        prop = propagate_unit(OU, 2, np.full((2, 1), 1.0), obs, np.zeros((2, 4, 1)),
                              retain=True)
        got = pf_estimate_intermediate(np.zeros(2), prop, 0.25, lambda x: x[:, 0])
        # both particles identical: estimate equals the deterministic state
        assert got == pytest.approx(prop.intermediate_states[0, 1, 0])
        assert np.array_equal(prop.partial_log_g[:, 0],
                              np.full(2, 0.7 - 0.5 * 0.25))


class TestCpf:
    def test_difference_zero_for_constant(self, path):
        out = cpf_run(OU, path, 3, 40, ["one"], seed=1)
        assert all(v == 0.0 for (t, fid), v in out.estimates.items() if fid == "one")

    def test_silent_model_fully_coupled(self, path):
        out = cpf_run(silent_model(), path, 3, 40, ["x"], resample_policy="always", seed=1)
        assert all(f == 1.0 for f in out.diagnostics.coupling_fraction)
        assert all(s == 1.0 for s in out.diagnostics.same_ancestor_trace)
        assert out.final_same_ancestor_fraction == 1.0

    def test_l0_rejected(self, path):
        with pytest.raises(ValueError):
            cpf_run(OU, path, 0, 10, ["x"])

    def test_cost_units(self, path):
        out = cpf_run(OU, path, 3, 25, ["x"], seed=0)
        assert out.cost_units == 25 * (8 + 4) * path.T

    def test_diff_is_fine_minus_coarse(self, path):
        out = cpf_run(OU, path, 4, 100, ["x"], seed=3)
        for key in out.estimates:
            assert out.estimates[key] == pytest.approx(
                out.fine_estimates[key] - out.coarse_estimates[key])

    def test_same_ancestor_monotone(self, path):
        out = cpf_run(OU, path, 5, 300, ["x"], resample_policy="always", seed=4)
        trace = out.diagnostics.same_ancestor_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_intermediate_difference_constant_zero(self, path):
        out = cpf_run(OU, path, 3, 30, ["one"], seed=2, intermediate_times=[0.5])
        assert out.estimates[(0.5, "one")] == 0.0

    def test_sorted_coupling_runs(self, path):
        out = cpf_run(OU, path, 3, 50, ["x"], seed=6, coupling="sorted")
        assert (4.0, "x") in out.estimates

    @pytest.mark.slow
    def test_fine_marginal_distribution_matches_pf(self):
        # with the joint resampler disabled the fine half is a PF in law
        m = builtin_model("ou", {})
        path = simulate_observations("pbar", m, 3, 6, seed=55)
        n_runs = 200
        pf_vals = np.array([
            pf_run(m, path, 3, 100, ["x"], resample_policy="always",
                   seed=10_000 + s).estimates[(3.0, "x")]
            for s in range(n_runs)
        ])
        cpf_vals = np.array([
            cpf_run(m, path, 3, 100, ["x"], resample_policy="always",
                    seed=20_000 + s, coupling="independent").fine_estimates[(3.0, "x")]
            for s in range(n_runs)
        ])
        assert ks_2samp(pf_vals, cpf_vals).pvalue > 1e-3

    @pytest.mark.slow
    def test_variance_decays_with_level(self):
        m = builtin_model("ou", {})
        path = simulate_observations("pbar", m, 5, 8, seed=77)
        variances = []
        levels = [3, 5, 7]
        for l in levels:
            vals = [cpf_run(m, path, l, 500, ["x"], seed=900 + 37 * l + s).estimates[(5.0, "x")]
                    for s in range(30)]
            variances.append(np.var(vals, ddof=1))
        assert variances[0] > variances[-1]


def test_resolve_functionals_dict_passthrough():
    fns = resolve_functionals({"sq": lambda x: x[:, 0] ** 2})
    assert "sq" in fns
    with pytest.raises(ValueError):
        resolve_functionals(["nope"])
