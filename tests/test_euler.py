import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpf import streams
from mlpf.euler import NonFiniteStateError, log_potential, propagate_unit, propagate_unit_coupled
from mlpf.models import ModelSpec, builtin_model

OU = builtin_model("ou", {})


def constant_model(c):
    return ModelSpec(
        name="const", d_x=1, d_y=1,
        drift=lambda x: np.zeros_like(x),
        diffusion=lambda x: np.full(np.shape(x), c),
        observation=lambda x: x, x_star=np.array([0.0]),
    )


class TestLogPotential:
    def test_zero_state(self):
        assert log_potential(OU, np.array([[0.0]]), np.array([0.7]), 0.25)[0] == 0.0

    def test_hand_value(self):
        val = log_potential(OU, np.array([[1.0]]), np.array([0.2]), 0.5)[0]
        assert val == pytest.approx(0.2 - 0.25)

    def test_signal_matched_increment_is_positive(self):
        delta = 0.125
        val = log_potential(OU, np.array([[1.0]]), np.array([delta]), delta)[0]
        assert val == pytest.approx(delta / 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            log_potential(OU, np.array([[np.inf]]), np.array([0.0]), 0.5)
        with pytest.raises(ValueError):
            log_potential(OU, np.array([[0.0]]), np.array([0.0]), 0.0)


class TestPropagateUnit:
    def test_driftless_constant_sigma_affine(self):
        m = constant_model(0.3)
        noise = np.random.default_rng(0).standard_normal((5, 8, 1)) * np.sqrt(2.0 ** -3)
        obs = np.zeros((8, 1))
        x0 = np.linspace(-1, 1, 5)[:, None]
        prop = propagate_unit(m, 3, x0, obs, noise)
        expect = x0[:, 0] + 0.3 * noise[:, :, 0].sum(axis=1)
        assert np.allclose(prop.endpoint[:, 0], expect, rtol=0, atol=1e-14)

    def test_single_step_level0(self):
        noise = np.array([[[0.4]]])
        obs = np.array([[0.1]])
        prop = propagate_unit(OU, 0, np.array([[2.0]]), obs, noise)
        # one Euler step: x + theta*(mu-x)*1 + sigma*xi
        assert prop.endpoint[0, 0] == pytest.approx(2.0 - 2.0 + 0.5 * 0.4)
        assert prop.log_g_total[0] == pytest.approx(log_potential(OU, np.array([[2.0]]), obs[0], 1.0)[0])

    def test_hand_iteration_ou_level2(self):
        # independent scalar re-implementation of the recursion
        xi = np.array([0.1, -0.2, 0.3, 0.05])
        delta = 0.25
        x, log_g = 0.0, 0.0
        for k in range(4):
            log_g += x * 0.0 - 0.5 * delta * x * x
            x = x + 1.0 * (0.0 - x) * delta + 0.5 * xi[k]
        prop = propagate_unit(OU, 2, np.array([[0.0]]), np.zeros((4, 1)), xi.reshape(1, 4, 1))
        assert prop.endpoint[0, 0] == pytest.approx(x, abs=1e-15)
        assert prop.log_g_total[0] == pytest.approx(log_g, abs=1e-15)

    def test_partials_and_states_retained(self):
        noise = np.random.default_rng(1).standard_normal((3, 4, 1)) * 0.5
        obs = np.random.default_rng(2).standard_normal((4, 1)) * 0.1
        prop = propagate_unit(OU, 2, np.zeros((3, 1)), obs, noise, retain=True)
        assert prop.partial_log_g.shape == (3, 4)
        assert prop.intermediate_states.shape == (3, 5, 1)
        assert np.array_equal(prop.partial_log_g[:, -1], prop.log_g_total)
        assert np.array_equal(prop.intermediate_states[:, -1], prop.endpoint)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            propagate_unit(OU, 2, np.zeros((1, 1)), np.zeros((3, 1)), np.zeros((1, 4, 1)))

    def test_constant_sigma_many_particles(self):
        # sigma(x) has the states' shape, so N > 1 particles each get their own noise
        m = constant_model(0.3)
        noise = np.random.default_rng(5).standard_normal((4, 2, 1))
        prop = propagate_unit(m, 1, np.zeros((4, 1)), np.zeros((2, 1)), noise)
        assert prop.endpoint.shape == (4, 1)
        assert np.array_equal(prop.endpoint[:, 0], 0.3 * noise[:, 0, 0] + 0.3 * noise[:, 1, 0])

    def test_non_finite_observation_rejected(self):
        obs = np.array([[0.1], [np.nan]])
        with pytest.raises(ValueError, match="non-finite inputs to log_potential"):
            propagate_unit(OU, 1, np.zeros((2, 1)), obs, np.zeros((2, 2, 1)))


def blow_up_model(threshold):
    """Driftless unit-diffusion model whose drift is +inf above ``threshold``."""
    return ModelSpec(
        name="blow_up", d_x=1, d_y=1,
        drift=lambda x: np.where(x > threshold, np.inf, 0.0),
        diffusion=lambda x: np.ones(np.shape(x)),
        observation=lambda x: x, x_star=np.array([0.0]),
    )


class TestNonFiniteStates:
    """The boundary checks reject every state that is not finite, the endpoint included."""

    L = 3

    def kick_at(self, k):
        # particle 1 crosses the threshold at step k; its state is inf from step k + 1 on
        noise = np.zeros((2, 1 << self.L, 1))
        noise[1, k, 0] = 2.0
        return noise

    def run(self, noise, x0=None):
        x0 = np.zeros((2, 1)) if x0 is None else x0
        return propagate_unit(blow_up_model(1.0), self.L, x0, np.full((1 << self.L, 1), 0.1), noise)

    @pytest.mark.parametrize("k", range((1 << L) - 2))
    def test_mid_interval_raises(self, k):
        # the state is inf before step k + 2 <= 2**L - 1: a per-step check raises in this interval
        with pytest.raises(ValueError, match="non-finite inputs to log_potential"):
            self.run(self.kick_at(k))

    def test_endpoint_overflow_raises(self):
        # kicked at step 2**L - 2, the state first turns inf at the endpoint
        with pytest.raises(NonFiniteStateError, match="non-finite inputs to log_potential"):
            self.run(self.kick_at((1 << self.L) - 2))

    def test_non_finite_start_raises(self):
        x0 = np.array([[0.0], [np.inf]])
        with pytest.raises(NonFiniteStateError, match="non-finite inputs to log_potential"):
            self.run(np.zeros((2, 1 << self.L, 1)), x0=x0)

    def test_kick_on_last_step_stays_finite(self):
        prop = self.run(self.kick_at((1 << self.L) - 1))
        assert np.all(np.isfinite(prop.endpoint))


class TestCoupled:
    def test_requires_l_ge_1(self):
        with pytest.raises(ValueError):
            propagate_unit_coupled(OU, 0, np.zeros((1, 1)), np.zeros((1, 1)),
                                   np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1, 1)))

    def test_constant_coefficients_collapse(self):
        m = constant_model(0.7)
        noise = np.random.default_rng(3).standard_normal((4, 8, 1)) * np.sqrt(2.0 ** -3)
        obs_f = np.random.default_rng(4).standard_normal((8, 1)) * 0.1
        obs_c = obs_f[0::2] + obs_f[1::2]
        x0 = np.ones((4, 1))
        cp = propagate_unit_coupled(m, 3, x0, x0, obs_f, obs_c, noise)
        # equality is exact in real arithmetic; allow last-bit float slack
        assert np.allclose(cp.fine.endpoint, cp.coarse.endpoint, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("name", ["ou", "langevin", "gbm", "nonlinear_sigma"])
    @pytest.mark.parametrize("l", [1, 4])
    def test_marginal_fidelity_bitwise(self, name, l):
        m = builtin_model(name, {})
        rng = np.random.default_rng(hash((name, l)) % 2 ** 32)
        noise = rng.standard_normal((6, 1 << l, 1)) * np.sqrt(2.0 ** -l)
        obs_f = rng.standard_normal((1 << l, 1)) * 0.2
        obs_c = obs_f[0::2] + obs_f[1::2]
        x0 = rng.standard_normal((6, 1)) + (1.0 if name == "gbm" else 0.0)
        cp = propagate_unit_coupled(m, l, x0, x0, obs_f, obs_c, noise)
        fine = propagate_unit(m, l, x0, obs_f, noise)
        coarse = propagate_unit(m, l - 1, x0, obs_c, noise[:, 0::2] + noise[:, 1::2])
        assert np.array_equal(cp.fine.endpoint, fine.endpoint)
        assert np.array_equal(cp.fine.log_g_total, fine.log_g_total)
        assert np.array_equal(cp.coarse.endpoint, coarse.endpoint)
        assert np.array_equal(cp.coarse.log_g_total, coarse.log_g_total)

    @pytest.mark.slow
    def test_gbm_strong_coupling_rate(self):
        m = builtin_model("gbm", {})
        levels = range(3, 9)
        log_errs = []
        for l in levels:
            noise = np.sqrt(2.0 ** -l) * streams.noise_block(2024, l, 0, 10_000, 1)
            obs_f = np.zeros((1 << l, 1))
            obs_c = np.zeros((1 << (l - 1), 1))
            x0 = np.ones((10_000, 1))
            cp = propagate_unit_coupled(m, l, x0, x0, obs_f, obs_c, noise)
            err2 = np.mean((cp.fine.endpoint - cp.coarse.endpoint) ** 2)
            log_errs.append(np.log2(err2))
        slope = np.polyfit(list(levels), log_errs, 1)[0]
        assert -1.3 < slope < -0.7


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 4))
def test_potential_accumulation_consistency(seed, l):
    rng = np.random.default_rng(seed)
    n, steps = 3, 1 << l
    noise = rng.standard_normal((n, steps, 1)) * np.sqrt(2.0 ** -l)
    obs = rng.standard_normal((steps, 1)) * 0.3
    x0 = rng.standard_normal((n, 1))
    prop = propagate_unit(OU, l, x0, obs, noise, retain=True)
    total = np.zeros(n)
    for k in range(steps):
        total = total + log_potential(OU, prop.intermediate_states[:, k], obs[k], 2.0 ** -l)
    assert np.array_equal(total, prop.log_g_total)
