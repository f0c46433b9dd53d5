import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpf import streams
from mlpf.euler import NonFiniteStateError, propagate_unit, propagate_unit_coupled
from mlpf.models import ModelSpec, builtin_model

OU = builtin_model("ou", {})


def constant_model(c):
    return ModelSpec(
        name="const",
        drift=lambda x: np.zeros_like(x),
        diffusion=lambda x: np.full(np.shape(x), c),
        observation=lambda x: x, x_star=0.0,
    )


def one_step_log_g(x, dy):
    """The log-potential h*dy - (delta/2)*h^2 of one Euler step at l = 0
    (delta = 1) from the state x, with h = x for the OU model."""
    return propagate_unit(OU, 0, np.array([x]), np.array([dy]), np.zeros((1, 1))).log_g_total[0]


class TestLogPotential:
    def test_zero_state(self):
        assert one_step_log_g(0.0, 0.7) == 0.0

    def test_hand_value(self):
        assert one_step_log_g(1.0, 0.2) == pytest.approx(0.2 - 0.5)

    def test_signal_matched_increment_is_positive(self):
        # dy = h * delta with delta = 1
        assert one_step_log_g(1.0, 1.0) == pytest.approx(0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteStateError, match="non-finite state"):
            one_step_log_g(np.inf, 0.0)
        with pytest.raises(NonFiniteStateError, match="observation increment"):
            one_step_log_g(0.0, np.nan)


class TestPropagateUnit:
    def test_driftless_constant_sigma_affine(self):
        m = constant_model(0.3)
        noise = np.random.default_rng(0).standard_normal((5, 8)) * np.sqrt(2.0 ** -3)
        obs = np.zeros(8)
        x0 = np.linspace(-1, 1, 5)
        prop = propagate_unit(m, 3, x0, obs, noise)
        expect = x0 + 0.3 * noise.sum(axis=1)
        assert np.allclose(prop.endpoint, expect, rtol=0, atol=1e-14)

    def test_single_step_level0(self):
        noise = np.array([[0.4]])
        obs = np.array([0.1])
        prop = propagate_unit(OU, 0, np.array([2.0]), obs, noise)
        # one Euler step: x + theta*(mu-x)*1 + sigma*xi
        assert prop.endpoint[0] == pytest.approx(2.0 - 2.0 + 0.5 * 0.4)
        assert prop.log_g_total[0] == pytest.approx(2.0 * 0.1 - 0.5 * 2.0 * 2.0)

    def test_hand_iteration_ou_level2(self):
        # independent scalar re-implementation of the recursion
        xi = np.array([0.1, -0.2, 0.3, 0.05])
        delta = 0.25
        x, log_g = 0.0, 0.0
        for k in range(4):
            log_g += x * 0.0 - 0.5 * delta * x * x
            x = x + 1.0 * (0.0 - x) * delta + 0.5 * xi[k]
        prop = propagate_unit(OU, 2, np.array([0.0]), np.zeros(4), xi.reshape(1, 4))
        assert prop.endpoint[0] == pytest.approx(x, abs=1e-15)
        assert prop.log_g_total[0] == pytest.approx(log_g, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            propagate_unit(OU, 2, np.zeros(1), np.zeros(3), np.zeros((1, 4)))
        with pytest.raises(ValueError):  # a trailing length-1 axis is rejected
            propagate_unit(OU, 2, np.zeros((1, 1)), np.zeros((4, 1)), np.zeros((1, 4, 1)))

    def test_constant_sigma_many_particles(self):
        # sigma(x) has the states' shape, so N > 1 particles each get their own noise
        m = constant_model(0.3)
        noise = np.random.default_rng(5).standard_normal((4, 2))
        prop = propagate_unit(m, 1, np.zeros(4), np.zeros(2), noise)
        assert prop.endpoint.shape == (4,)
        assert np.array_equal(prop.endpoint, 0.3 * noise[:, 0] + 0.3 * noise[:, 1])

    def test_non_finite_observation_rejected(self):
        obs = np.array([0.1, np.nan])
        with pytest.raises(ValueError, match="non-finite state or observation increment"):
            propagate_unit(OU, 1, np.zeros(2), obs, np.zeros((2, 2)))


def blow_up_model(threshold):
    """Driftless unit-diffusion model whose drift is +inf above ``threshold``."""
    return ModelSpec(
        name="blow_up",
        drift=lambda x: np.where(x > threshold, np.inf, 0.0),
        diffusion=lambda x: np.ones(np.shape(x)),
        observation=lambda x: x, x_star=0.0,
    )


class TestNonFiniteStates:
    """The boundary checks reject every state that is not finite, the endpoint included."""

    L = 3

    def kick_at(self, k):
        # particle 1 crosses the threshold at step k; its state is inf from step k + 1 on
        noise = np.zeros((2, 1 << self.L))
        noise[1, k] = 2.0
        return noise

    def run(self, noise, x0=None):
        x0 = np.zeros(2) if x0 is None else x0
        return propagate_unit(blow_up_model(1.0), self.L, x0, np.full(1 << self.L, 0.1), noise)

    @pytest.mark.parametrize("k", range((1 << L) - 2))
    def test_mid_interval_raises(self, k):
        # the state is inf before step k + 2 <= 2**L - 1: a per-step check raises in this interval
        with pytest.raises(ValueError, match="non-finite state or observation increment"):
            self.run(self.kick_at(k))

    def test_endpoint_overflow_raises(self):
        # kicked at step 2**L - 2, the state first turns inf at the endpoint
        with pytest.raises(NonFiniteStateError, match="non-finite state or observation increment"):
            self.run(self.kick_at((1 << self.L) - 2))

    def test_non_finite_start_raises(self):
        x0 = np.array([0.0, np.inf])
        with pytest.raises(NonFiniteStateError, match="non-finite state or observation increment"):
            self.run(np.zeros((2, 1 << self.L)), x0=x0)

    def test_kick_on_last_step_stays_finite(self):
        prop = self.run(self.kick_at((1 << self.L) - 1))
        assert np.all(np.isfinite(prop.endpoint))


class TestCoupled:
    def test_requires_l_ge_1(self):
        with pytest.raises(ValueError):
            propagate_unit_coupled(OU, 0, np.zeros(1), np.zeros(1),
                                   np.zeros(1), np.zeros(1), np.zeros((1, 1)))

    def test_constant_coefficients_collapse(self):
        m = constant_model(0.7)
        noise = np.random.default_rng(3).standard_normal((4, 8)) * np.sqrt(2.0 ** -3)
        obs_f = np.random.default_rng(4).standard_normal(8) * 0.1
        obs_c = obs_f[0::2] + obs_f[1::2]
        x0 = np.ones(4)
        cp = propagate_unit_coupled(m, 3, x0, x0, obs_f, obs_c, noise)
        # equality is exact in real arithmetic; allow last-bit float slack
        assert np.allclose(cp.fine.endpoint, cp.coarse.endpoint, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("name", ["ou", "langevin", "gbm", "nonlinear_sigma"])
    @pytest.mark.parametrize("l", [1, 4])
    def test_marginal_fidelity_bitwise(self, name, l):
        m = builtin_model(name, {})
        rng = np.random.default_rng(hash((name, l)) % 2 ** 32)
        noise = rng.standard_normal((6, 1 << l)) * np.sqrt(2.0 ** -l)
        obs_f = rng.standard_normal(1 << l) * 0.2
        obs_c = obs_f[0::2] + obs_f[1::2]
        x0 = rng.standard_normal(6) + (1.0 if name == "gbm" else 0.0)
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
            noise = np.sqrt(2.0 ** -l) * streams.noise_block(2024, l, 0, 10_000)
            obs_f = np.zeros(1 << l)
            obs_c = np.zeros(1 << (l - 1))
            x0 = np.ones(10_000)
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
    noise = rng.standard_normal((n, steps)) * np.sqrt(2.0 ** -l)
    obs = rng.standard_normal(steps) * 0.3
    x0 = rng.standard_normal(n)
    prop = propagate_unit(OU, l, x0, obs, noise)
    assert np.array_equal(prop.log_g_total, reference_propagate(OU, l, x0, obs, noise)[1])


def reference_propagate(model, l, x0, obs, noise):
    """The Euler loop in its plain form: fresh arrays on every step and the
    diffusion called on every step, whatever ``model.sigma`` is.  Returns the
    endpoint and the summed log-potential."""
    delta = 2.0 ** -l
    x = x0
    log_g = np.zeros(x0.shape[0])
    for k in range(1 << l):
        h = model.observation(x)
        log_g += h * float(obs[k]) - 0.5 * delta * (h * h)
        x = x + model.drift(x) * delta + model.diffusion(x) * noise[:, k]
    return x, log_g


KERNEL_MODELS = {name: builtin_model(name, {}) for name in ("ou", "langevin", "gbm",
                                                             "nonlinear_sigma")}
# state-dependent sigma and a non-identity observation, so h is not the state array
KERNEL_MODELS["custom"] = ModelSpec(
    name="custom", drift=lambda x: np.sin(x) - 0.3 * x,
    diffusion=lambda x: 0.4 + 0.2 * np.tanh(x), observation=lambda x: 0.7 * x - 0.1,
    x_star=0.2,
)
# drift and observation hand back the state array itself, and sigma is set
KERNEL_MODELS["aliasing"] = ModelSpec(
    name="aliasing", drift=lambda x: x, diffusion=lambda x: np.full(np.shape(x), 0.8),
    observation=lambda x: x, x_star=0.5, sigma=0.8,
)


def kernel_inputs(name, l, n=7):
    rng = np.random.default_rng([len(name), l, n])
    x0 = KERNEL_MODELS[name].x_star + 0.5 * rng.standard_normal(n)
    noise = rng.standard_normal((n, 1 << l)) * np.sqrt(2.0 ** -l)
    obs = rng.standard_normal(1 << l) * 0.3
    return x0, obs, noise


def kernel_model(name, sigma_withheld):
    """``KERNEL_MODELS[name]``, or the same model with ``sigma`` unset, so the
    kernel calls the diffusion even where it is a constant."""
    m = KERNEL_MODELS[name]
    return dataclasses.replace(m, sigma=None) if sigma_withheld else m


def assert_same_propagation(prop, ref):
    endpoint, log_g = ref
    assert np.array_equal(prop.endpoint, endpoint)
    assert np.array_equal(prop.log_g_total, log_g)


class TestKernelBitIdentity:
    """The buffered kernel gives the bytes of the plain loop and leaves its
    inputs alone, whether it multiplies a constant ``sigma`` into the noise or
    calls the diffusion."""

    @pytest.mark.parametrize("sigma_withheld", [False, True])
    @pytest.mark.parametrize("l", [0, 1, 4])
    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_propagate_unit(self, name, l, sigma_withheld):
        m = kernel_model(name, sigma_withheld)
        x0, obs, noise = kernel_inputs(name, l)
        x0_copy, noise_copy = x0.copy(), noise.copy()
        prop = propagate_unit(m, l, x0, obs, noise)
        assert_same_propagation(prop, reference_propagate(m, l, x0_copy, obs, noise_copy))
        assert np.array_equal(x0, x0_copy) and np.array_equal(noise, noise_copy)
        assert not np.shares_memory(prop.endpoint, x0)

    # False: no buffer; True: a separate buffer; "aliased": the noise's own even columns
    @pytest.mark.parametrize("buffered", [False, True, "aliased"])
    @pytest.mark.parametrize("sigma_withheld", [False, True])
    @pytest.mark.parametrize("l", [1, 4])
    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_propagate_unit_coupled(self, name, l, sigma_withheld, buffered):
        m = kernel_model(name, sigma_withheld)
        x0, obs_f, noise = kernel_inputs(name, l)
        obs_c = obs_f[0::2] + obs_f[1::2]
        xc = x0[::-1].copy()
        x0_copy, xc_copy, noise_copy = x0.copy(), xc.copy(), noise.copy()
        pair_buf = {False: None, True: np.full((x0.shape[0], 1 << (l - 1)), np.nan),
                    "aliased": noise[:, 0::2]}[buffered]
        cp = propagate_unit_coupled(m, l, x0, xc, obs_f, obs_c, noise, coarse_noise=pair_buf)
        pair_sums = noise_copy[:, 0::2] + noise_copy[:, 1::2]
        unbuffered = propagate_unit_coupled(m, l, x0_copy, xc_copy, obs_f, obs_c, noise_copy)
        for got, want in ((cp.fine, unbuffered.fine), (cp.coarse, unbuffered.coarse)):
            assert_same_propagation(got, (want.endpoint, want.log_g_total))
        assert_same_propagation(cp.fine, reference_propagate(m, l, x0_copy, obs_f, noise_copy))
        assert_same_propagation(cp.coarse, reference_propagate(m, l - 1, xc_copy, obs_c,
                                                               pair_sums))
        if buffered:
            assert np.array_equal(pair_buf, pair_sums)
        assert np.array_equal(x0, x0_copy) and np.array_equal(xc, xc_copy)
        if buffered != "aliased":
            assert np.array_equal(noise, noise_copy)
        else:  # only the even columns are written
            assert np.array_equal(noise[:, 1::2], noise_copy[:, 1::2])

    def test_pair_sum_buffer_shape_is_checked(self):
        with pytest.raises(ValueError):
            propagate_unit_coupled(OU, 2, np.zeros(3), np.zeros(3), np.zeros(4), np.zeros(2),
                                   np.zeros((3, 4)), coarse_noise=np.empty((3, 4)))


@pytest.mark.parametrize("name", ["ou", "gbm", "nonlinear_sigma"])
def test_a_one_step_call_holds_no_state_copy(name):
    """At l 0 a call holds the log-potential row, the s*xi row, the sum and
    the state buffer, which takes x0 and then the endpoint: four arrays of
    N floats, besides numpy's fixed-size ufunc buffers.  The built-ins'
    in-place forms add no temporary beside them."""
    model, n = builtin_model(name, {}), 1 << 16
    x0, obs = np.full(n, 0.5), np.array([0.01])
    noise = streams.noise_block(3, 0, 0, n)
    propagate_unit(model, 0, x0, obs, noise)
    tracemalloc.start()
    try:
        propagate_unit(model, 0, x0, obs, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n + (128 << 10)
