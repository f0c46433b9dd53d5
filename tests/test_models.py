import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlpf.models import BUILTIN_NAMES, ModelParameterError, ModelSpec, builtin_model, langevin_drift


def test_ou_defaults():
    m = builtin_model("ou", {})
    assert m.drift(np.array([2.0]))[0] == pytest.approx(-2.0)
    assert np.array_equal(m.diffusion(np.array([3.7, -1.0])), [0.5, 0.5])
    assert m.is_linear_gaussian and m.sigma == 0.5


def test_nonlinear_sigma_defaults_zero_drift():
    m = builtin_model("nonlinear_sigma", {})
    x = np.array([[-3.0], [0.0], [7.5]])
    assert np.all(m.drift(x) == 0.0)
    assert np.array_equal(m.diffusion(np.array([0.0, 1.0])), [1.0, 1.0 / np.sqrt(2.0)])


def test_gbm_diffusion_vanishes_at_zero():
    m = builtin_model("gbm", {})
    assert np.array_equal(m.diffusion(np.array([0.0, 2.0])), [0.0, 0.4])
    assert m.drift(np.array([1.0]))[0] == pytest.approx(0.02)


def test_unknown_name_and_bad_params():
    with pytest.raises(ValueError):
        builtin_model("cir", {})
    with pytest.raises(ValueError):
        builtin_model("gbm", {"sigma": -0.1})
    with pytest.raises(ValueError):
        builtin_model("ou", {"rho": 1.0})


def test_langevin_drift_values():
    assert langevin_drift(0.0, 10.0) == 0.0
    assert langevin_drift(1.0, 10.0) == pytest.approx(-0.5)
    assert langevin_drift(-1.0, 10.0) == pytest.approx(0.5)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_latent_step_keeps_a_float_state_a_float(name):
    """The simulated latent path steps on floats: the drift, and a
    state-dependent diffusion, map a float to a float with the bytes of
    the array form."""
    m = builtin_model(name, {})
    x = np.array([-3.0, -0.5, 0.0, 0.7, 1e150])
    for fn in [m.drift] + ([m.diffusion] if m.sigma is None else []):
        out = [fn(v) for v in x.tolist()]
        assert all(type(v) is float for v in out)
        assert np.array(out).tobytes() == fn(x).tobytes()


def test_langevin_drift_keeps_the_type_of_its_state():
    assert type(langevin_drift(1.5, 10.0)) is float
    x = np.array([-1.0, 0.0, 1.5])
    out = langevin_drift(x, 10.0)
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [langevin_drift(v, 10.0) for v in x.tolist()]


@given(st.floats(-1e6, 1e6), st.floats(0.1, 100.0))
def test_langevin_drift_odd(x, nu):
    assert langevin_drift(-x, nu) == pytest.approx(-langevin_drift(x, nu), abs=1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_finite_on_large_states(name):
    m = builtin_model(name, {})
    x = np.array([[-1e6], [-1.0], [0.0], [1.0], [1e6]])
    assert np.all(np.isfinite(m.drift(x)))
    assert np.all(np.isfinite(m.diffusion(x)))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_diffusion_is_elementwise(name):
    m = builtin_model(name, {})
    for x in (np.array([0.5, 1.5, -2.0]), np.array([[0.5], [1.5]])):
        assert m.diffusion(x).shape == x.shape


@pytest.mark.parametrize("diffusion", [
    lambda x: np.full(np.shape(x) + (1, 1), 0.5),  # the former (N, d_x, d_x) matrix form
    lambda x: np.full(np.shape(x) + (1,), 0.5),
    lambda x: 0.5,
])
def test_model_spec_rejects_non_elementwise_diffusion(diffusion):
    with pytest.raises(ValueError, match="elementwise"):
        ModelSpec(name="old", drift=lambda x: -x, diffusion=diffusion,
                  observation=lambda x: x, x_star=0.0)


def spec_with_start(x_star):
    return ModelSpec(name="start", drift=lambda x: -x, diffusion=lambda x: np.ones(np.shape(x)),
                     observation=lambda x: x, x_star=x_star)


def test_model_spec_rejects_vector_states():
    for x_star in (np.zeros(2), np.array([0.0]), [[1.0]]):
        with pytest.raises(ValueError, match="x_star must be a finite scalar"):
            spec_with_start(x_star)


@pytest.mark.parametrize("x_star", [np.nan, np.inf, -np.inf, "zero", None])
def test_model_spec_rejects_non_finite_start(x_star):
    with pytest.raises(ValueError, match="x_star must be a finite scalar"):
        spec_with_start(x_star)


def test_model_spec_start_is_a_float():
    for x_star in (2, np.float32(0.5), np.int64(-3)):
        m = spec_with_start(x_star)
        assert type(m.x_star) is float and m.x_star == float(x_star)


def test_constant_diffusion_flags():
    sigmas = {name: builtin_model(name, {}).sigma for name in BUILTIN_NAMES}
    assert sigmas == {"ou": 0.5, "langevin": 1.0, "gbm": None, "nonlinear_sigma": None}
    assert type(sigmas["ou"]) is float and type(sigmas["langevin"]) is float


def test_observation_is_identity_for_builtins():
    for name in BUILTIN_NAMES:
        m = builtin_model(name, {})
        x = np.array([0.3, -2.0])
        assert np.array_equal(m.observation(x), x)


def spec_with_sigma(sigma, diffusion=lambda x: np.full(np.shape(x), 0.5)):
    return ModelSpec(name="sig", drift=lambda x: -x, diffusion=diffusion,
                     observation=lambda x: x, x_star=0.25, sigma=sigma)


def test_model_spec_sigma_is_a_float():
    m = spec_with_sigma(np.float32(0.5))
    assert type(m.sigma) is float and m.sigma == 0.5
    assert spec_with_sigma(None, diffusion=lambda x: 1.0 + x * x).sigma is None


@pytest.mark.parametrize("sigma", [0.25, 0.5000000000000001, -0.5])
def test_model_spec_rejects_sigma_that_disagrees_with_diffusion(sigma):
    with pytest.raises(ValueError, match="sigma"):
        spec_with_sigma(sigma)


def test_model_spec_rejects_sigma_for_state_dependent_diffusion():
    # equal to the diffusion nowhere near x_star: sigma(0.25) = 1.0625
    with pytest.raises(ValueError, match="disagrees with the diffusion"):
        spec_with_sigma(1.0, diffusion=lambda x: 1.0 + x * x)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, "0.5", True, [0.5]])
def test_model_spec_rejects_non_finite_or_non_positive_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be a finite positive scalar"):
        spec_with_sigma(sigma)


def test_builtin_sigma_follows_params():
    assert builtin_model("ou", {"sigma": 2}).sigma == 2.0
    assert builtin_model("langevin", {"nu": 3.0}).sigma == 1.0
    assert builtin_model("gbm", {"sigma": 0.7}).sigma is None


@pytest.mark.parametrize("params,key", [
    ({"sigma": [1]}, "sigma"),
    ({"sigma": "0.5"}, "sigma"),
    ({"theta": None}, "theta"),
    ({"x_star": True}, "x_star"),
    ({"mu": float("nan")}, "mu"),
    ({"x_star": float("inf")}, "x_star"),
])
def test_bad_parameter_value_names_the_parameter(params, key):
    with pytest.raises(ModelParameterError, match=repr(key)) as info:
        builtin_model("ou", params)
    assert info.value.key == key


@pytest.mark.parametrize("params", [[1], "sigma", 0.5])
def test_non_object_params_rejected(params):
    with pytest.raises(ModelParameterError, match="must be an object") as info:
        builtin_model("gbm", params)
    assert info.value.key is None


def test_non_positive_scale_names_the_parameter():
    for name, key in (("ou", "sigma"), ("gbm", "sigma"), ("langevin", "nu")):
        with pytest.raises(ModelParameterError, match=key) as info:
            builtin_model(name, {key: 0.0})
        assert info.value.key == key
