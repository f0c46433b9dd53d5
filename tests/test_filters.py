import dataclasses

import numpy as np
import pytest
from scipy.stats import ks_2samp

from mlpf import streams
from mlpf.euler import NonFiniteStateError, propagate_unit
from mlpf.filters import _call_keys, cpf_run, pf_run, resolve_functionals
from mlpf.multilevel import allocate, mlpf_run
from mlpf.models import BUILTIN_NAMES, ModelSpec, builtin_model
from mlpf.observations import simulate_observations
from mlpf.oracle import kalman_log_normalizer, kalman_run, reference_truth

OU = builtin_model("ou", {})


def silent_model():
    m = builtin_model("ou", {})
    return ModelSpec(
        name="silent", drift=m.drift, diffusion=m.diffusion,
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

        x = np.array([0.0])
        for p in range(path.T):
            noise = np.sqrt(0.25) * streams.noise_block(5, 2, p, 1)
            prop = propagate_unit(OU, 2, x, increments_at_level(path, 2, p), noise)
            x = prop.endpoint
            assert out.estimates[(float(p + 1), "x")] == x[0]

    def test_cost_units(self, path):
        out = pf_run(OU, path, 3, 20, ["x"], seed=0)
        assert out.cost_units == 20 * 8 * path.T

    def test_overflow_on_the_last_step_raises(self):
        # the state first turns inf on the last step of the last interval
        gbm = builtin_model("gbm", {})
        blow_up = ModelSpec(
            name="blow_up", drift=lambda x: x * 4e308,
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

    @pytest.mark.parametrize("policy", ["always", "ess_below_half"])
    def test_normalizer_is_unbiased(self, policy):
        # E[Z_hat] = Z at the filter's level.  With 16 particles log Z_hat is
        # biased low by Jensen's inequality, well beyond its standard error,
        # so only the ratio form can hold at this N.
        m = builtin_model("ou", {"sigma": 1.5})
        path = simulate_observations("p", m, 8, 5, seed=21)
        outs = pf_run(m, path, 3, 16, ["x"], resample_policy=policy,
                      seed=tuple(range(1000, 2000)))
        log_ratio = np.array([o.log_normalizer for o in outs]) - kalman_log_normalizer(
            kalman_run(path, 3, 1.0, 0.0, 1.5))
        ratio = np.exp(log_ratio)
        se = ratio.std(ddof=1) / np.sqrt(ratio.size)
        assert abs(ratio.mean() - 1.0) < 3 * se
        assert log_ratio.mean() < -3 * log_ratio.std(ddof=1) / np.sqrt(log_ratio.size)

    def test_two_particle_normalizer_hand(self):
        # one unit interval, silent potentials replaced by hand-set weights:
        # run the definition directly through log-mean arithmetic
        from mlpf.resampling import log_mean_weight

        a, b = 0.3, -1.2
        assert log_mean_weight(np.array([a, b])) == pytest.approx(
            np.log((np.exp(a) + np.exp(b)) / 2))


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

    @pytest.mark.parametrize("seed", [8, (8, 9)], ids=["int-seed", "tuple-seed"])
    @pytest.mark.parametrize("l", [1, 3, 6])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_fine_chain_is_the_pf_when_nothing_resamples(self, path, name, l, seed):
        """With a zero observation function every weight is equal, so nothing
        resamples, and the fine chain steps the PF's particles on the PF's
        noise: its estimates and log-normalizer are the PF's, exactly."""
        model = dataclasses.replace(builtin_model(name, {}), observation=np.zeros_like)
        pfs = pf_run(model, path, l, 64, ["x", "x2"], seed=seed)
        cpfs = cpf_run(model, path, l, 64, ["x", "x2"], seed=seed)
        if not isinstance(seed, tuple):
            pfs, cpfs = (pfs,), (cpfs,)
        assert len(pfs) == len(cpfs)
        for pf, cpf in zip(pfs, cpfs):
            assert cpf.diagnostics.resample_count == pf.diagnostics.resample_count == 0
            assert cpf.fine_estimates == pf.estimates
            assert cpf.log_normalizer == pf.log_normalizer

    def test_unknown_coupling_rejected(self, path):
        with pytest.raises(ValueError, match="coupling"):
            cpf_run(OU, path, 3, 10, ["x"], coupling="independent")

    def test_sorted_coupling_runs(self, path):
        out = cpf_run(OU, path, 3, 50, ["x"], seed=6, coupling="sorted")
        assert (4.0, "x") in out.estimates

    @pytest.mark.slow
    def test_fine_marginal_distribution_matches_pf(self, independent_resampling):
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
                    seed=20_000 + s).fine_estimates[(3.0, "x")]
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
    fns = resolve_functionals({"sq": lambda x: x ** 2})
    assert "sq" in fns
    with pytest.raises(ValueError):
        resolve_functionals(["nope"])


def _mlpf_run(model, path, l, n, functionals, seed=0):
    return mlpf_run(model, path, allocate("single_pf", l, n), functionals, seed=seed)


@pytest.mark.parametrize("run", [pf_run, cpf_run, _mlpf_run], ids=["pf", "cpf", "mlpf"])
@pytest.mark.parametrize("seed", [(), 1.5, True, -1, (1, True), (1, -2), (2.0,), "3", None],
                         ids=repr)
def test_bad_seed_is_rejected_naming_it(path, run, seed):
    with pytest.raises(ValueError, match="^seed must be"):
        run(OU, path, 2, 10, ["x"], seed=seed)


@pytest.mark.parametrize("run", [pf_run, cpf_run, _mlpf_run], ids=["pf", "cpf", "mlpf"])
def test_a_seed_of_2_64_is_rejected_naming_it(path, run):
    for seed in (2 ** 64, (1, 2 ** 64)):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            run(OU, path, 2, 10, ["x"], seed=seed)
    run(OU, path, 2, 10, ["x"], seed=(0, 2 ** 64 - 1))


def _report_at(run, path, times):
    """One call of ``run`` on ``path`` reporting at ``times``."""
    if run in ("pf", "cpf"):
        return (pf_run if run == "pf" else cpf_run)(OU, path, 2, 10, ["x"], report_times=times)
    if run == "mlpf":
        return mlpf_run(OU, path, allocate("mlpf_constant", 2, 10), ["x"], report_times=times)
    model = OU if run == "kalman" else builtin_model("gbm", {})
    return reference_truth(model, path, 2, 10, ["x"], report_times=times, replicates=2)


@pytest.mark.parametrize("run", ["pf", "cpf", "mlpf", "kalman", "reference_pf"])
@pytest.mark.parametrize("times", [[1.5], [2.0], ["2"], [True], [0], [5], [1, 5]], ids=repr)
def test_bad_report_times_are_rejected_naming_them(path, run, times):
    assert path.T == 4
    with pytest.raises(ValueError, match=r"^report_times must be integers in \[1, T=4\]"):
        _report_at(run, path, times)


@pytest.mark.parametrize("run", ["pf", "cpf", "mlpf", "kalman", "reference_pf"])
def test_report_times_are_reported_as_given(path, run):
    out = _report_at(run, path, iter([np.int64(2), 4]))
    assert sorted(out.estimates) == [(2.0, "x"), (4.0, "x")]


@pytest.mark.parametrize("run", [pf_run, cpf_run])
@pytest.mark.parametrize("n", [0, -3, 1.5, True, "10", None], ids=repr)
def test_bad_particle_count_is_rejected_naming_it(path, run, n):
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1"):
        run(OU, path, 2, n, ["x"], seed=1)


def _at_level(run, path, l):
    """One call of ``run`` on ``path`` at level ``l``."""
    if run in ("pf", "cpf"):
        return (pf_run if run == "pf" else cpf_run)(OU, path, l, 10, ["x"])
    if run == "kalman":
        return kalman_run(path, l, 1.0, 0.0, 0.5)
    return reference_truth(builtin_model("gbm", {}), path, l, 10, ["x"], replicates=2)


@pytest.mark.parametrize("run", ["pf", "cpf", "kalman", "reference_truth"])
@pytest.mark.parametrize("level", [True, 2.5, "2", None, np.float64(2.0)], ids=repr)
def test_a_level_that_is_not_an_integer_is_rejected_naming_it(path, run, level):
    """A level is an integer, not a bool, checked before the coupled
    filter's l >= 1 and before any stream key is derived."""
    with pytest.raises(ValueError, match=r"^level must be an integer, got "):
        _at_level(run, path, level)


@pytest.mark.parametrize("run", ["pf", "cpf", "kalman", "reference_truth"])
def test_a_negative_level_is_rejected_naming_it(path, run):
    with pytest.raises(ValueError, match=r"^level must be >= 0, got -1$"):
        _at_level(run, path, -1)


@pytest.mark.parametrize("run", ["pf", "cpf", "kalman", "reference_truth"])
def test_a_numpy_integer_level_is_accepted(path, run):
    got, want = _at_level(run, path, np.int64(2)), _at_level(run, path, 2)
    if run == "kalman":
        assert got.means.tobytes() == want.means.tobytes()
    else:
        assert got.estimates == want.estimates


def test_numpy_integer_seeds_and_counts_are_accepted(path):
    out = pf_run(OU, path, 2, np.int64(10), ["x"], seed=(np.uint64(3),))
    assert out == (pf_run(OU, path, 2, 10, ["x"], seed=3),)


def threshold_crossed_by_one(l, n, seeds):
    """A level between the highest and second-highest pre-step state that
    any replicate's particles reach in the first interval of a driftless,
    unit-diffusion model started at 0, and the replicate that reaches it."""
    peaks = []
    for s in seeds:
        states = np.cumsum(streams.noise_block(s, l, 0, n) * np.sqrt(2.0 ** -l), axis=1)
        peaks.append(states[:, :-1].max())  # the endpoint is no step's pre-step state
    first, second = np.argsort(peaks)[::-1][:2]
    return (peaks[first] + peaks[second]) / 2, int(first)


@pytest.mark.parametrize("run", [pf_run, cpf_run])
def test_a_fault_names_its_replicate_and_seed(run):
    """The drift turns infinite above a threshold that only one replicate's
    particles cross, and the error names that replicate and its seed."""
    l, n, seeds = 3, 8, (6, 7, 5, 8)
    path = simulate_observations("pbar", OU, 1, l, seed=314)
    threshold, bad = threshold_crossed_by_one(l, n, seeds)
    assert bad == 2  # neither the first nor the last replicate
    model = ModelSpec(
        name="blow_up", drift=lambda x: np.where(x > threshold, np.inf, 0.0),
        diffusion=lambda x: np.ones(np.shape(x)), observation=lambda x: x, x_star=0.0,
        sigma=1.0,
    )
    with pytest.raises(NonFiniteStateError, match=rf"^replicate {bad} \(seed {seeds[bad]}\): "
                                                  "non-finite state"):
        run(model, path, l, n, ["x"], seed=seeds)
    good = seeds[:bad] + seeds[bad + 1:]
    run(model, path, l, n, ["x"], seed=good)  # the others alone run through


@pytest.mark.parametrize("run", [pf_run, cpf_run])
def test_a_functional_maps_one_replicate_at_a_time(path, run):
    """A functional sees one replicate's (N,) states at a time, so one that
    is not elementwise gives each replicate its single-seed estimate."""
    n, seeds, shapes = 12, (4, 9, 2), []

    def centred(x):
        shapes.append(x.shape)
        return x - x.mean()

    outs = run(OU, path, 3, n, {"centred": centred}, seed=seeds)
    assert set(shapes) == {(n,)}
    for seed, out in zip(seeds, outs):
        assert out == run(OU, path, 3, n, {"centred": centred}, seed=seed)


@pytest.mark.parametrize("run", [pf_run, cpf_run])
def test_stream_keys_of_another_shape_are_rejected(path, run):
    keys = _call_keys([(1, 2)], [3], path.T)[0]
    assert run(OU, path, 3, 10, ["x"], seed=(1, 2), _keys=keys) == run(OU, path, 3, 10, ["x"],
                                                                        seed=(1, 2))
    short = keys[:, :, :-1]
    for bad, seed in ((keys, (1, 2, 3)), (keys, 1), (short, (1, 2))):
        with pytest.raises(ValueError, match="^_keys must hold"):
            run(OU, path, 3, 10, ["x"], seed=seed, _keys=bad)
