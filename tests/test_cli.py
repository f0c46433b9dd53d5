import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mlpf.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from mlpf.observations import PathFormatError, read_path


@pytest.fixture()
def path_file(tmp_path):
    out = tmp_path / "obs.bin"
    rc = main(["simulate-data", "--model", "ou", "--T", "2", "--L-data", "5",
               "--seed", "7", "--out", str(out)])
    assert rc == EXIT_OK
    return str(out)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestSimulateData:
    def test_writes_valid_path(self, path_file):
        path = read_path(path_file)
        assert (path.T, path.L_data, path.seed) == (2, 5, 7)

    def test_csv_sidecar(self, tmp_path):
        out, side = tmp_path / "o.bin", tmp_path / "o.csv"
        assert main(["simulate-data", "--model", "ou", "--T", "1", "--L-data", "3",
                     "--out", str(out), "--csv", str(side)]) == EXIT_OK
        lines = side.read_text().strip().split("\n")
        assert lines[0] == "k,component,value"
        assert len(lines) == 9

    def test_bad_params_is_config_error(self, tmp_path):
        rc = main(["simulate-data", "--model", "ou", "--params", "{not json",
                   "--T", "1", "--L-data", "3", "--out", str(tmp_path / "x.bin")])
        assert rc == EXIT_CONFIG

    def test_unknown_param_rejected(self, tmp_path):
        rc = main(["simulate-data", "--model", "ou", "--params", '{"zeta": 1}',
                   "--T", "1", "--L-data", "3", "--out", str(tmp_path / "x.bin")])
        assert rc == EXIT_CONFIG

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.bin"
        assert main(["simulate-data", "--model", "ou", "--T", "1", "--L-data", "2",
                     "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
        assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_of_2_64_is_config_error(self, tmp_path, capsys):
        """A path file stores its seed in 64 bits."""
        out = tmp_path / "x.bin"
        assert main(["simulate-data", "--model", "ou", "--T", "1", "--L-data", "2",
                     "--seed", str(2 ** 64), "--out", str(out)]) == EXIT_CONFIG
        assert f"error: seed must be less than 2**64, got {2 ** 64}" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommands:
    def test_run_pf(self, path_file, capsys):
        assert main(["run-pf", "--model", "ou", "--path", path_file,
                     "--level", "3", "--n", "50", "--seed", "1"]) == EXIT_OK
        out = read_json(capsys)
        assert out["level"] == 3 and out["n_particles"] == 50
        assert "2.0:x" in out["estimates"]

    def test_run_cpf(self, path_file, capsys):
        assert main(["run-cpf", "--model", "ou", "--path", path_file,
                     "--level", "3", "--n", "50"]) == EXIT_OK
        out = read_json(capsys)
        assert "fine_estimates" in out and "same_ancestor_fraction" in out

    def test_run_mlpf(self, path_file, capsys):
        assert main(["run-mlpf", "--model", "ou", "--path", path_file,
                     "--rule", "mlpf_constant", "--L", "3", "--base", "4"]) == EXIT_OK
        out = read_json(capsys)
        assert out["cost_units"] == out["planned_cost"]
        assert len(out["counts"]) == 4

    def test_run_mlpf_single_pf(self, path_file, capsys):
        assert main(["run-mlpf", "--model", "ou", "--path", path_file,
                     "--rule", "single_pf", "--L", "3", "--base", "4"]) == EXIT_OK
        out = read_json(capsys)
        assert out["cost_units"] == out["planned_cost"]
        assert out["counts"] == [32] and out["L"] == 3

    def test_truth(self, path_file, capsys):
        assert main(["truth", "--model", "ou", "--path", path_file,
                     "--level", "4", "--n", "100"]) == EXIT_OK
        assert read_json(capsys)["kind"] == "kalman"

    @pytest.mark.parametrize("params", ['{"sigma": 1e200}', '{"theta": 1e200}', '{"mu": 1e300}',
                                        '{"x_star": 1e300}'],
                             ids=["sigma", "theta", "mu", "x_star"])
    def test_kalman_overflow_is_runtime_error(self, path_file, capsys, params):
        assert main(["truth", "--model", "ou", "--params", params, "--path", path_file,
                     "--level", "3"]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == "" and "Kalman filter at level 3 overflowed at step" in captured.err

    def test_level_too_fine_is_config_error(self, path_file):
        assert main(["run-pf", "--model", "ou", "--path", path_file,
                     "--level", "9", "--n", "10"]) == EXIT_CONFIG

    def test_numerical_fault_is_runtime_error(self, tmp_path, capsys):
        gbm_path = tmp_path / "gbm.bin"
        assert main(["simulate-data", "--model", "gbm", "--T", "2", "--L-data", "4",
                     "--seed", "7", "--out", str(gbm_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["run-pf", "--model", "gbm", "--params", '{"mu": 1e300}',
                     "--path", str(gbm_path), "--level", "4", "--n", "10"]) == EXIT_RUNTIME
        assert "non-finite" in capsys.readouterr().err

    def test_numerical_fault_in_a_cut_call_is_runtime_error(self, tmp_path, capsys):
        gbm_path = tmp_path / "gbm.bin"
        assert main(["simulate-data", "--model", "gbm", "--T", "3", "--L-data", "7",
                     "--seed", "7", "--out", str(gbm_path)]) == EXIT_OK
        capsys.readouterr()
        # 2560 particles at level 7 are stepped in two halves, one drawn on a helper thread
        assert main(["run-pf", "--model", "gbm", "--params", '{"mu": 128000, "x_star": 1e-300}',
                     "--path", str(gbm_path), "--level", "7", "--n", "2560",
                     "--resample-policy", "always"]) == EXIT_RUNTIME
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command,model", [("run-pf", "ou"), ("truth", "ou"), ("truth", "gbm")],
                             ids=["run-pf", "truth-kalman", "truth-pf"])
    def test_negative_level_is_config_error(self, path_file, capsys, command, model):
        assert main([command, "--model", model, "--path", path_file, "--level", "-1",
                     "--n", "10"]) == EXIT_CONFIG
        assert "level must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-5"])
    @pytest.mark.parametrize("command,model", [("run-pf", "ou"), ("truth", "ou"), ("truth", "gbm")],
                             ids=["run-pf", "truth-kalman", "truth-pf"])
    def test_non_positive_n_is_config_error(self, path_file, capsys, command, model, n):
        assert main([command, "--model", model, "--path", path_file, "--level", "2",
                     "--n", n]) == EXIT_CONFIG
        assert f"n must be an integer >= 1, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-pf", "run-cpf", "truth"])
    def test_negative_seed_is_config_error(self, path_file, capsys, command):
        assert main([command, "--model", "gbm", "--path", path_file, "--level", "3",
                     "--n", "10", "--seed", "-1"]) == EXIT_CONFIG
        assert "error: seed must be" in capsys.readouterr().err

    def test_negative_seed_in_run_mlpf_is_config_error(self, path_file, capsys):
        assert main(["run-mlpf", "--model", "ou", "--path", path_file, "--L", "3",
                     "--base", "4", "--seed", "-1"]) == EXIT_CONFIG
        assert "error: seed must be" in capsys.readouterr().err

    @pytest.mark.parametrize("base", ["inf", "nan", "-inf"])
    def test_non_finite_base_is_config_error(self, path_file, capsys, base):
        assert main(["run-mlpf", "--model", "ou", "--path", path_file, "--L", "3",
                     f"--base={base}"]) == EXIT_CONFIG
        assert "base must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("args,fragment", [
        (["run-mlpf", "--model", "ou", "--L", "5000", "--base", "1"], "error: L must be < 1024"),
        (["run-mlpf", "--model", "ou", "--L", "3", "--base", "1e308"], "error: base 1e+308"),
        # counts too large for any array, which numpy would reject without naming a field
        (["run-mlpf", "--model", "ou", "--L", "3", "--base", "1e300"], "error: base 1e+300"),
        (["run-mlpf", "--model", "ou", "--L", "3", "--base", "1e17"], "error: base 1e+17"),
        (["run-cpf", "--model", "ou", "--level", "3", "--n", str(2 * 10 ** 18)],
         f"error: n={2 * 10 ** 18} particles"),
        (["truth", "--model", "gbm", "--level", "3", "--n", str(10 ** 18)],
         f"error: n={10 ** 18} particles"),
    ], ids=["L-overflow", "base-overflow", "base-array-limit", "base-1e17", "cpf-n", "truth-n"])
    def test_overflowing_allocation_is_config_error(self, path_file, capsys, args, fragment):
        assert main([*args, "--path", path_file]) == EXIT_CONFIG
        assert fragment in capsys.readouterr().err

    def test_out_of_memory_is_runtime_error(self, path_file, capsys):
        # 10**14 particles need 728 TiB, beyond the address space, so numpy
        # refuses the first array at once and allocates nothing
        assert main(["run-pf", "--model", "ou", "--path", path_file, "--level", "3",
                     "--n", "100000000000000"]) == EXIT_RUNTIME
        assert "error: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize("params,fragment", [
        ('{"sigma": [1]}', "'sigma'"),
        ('{"theta": "fast"}', "'theta'"),
        ("[1]", "must be an object"),
        ('"ou"', "must be an object"),
    ], ids=["list-value", "string-value", "list", "string"])
    def test_bad_params_value_is_config_error(self, path_file, capsys, params, fragment):
        assert main(["run-pf", "--model", "ou", "--params", params,
                     "--path", path_file, "--level", "3", "--n", "10"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert fragment in err and "Traceback" not in err

    @pytest.mark.parametrize("params", ["nul", "{not json", "\udcaa"], ids=repr)
    def test_params_that_are_not_json_name_the_flag(self, path_file, capsys, params):
        assert main(["run-pf", "--model", "ou", "--params", params,
                     "--path", path_file, "--level", "3", "--n", "10"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --params: ") and "Traceback" not in err, err

    def test_bad_model_params_in_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "model": "ou", "model_params": {"sigma": [1]}, "T": 2, "L_data": 4, "repeats": 2,
            "master_seed": 3, "output_dir": str(tmp_path / "out"),
            "estimators": [{"id": "pf", "rule": "single_pf", "L_min": 1, "L_max": 2,
                            "base": 4.0}],
        }))
        assert main(["benchmark", "--config", str(cfg), "--quiet"]) == EXIT_CONFIG
        assert "config.model_params.sigma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_start_is_config_error(self, path_file, capsys):
        assert main(["run-pf", "--model", "ou", "--params", '{"x_star": NaN}',
                     "--path", path_file, "--level", "3", "--n", "10"]) == EXIT_CONFIG
        assert "x_star" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-pf", "truth"])
    def test_multi_component_path_is_config_error(self, tmp_path, capsys, command):
        two = tmp_path / "two.bin"  # T = 2, L_data = 1, d_y = 2
        two.write_bytes(struct.pack("<8sIIIQB", b"MLPFOBS1", 2, 1, 2, 0, 0)
                        + np.zeros(8).tobytes())
        assert main([command, "--model", "ou", "--path", str(two), "--level", "1",
                     "--n", "10"]) == EXIT_CONFIG
        assert "header field d_y is 2" in capsys.readouterr().err

    def test_simulated_blow_up_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "blow.bin"
        assert main(["simulate-data", "--model", "gbm", "--params", '{"mu": 1e300}', "--mode", "p",
                     "--T", "2", "--L-data", "4", "--out", str(out)]) == EXIT_RUNTIME
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-pf", "truth"])
    def test_non_finite_increment_in_path_is_config_error(self, tmp_path, capsys, command):
        bad = tmp_path / "nan.bin"  # T = 2, L_data = 1, one NaN increment
        bad.write_bytes(struct.pack("<8sIIIQB", b"MLPFOBS1", 2, 1, 1, 0, 0)
                        + np.array([0.1, np.nan, 0.2, 0.3]).astype("<f8").tobytes())
        assert main([command, "--model", "ou", "--path", str(bad), "--level", "1",
                     "--n", "10"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "increment 1 is not finite" in captured.err and captured.out == ""

    def test_missing_path_is_runtime_error(self, tmp_path):
        assert main(["run-pf", "--model", "ou", "--path", str(tmp_path / "none.bin"),
                     "--level", "2", "--n", "10"]) == EXIT_RUNTIME


class TestBenchmarkCommand:
    def config(self, tmp_path, **extra):
        raw = {
            "model": "ou", "T": 2, "L_data": 4, "repeats": 2, "master_seed": 3,
            "output_dir": str(tmp_path / "out"),
            "estimators": [{"id": "pf", "rule": "single_pf", "L_min": 1,
                            "L_max": 3, "base": 8.0}],
        }
        raw.update(extra)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return cfg

    def test_end_to_end_and_slope(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        assert main(["benchmark", "--config", str(cfg), "--quiet"]) == EXIT_OK
        info = read_json(capsys)
        assert info["records"] == 6
        summary = tmp_path / "out" / "summary.csv"
        assert summary.exists()
        assert main(["slope", "--summary", str(summary)]) == EXIT_OK
        slopes = read_json(capsys)
        assert "pf" in slopes and slopes["pf"]["points"] == 3

    def test_zero_mse_sweep_exits_ok(self, tmp_path, capsys):
        """With the functional "one" every estimate is exact and every MSE 0:
        the run exits 0 with every output written, and the plot has its axes
        and no points."""
        cfg = self.config(tmp_path, functionals=["one"])
        assert main(["benchmark", "--config", str(cfg), "--quiet"]) == EXIT_OK
        written = read_json(capsys)["outputs"]
        with open(tmp_path / "out" / "summary.csv") as f:
            assert {line.split(",")[3] for line in f.read().split()[1:]} == {"0"}
        with open(written["svg"][0]) as f:
            svg = f.read()
        assert svg.startswith("<svg") and "<circle" not in svg

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = self.config(tmp_path, repeats=1)
        assert main(["benchmark", "--config", str(cfg), "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("field,value", [("truth_level", "3"), ("data_mode", "bogus"),
                                             ("master_seed", -1), ("workers", 0),
                                             ("output_dir", [1])])
    def test_bad_field_is_named_config_error(self, tmp_path, capsys, field, value):
        cfg = self.config(tmp_path, **{field: value})
        assert main(["benchmark", "--config", str(cfg), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"config.{field}" in err

    @pytest.mark.parametrize("override", [["--workers", "2"], ["--output-dir", "alt"]],
                             ids=["workers", "output-dir"])
    @pytest.mark.parametrize("value", [[], "x", 3], ids=["list", "string", "number"])
    def test_override_of_a_config_that_is_not_an_object(self, tmp_path, capsys, value, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(value))
        assert main(["benchmark", "--config", str(cfg), "--quiet", *override]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config:"), err

    @pytest.mark.parametrize("params", [{"sigma": 1e200}, {"theta": 1e200}], ids=["sigma", "theta"])
    def test_kalman_overflow_is_runtime_error(self, tmp_path, capsys, params):
        cfg = self.config(tmp_path, model_params=params)
        assert main(["benchmark", "--config", str(cfg), "--quiet"]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == "" and "Kalman filter at level 4 overflowed at step 1" in captured.err
        assert not (tmp_path / "out").exists()

    def test_output_dir_override(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        alt = tmp_path / "alt"
        assert main(["benchmark", "--config", str(cfg), "--quiet",
                     "--output-dir", str(alt)]) == EXIT_OK
        capsys.readouterr()
        assert (alt / "records.csv").exists()

    @pytest.mark.parametrize("cost,mse,named", [("inf", "0.5", "cost inf"), ("20", "nan", "mse nan")],
                             ids=["inf-cost", "nan-mse"])
    def test_slope_of_a_non_finite_row(self, tmp_path, capsys, cost, mse, named):
        summary = tmp_path / "summary.csv"
        rows = [("10", "1"), (cost, mse), ("40", "0.25")]
        summary.write_text("estimator,mean_cost,mse\n" + "".join(f"pf,{c},{m}\n" for c, m in rows))
        assert main(["slope", "--summary", str(summary)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    @pytest.mark.parametrize("costs", [("10", "20", "40"), ("10", "10", "10")],
                             ids=["distinct-costs", "equal-costs"])
    def test_slope_of_equal_mses(self, tmp_path, capsys, costs):
        summary = tmp_path / "summary.csv"
        summary.write_text("estimator,mean_cost,mse\n" + "".join(f"pf,{c},0.5\n" for c in costs))
        assert main(["slope", "--summary", str(summary)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "mse values [0.5, 0.5, 0.5]" in captured.err

    @pytest.mark.parametrize("text,named", [
        ("estimator,mean_cost\npf,10\n", "no column mse"),
        ("estimator,mse\npf,0.5\n", "no column mean_cost"),
        ("", "no column estimator, mean_cost, mse"),
        ("estimator,mean_cost,mse\npf,10\n", "line 2: mean_cost '10' and mse None"),
    ], ids=["mse", "mean_cost", "empty", "short-row"])
    def test_slope_of_a_summary_missing_a_column(self, tmp_path, capsys, text, named):
        summary = tmp_path / "summary.csv"
        summary.write_text(text)
        assert main(["slope", "--summary", str(summary)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err, captured.err

    @pytest.mark.parametrize("flag,data", [
        ("--config", b"\xaa\x00\xff"), ("--config", b"{\"model\": \"ou\xe9\"}"),
        ("--config", b"{nul"), ("--summary", b"\xaa\x00\xff"),
        ("--summary", b"estimator,mean_cost,mse\npf,1\xe9,2\n"),
    ], ids=["config-binary", "config-latin-1", "config-not-json", "summary-binary",
            "summary-latin-1"])
    def test_unreadable_input_names_the_flag(self, tmp_path, capsys, flag, data):
        source = tmp_path / "input"
        source.write_bytes(data)
        command = "benchmark" if flag == "--config" else "slope"
        assert main([command, flag, str(source)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {source}: ") and "Traceback" not in err, err

    def test_slope_missing_estimator(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        assert main(["benchmark", "--config", str(cfg), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        rc = main(["slope", "--summary", str(tmp_path / "out" / "summary.csv"),
                   "--estimator", "ghost"])
        assert rc == EXIT_CONFIG


# every finite double, with the extremes and subnormals drawn often
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, -1e300, 1e200, -1e200, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0]),
)
MODEL_PARAMS = {
    "ou": ("theta", "mu", "sigma", "x_star"),
    "langevin": ("nu", "x_star"),
    "gbm": ("mu", "sigma", "x_star"),
    "nonlinear_sigma": ("theta", "mu", "x_star"),
}


@st.composite
def model_and_params(draw, models=tuple(MODEL_PARAMS)):
    model = draw(st.sampled_from(models))
    keys = draw(st.lists(st.sampled_from(MODEL_PARAMS[model]), unique=True))
    return model, {k: draw(FINITE) for k in keys}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@example(kalman=("ou", {"sigma": 1e200}), simulated=("ou", {}), filtered=("ou", {}),
         level=1, seed=0)
@given(kalman=model_and_params(("ou",)), simulated=model_and_params(),
       filtered=model_and_params(), level=st.integers(0, 3), seed=st.integers(0, 2 ** 64 - 1))
def test_commands_exit_cleanly_on_any_finite_parameters(fuzz_dir, kalman, simulated, filtered,
                                                        level, seed):
    """simulate-data --mode p, truth by the Kalman filter and run-pf on tiny
    paths give exit 0, 2 or 3 for any finite model parameters; whatever
    else is raised escapes and fails the test."""
    out = str(fuzz_dir / "p.bin")
    model, params = simulated
    rc = main(["simulate-data", "--model", model, "--params", json.dumps(params), "--mode", "p",
               "--T", "2", "--L-data", "3", "--seed", str(seed), "--out", out])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    if rc != EXIT_OK:  # a pure-Brownian path of the same size instead
        assert main(["simulate-data", "--model", "ou", "--T", "2", "--L-data", "3",
                     "--seed", str(seed), "--out", out]) == EXIT_OK
    for command, (model, params), extra in (("truth", kalman, []),
                                            ("run-pf", filtered, ["--n", "3"])):
        rc = main([command, "--model", model, "--params", json.dumps(params), "--path", out,
                   "--level", str(level), "--seed", str(seed), *extra])
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)


# (offset, size) of each field of a path file's "<8sIIIQB" header: magic,
# T, L_data, d_y, seed and mode
HEADER_FIELDS = ((0, 8), (8, 4), (12, 4), (16, 4), (20, 8), (28, 1))


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """``data`` truncated, extended, with bytes flipped, or with one header
    field rewritten."""
    kind = draw(st.sampled_from(["truncate", "extend", "flip", "field"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=64))
    out = bytearray(data)
    if kind == "flip":
        for i in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=8)):
            out[i] ^= draw(st.integers(1, 255))
    else:
        start, size = draw(st.sampled_from(HEADER_FIELDS))
        out[start:start + size] = draw(st.integers(0, 256 ** size - 1)).to_bytes(size, "little")
    return bytes(out)


@pytest.fixture(scope="module")
def valid_path_bytes(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid") / "p.bin"
    assert main(["simulate-data", "--model", "ou", "--T", "2", "--L-data", "3", "--seed", "5",
                 "--out", str(out)]) == EXIT_OK
    return out.read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys, read per example
@given(data=st.data())
def test_corrupted_path_files_exit_cleanly(fuzz_dir, valid_path_bytes, capsys, data):
    """A corrupted path file either reads or raises ``PathFormatError``, and
    run-pf and the Kalman truth on it give exit 0, 2 or 3; whatever else is
    raised escapes and fails the test."""
    out = fuzz_dir / "corrupt.bin"
    out.write_bytes(data.draw(corrupted(valid_path_bytes)))
    try:
        read_path(str(out))
    except PathFormatError:
        pass
    for command, extra in (("run-pf", ["--n", "3"]), ("truth", [])):
        rc = main([command, "--model", "ou", "--path", str(out), "--level", "1", *extra])
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    assert "Traceback" not in capsys.readouterr().err


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def test_tile_curve_smoke():
    """One level and cap: a 1 MiB block of 4096 rows at level 5 under a
    1 MiB cap is drawn ahead in its two halves."""
    argv = [sys.executable, os.path.join(SCRIPTS, "tile_curve.py"), "--levels", "5",
            "--caps-mib", "1", "--block-mib", "1", "--T", "1", "--k", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.strip().split("\n")
    assert header.split()[:5] == ["l", "N", "cap", "MiB", "rows"]
    assert row.split()[:5] == ["5", "4096", "1", "2048", "2"]


def test_tile_curve_rows_smoke():
    """With --rows, each level runs one replicate of each row count, in one
    tile under the default 2 MiB cap."""
    argv = [sys.executable, os.path.join(SCRIPTS, "tile_curve.py"), "--levels", "3", "6",
            "--rows", "16", "300", "--T", "1", "--k", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.strip().split("\n")
    assert header.split()[6:8] == ["us/step", "ns/step"]
    assert [row.split()[:5] for row in rows] == [
        [l, n, "2", n, "1"] for l in ("3", "6") for n in ("16", "300")]
