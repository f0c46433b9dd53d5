import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlpf import streams
from mlpf.euler import NonFiniteStateError
from mlpf.models import builtin_model
from mlpf.observations import (
    FrequencyExceededError,
    ObservationPath,
    PathFormatError,
    export_csv,
    increments_at_level,
    read_path,
    simulate_observations,
    write_path,
)

OU = builtin_model("ou", {})
GBM = builtin_model("gbm", {})


def left_to_right_sum(block):
    acc = block[0].copy()
    for v in block[1:]:
        acc = acc + v
    return acc


def loop_coarsening(path, l, p):
    """Reference coarsening: each interval's children summed by a left-to-right loop."""
    per_unit = 1 << path.L_data
    block = path.increments[p * per_unit : (p + 1) * per_unit]
    grouped = block.reshape(1 << l, 1 << (path.L_data - l))
    acc = grouped[:, 0].copy()
    for j in range(1, grouped.shape[1]):
        acc += grouped[:, j]
    return acc


def test_pbar_increment_moments():
    path = simulate_observations("pbar", OU, 4, 8, seed=123)
    delta = 2.0 ** -8
    inc = path.increments
    n = inc.size
    se_mean = np.sqrt(delta / n)
    assert abs(inc.mean()) < 5 * se_mean
    se_var = delta * np.sqrt(2.0 / n)
    assert abs(inc.var() - delta) < 5 * se_var


def test_p_mode_with_zero_h_matches_pbar():
    silent = builtin_model("ou", {})
    silent = type(silent)(
        name="silent", drift=silent.drift, diffusion=silent.diffusion,
        observation=lambda x: np.zeros_like(x), x_star=silent.x_star,
    )
    a = simulate_observations("pbar", silent, 2, 4, seed=99)
    b = simulate_observations("p", silent, 2, 4, seed=99)
    assert np.array_equal(a.increments, b.increments)


def test_p_mode_retains_latent_path():
    path = simulate_observations("p", OU, 2, 5, seed=5)
    assert path.latent is not None
    assert path.latent.shape == (2 * 32 + 1,)
    assert path.latent[0] == 0.0


def test_level0_view_is_total_sum():
    path = simulate_observations("pbar", OU, 1, 3, seed=17)
    total = increments_at_level(path, 0, 0)
    assert total.shape == (1,)
    assert total[0] == left_to_right_sum(path.increments)


def test_identity_view_at_l_data():
    path = simulate_observations("pbar", OU, 2, 4, seed=3)
    view = increments_at_level(path, 4, 1)
    assert np.array_equal(view, path.increments[16:32])


def test_pairwise_sums_explicit():
    inc = np.array([1.0, 2.0, 3.0, 4.0])
    path = ObservationPath(1, 2, inc, "pbar", 0)
    lvl1 = increments_at_level(path, 1, 0)
    assert np.array_equal(lvl1, np.array([3.0, 7.0]))


def test_level_overflow_rejected():
    path = simulate_observations("pbar", OU, 1, 3, seed=1)
    with pytest.raises(FrequencyExceededError):
        increments_at_level(path, 4, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2 ** 31))
def test_coarsening_exact_at_every_level(T, L_data, seed):
    path = simulate_observations("pbar", OU, T, L_data, seed=seed)
    per_unit = 1 << L_data
    for l in range(L_data + 1):
        children = 1 << (L_data - l)
        for p in range(T):
            view = increments_at_level(path, l, p)
            block = path.increments[p * per_unit : (p + 1) * per_unit]
            for k in range(1 << l):
                expect = left_to_right_sum(block[k * children : (k + 1) * children])
                assert view[k] == expect  # bit-exact


def test_pyramid_bit_equal_to_loop_at_every_level():
    path = simulate_observations("p", GBM, 2, 12, seed=700)
    for l in range(path.L_data + 1):
        for p in range(path.T):
            view = increments_at_level(path, l, p)
            assert view.shape == (1 << l,)
            assert view.tobytes() == loop_coarsening(path, l, p).tobytes()


def test_pyramid_views_are_read_only():
    path = simulate_observations("pbar", OU, 2, 4, seed=8)
    for l in (0, 2, 4):
        view = increments_at_level(path, l, 1)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 1.0


def test_paths_do_not_share_a_pyramid():
    a = simulate_observations("pbar", OU, 2, 5, seed=1)
    b = simulate_observations("pbar", OU, 2, 5, seed=2)
    first = increments_at_level(a, 2, 1).copy()
    assert increments_at_level(b, 2, 1).tobytes() == loop_coarsening(b, 2, 1).tobytes()
    assert not np.array_equal(first, increments_at_level(b, 2, 1))
    assert increments_at_level(a, 2, 1).tobytes() == first.tobytes()


def test_fixed_seed_reproducible():
    a = simulate_observations("pbar", OU, 2, 6, seed=777)
    b = simulate_observations("pbar", OU, 2, 6, seed=777)
    assert np.array_equal(a.increments, b.increments)


def test_roundtrip_io(tmp_path):
    path = simulate_observations("pbar", OU, 3, 4, seed=11)
    f = tmp_path / "obs.bin"
    write_path(path, f)
    back = read_path(f)
    assert back.T == path.T and back.L_data == path.L_data and back.d_y == path.d_y
    assert back.mode == path.mode and back.seed == path.seed
    assert np.array_equal(back.increments, path.increments)


def test_truncated_file_rejected(tmp_path):
    path = simulate_observations("pbar", OU, 1, 2, seed=1)
    f = tmp_path / "obs.bin"
    write_path(path, f)
    data = f.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(data[:-8])
    with pytest.raises(PathFormatError):
        read_path(tmp_path / "trunc.bin")


def test_length_mismatch_rejected():
    good = io.BytesIO()
    inc = np.arange(4.0)
    write_path(ObservationPath(2, 1, inc, "pbar", 0), good)
    assert read_path(io.BytesIO(good.getvalue())).increments.shape == (4,)
    extra = good.getvalue() + np.float64(9.0).tobytes()
    with pytest.raises(PathFormatError):
        read_path(io.BytesIO(extra))


def test_oversized_header_rejected_before_reading_body():
    # L_data = 60 claims 2**60 increments per unit; only the header is read
    head = struct.pack("<8sIIIQB", b"MLPFOBS1", 1, 60, 1, 0, 0)
    with pytest.raises(PathFormatError, match="exceeds the maximum"):
        read_path(io.BytesIO(head))
    head = struct.pack("<8sIIIQB", b"MLPFOBS1", 5, 24, 1, 0, 0)  # 5 * 2**24 > 2**26
    with pytest.raises(PathFormatError, match="exceeds the maximum"):
        read_path(io.BytesIO(head))


def test_multi_component_header_rejected():
    # a well-formed file with two observation components, T = 2, L_data = 1
    head = struct.pack("<8sIIIQB", b"MLPFOBS1", 2, 1, 2, 0, 0)
    body = np.arange(8.0).astype("<f8").tobytes()
    with pytest.raises(PathFormatError, match="header field d_y is 2"):
        read_path(io.BytesIO(head + body))
    head = struct.pack("<8sIIIQB", b"MLPFOBS1", 2, 1, 0, 0, 0)
    with pytest.raises(PathFormatError, match="header field d_y is 0"):
        read_path(io.BytesIO(head))


def test_header_counts_one_component():
    f = io.BytesIO()
    write_path(ObservationPath(2, 1, np.arange(4.0), "pbar", 0), f)
    assert struct.unpack("<8sIIIQB", f.getvalue()[:29])[3] == ObservationPath.d_y == 1


def test_bad_magic_rejected():
    with pytest.raises(PathFormatError):
        read_path(io.BytesIO(b"NOTMAGIC" + b"\x00" * 40))


def test_csv_export(tmp_path):
    path = simulate_observations("pbar", OU, 1, 2, seed=4)
    f = tmp_path / "obs.csv"
    export_csv(path, f)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "k,component,value"
    assert len(lines) == 1 + 4
    assert lines[1].split(",")[:2] == ["0", "0"]
    assert float(lines[1].split(",")[2]) == path.increments[0]


def test_seed_is_bounded_by_the_path_header(tmp_path):
    """The largest seed round-trips through a path file; one more is rejected."""
    with pytest.raises(ValueError, match=r"^seed must be less than 2\*\*64"):
        simulate_observations("pbar", OU, 1, 2, seed=2 ** 64)
    path = simulate_observations("pbar", OU, 1, 2, seed=2 ** 64 - 1)
    write_path(path, tmp_path / "x.bin")
    assert read_path(tmp_path / "x.bin").seed == 2 ** 64 - 1


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        simulate_observations("pbar", OU, 0, 3, seed=0)
    with pytest.raises(ValueError):
        ObservationPath(1, 2, np.zeros(3), "pbar", 0)
    with pytest.raises(ValueError):  # a trailing length-1 axis is rejected
        ObservationPath(1, 2, np.zeros((4, 1)), "pbar", 0)


@pytest.mark.parametrize("T,L_data,size,seed,field", [
    (0, 3, 0, 0, "T"), (True, 2, 4, 0, "T"), (2.0, 2, 8, 0, "T"),
    (1, 0, 1, 0, "L_data"), (1, -1, 0, 0, "L_data"),
    (1, 2, 4, -5, "seed"), (1, 2, 4, 2 ** 64, "seed"),
], ids=["T-0", "T-bool", "T-float", "L_data-0", "L_data-negative", "seed-negative", "seed-2**64"])
def test_bad_dimension_or_seed_is_named(T, L_data, size, seed, field):
    """A path whose T or L_data is not an integer >= 1, or whose seed is not
    one, fails when built, naming the field, whatever its increments."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ObservationPath(T, L_data, np.zeros(size), "pbar", seed)


@pytest.fixture
def no_draw(monkeypatch):
    """``streams.generator`` made to fail, so a test fails if a stream is opened."""
    def fail(*args):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(streams, "generator", fail)


@pytest.mark.parametrize("T,L_data,field", [
    (2.0, 3, "T"), (True, 3, "T"), ("2", 3, "T"), (0, 3, "T"),
    (2, 3.0, "L_data"), (2, True, "L_data"), (2, 0, "L_data"),
], ids=repr)
def test_simulation_names_a_bad_dimension_before_any_draw(no_draw, T, L_data, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got "):
        simulate_observations("p", OU, T, L_data, seed=0)


def test_simulation_names_a_bad_mode_before_any_draw(no_draw):
    with pytest.raises(ValueError, match="^mode must be one of "):
        simulate_observations("x", OU, 64, 20, seed=1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_increment_rejected(value):
    inc = np.arange(8.0)
    inc[5] = value
    with pytest.raises(ValueError, match="increment 5 is not finite"):
        ObservationPath(2, 2, inc, "pbar", 0)


def test_non_finite_increment_in_file_is_format_error():
    head = struct.pack("<8sIIIQB", b"MLPFOBS1", 2, 1, 1, 0, 0)
    body = np.array([0.0, 1.0, np.nan, 2.0]).astype("<f8").tobytes()
    with pytest.raises(PathFormatError, match="increment 2 is not finite"):
        read_path(io.BytesIO(head + body))


def test_simulated_blow_up_raises():
    # gbm with drift mu = 1e300 overflows the latent signal in the first steps
    with pytest.raises(NonFiniteStateError, match="not finite"):
        simulate_observations("p", builtin_model("gbm", {"mu": 1e300}), 2, 4, seed=7)
