"""Pinned benchmark outputs: a refactor must leave records.csv and summary.csv
byte-identical.

One small sweep per (model, data mode) covers every built-in model, both
``data_mode``s, the maximal and the sorted coupling, both resampling
policies, single_pf, and ``paths`` 2.  The SHA-256 of the concatenated CSV
texts is compared with a constant recorded before the scalar-shape refactor.
The digests assume the numpy build the constants were recorded with (numpy
2.4 on x86-64 Linux), as ``perfbench/expected.json`` does: another build may
round a transcendental differently and change the last digit of an estimate.
"""

import hashlib
import struct

import pytest

from mlpf.bench import parse_config, records_csv, run_benchmark, summary_csv
from mlpf.filters import COUPLINGS, RESAMPLE_POLICIES, cpf_run, pf_run
from mlpf.models import BUILTIN_NAMES, builtin_model
from mlpf.observations import simulate_observations
from mlpf.oracle import kalman_run

DIGESTS = {
    ("ou", "pbar"): "50a9292c26ad80e123dcc6cc8ba0fc9d2d2db92c765bb90836e8352fb1c2fa44",
    ("ou", "p"): "50ce7d47b7b478c6db438bf0c218fae781cc827b510ae22d83b3b0a9f5f19b28",
    ("langevin", "pbar"): "94618b8d957435095c51fff658cf7bceb18449b44752ad43f74c63576315e7ea",
    ("langevin", "p"): "9ac12203efe94d7fbb796a393573f5f9499710e94338347e59b9e9e014514992",
    ("gbm", "pbar"): "9ad7a6ca7742392243ef0f5f3903d2a56f7986bb66228ee996a2df9285b84308",
    ("gbm", "p"): "016f36aeaedc35695acaa42c3a17201fed104c2ddd2c48c32e6f86ba6a2952b2",
    ("nonlinear_sigma", "pbar"): "5b13c21121889c2a69ec776a35c69031fdc55ba82d67c901199816eb06af995f",
    ("nonlinear_sigma", "p"): "aae097b190346d266ca4c9b796b3a3b186828410b4bd6178290f55c65a4a6a55",
}


def sweep_digest(model: str, mode: str) -> str:
    cfg = parse_config({
        "model": model, "data_mode": mode, "T": 3, "L_data": 6, "repeats": 3, "paths": 2,
        "master_seed": 17, "data_seed": 5, "truth_level": 5, "truth_n": 400,
        "output_dir": "unused", "functionals": ["x2", "x"],
        "estimators": [
            {"id": "max", "rule": "mlpf_nonconstant", "L_min": 1, "L_max": 4, "base": 1.0},
            {"id": "sort", "rule": "mlpf_constant", "L_min": 2, "L_max": 3, "base": 1.0,
             "coupling": "sorted", "resample_policy": "always"},
            {"id": "pf", "rule": "single_pf", "L_min": 2, "L_max": 3, "base": 4.0},
        ],
    })
    records, summary = run_benchmark(cfg)
    text = records_csv(records) + summary_csv(summary)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", ("pbar", "p"))
@pytest.mark.parametrize("model", BUILTIN_NAMES)
def test_benchmark_csvs_are_pinned(model, mode):
    assert sweep_digest(model, mode) == DIGESTS[(model, mode)]


# Filter calls whose noise blocks are large enough to be cut into two row
# halves: (level, particles, seeds).  Recorded before the cut was introduced,
# so a cut must leave every output byte unchanged.
CUT_CALLS = (
    (7, 2560, 11),  # one oversize replicate, cut inside its own rows
    (5, 1400, (21, 22, 23)),  # three stacked replicates: the middle one straddles the cut
    (5, 1400, tuple(range(31, 38))),  # seven stacked replicates: the fourth straddles the cut
)
CUT_DIGESTS = {
    "ou": "57f42d3ce58d8b260e25d27a0e3a2d1fcf16894deca3e281c71fa0d29f165dc3",
    "langevin": "2c3606b60c4b57d99ea4003dfd28bebff9bc65678ab90c8c2735f66843f35880",
    "gbm": "b048afbc0f80c5e4ac8599d72589269ef794d14d34cbf5a6e3e10e93f22aa631",
    "nonlinear_sigma": "ef04401bd61359d9a179376d2ac7ed5286af1fb21d5f81b803324a83ccdff71e",
}


# One replicate whose 10 MiB noise blocks are cut into five row tiles, so
# its stream crosses four tile boundaries per interval.  Recorded before
# blocks were cut into more than two tiles.
MULTI_TILE_CALLS = ((7, 10240, 41),)
MULTI_TILE_DIGESTS = {
    "ou": "2fdeea08d1870c8275094d2fbc6b7a5769ffb1eebf486adae0b2e0b37900c33b",
    "langevin": "55a682c7f7fd7892f98cd89de2222a7034c8350da1da2cc2bc809596c978f89d",
    "gbm": "4acc06469b38246a7f2b8d7066910d4fa5a154fae7f2c5111a08d8c2adf7427e",
    "nonlinear_sigma": "a8c8ac490ae995dffa48514c3533bee43a6fc814ab2f5204ad1f635a33cb86b2",
}


# Small filter calls, whose weights, estimates and resampling are one pass
# over few particles per replicate: (level, particles, seeds).  The digest
# hashes every diagnostic and log normalizer with the estimates; it was
# recorded before the filter loop moved to one replicate-major layout.
SMALL_N_CALLS = (
    (9, 46, tuple(range(6))),  # gbm-fine's finest rung
    (5, 23, tuple(range(10, 16))),
    (2, 2, (5, 6, 7)),
)
# (data mode, T, L_data): twelve intervals of pure-Brownian data, over which
# ``ess_below_half`` resamples some replicates and not others
SMALL_N_PATH = ("pbar", 12, 9)
SMALL_N_DIGESTS = {
    "ou": "2a99b080f12aafbef3a14d4b942b458fbdb7b93a877eaf76d847cfde28139176",
    "gbm": "5e1b3bebfb2de0f8fa2f15bbb6e3c559404618e1cde909127731c0e76a077f20",
}


def cut_calls_digest(model_name: str, calls=CUT_CALLS, data=("p", 2, 7)) -> str:
    """Digest of every output of ``calls`` on a path of (data mode, T, L_data) ``data``."""
    model = builtin_model(model_name, {})
    mode, T, l_data = data
    path = simulate_observations(mode, model, T, l_data, seed=3)
    h = hashlib.sha256()
    for l, n, seed in calls:
        for policy in RESAMPLE_POLICIES:
            runs = [pf_run(model, path, l, n, ["x", "x2"], resample_policy=policy, seed=seed)]
            runs += [cpf_run(model, path, l, n, ["x", "x2"], resample_policy=policy, seed=seed,
                             coupling=coupling) for coupling in COUPLINGS]
            for out in runs:
                h.update(repr(out).encode())
    return h.hexdigest()


@pytest.mark.parametrize("model", BUILTIN_NAMES)
def test_cut_filter_calls_are_pinned(model):
    assert cut_calls_digest(model) == CUT_DIGESTS[model]


@pytest.mark.parametrize("model", BUILTIN_NAMES)
def test_multi_tile_filter_calls_are_pinned(model):
    assert cut_calls_digest(model, MULTI_TILE_CALLS) == MULTI_TILE_DIGESTS[model]


@pytest.mark.parametrize("model", sorted(SMALL_N_DIGESTS))
def test_small_n_filter_calls_are_pinned(model):
    assert cut_calls_digest(model, SMALL_N_CALLS, SMALL_N_PATH) == SMALL_N_DIGESTS[model]


# Set-up outputs: the Kalman truth and the simulated latent path.  Recorded
# before their per-step loops moved from numpy scalars to Python floats, so
# that move must leave every byte unchanged.
# (theta, mu, sigma, x_star): the defaults, a repelling signal, a fast one
KALMAN_PARAMS = ((1.0, 0.0, 0.5, 0.0), (-0.7, 0.3, 1.3, 0.8), (2.5, -1.0, 0.2, -1.5))
KALMAN_LEVELS = (0, 1, 4, 9, 10)
KALMAN_H_SCALES = (1.0, 0.5, 0.0)
KALMAN_DIGESTS = {
    "pbar": "a5a20673d725562a04e60cc25ffc1f7a23963154ce111580804aa36444b8cdc6",
    "p": "14e177a869e1cd0f036f3adba835e2e1ecc762be95a3a7ca2dbd314fa0148639",
}
LATENT_GRIDS = ((3, 7), (10, 9), (2, 12))  # (T, L_data)
LATENT_DIGESTS = {
    "ou": "273040750d76c67aa58071cb98292b356ccd44192ea0fb35bb35a3269f986d83",
    "langevin": "4a0afb5f86f44d1c7cd188b91080677a06d08e23b69844a0f5778ed001f5c9b2",
    "gbm": "985b6fe1c414721f6fa3d87631cdd16dfe37eacd7acfba40933a58882754c406",
    "nonlinear_sigma": "2ed343fb2fad513d6d7f35dc17df124d5f5d08d8a97317eaaf5cdfb3cb3a8b6c",
}


def kalman_digest(mode: str) -> str:
    """Digest of every ``kalman_run`` output over the pinned parameters on mode-``mode`` data."""
    h = hashlib.sha256()
    for theta, mu, sigma, x_star in KALMAN_PARAMS:
        model = builtin_model("ou", {"theta": theta, "mu": mu, "sigma": sigma, "x_star": x_star})
        path = simulate_observations(mode, model, 2, 10, seed=9)
        for l in KALMAN_LEVELS:
            for h_scale in KALMAN_H_SCALES:
                res = kalman_run(path, l, theta, mu, sigma, x_star=x_star, h_scale=h_scale)
                h.update(res.means.tobytes() + res.variances.tobytes())
                h.update(struct.pack("<2d", res.log_evidence, res.log_evidence_bm))
    return h.hexdigest()


def latent_digest(model_name: str) -> str:
    """Digest of the latent path and increments of mode-"p" data on each pinned grid."""
    model = builtin_model(model_name, {})
    h = hashlib.sha256()
    for T, l_data in LATENT_GRIDS:
        path = simulate_observations("p", model, T, l_data, seed=13)
        h.update(path.latent.tobytes() + path.increments.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", ("pbar", "p"))
def test_kalman_truth_is_pinned(mode):
    assert kalman_digest(mode) == KALMAN_DIGESTS[mode]


@pytest.mark.parametrize("model", BUILTIN_NAMES)
def test_latent_path_is_pinned(model):
    assert latent_digest(model) == LATENT_DIGESTS[model]
