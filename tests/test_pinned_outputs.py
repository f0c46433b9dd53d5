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

import pytest

from mlpf.bench import parse_config, records_csv, run_benchmark, summary_csv
from mlpf.filters import COUPLINGS, RESAMPLE_POLICIES, cpf_run, pf_run
from mlpf.models import BUILTIN_NAMES, builtin_model
from mlpf.observations import simulate_observations

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
    (5, 1400, (21, 22, 23)),  # an odd stacked group: the middle replicate straddles the cut
    (5, 1400, tuple(range(31, 38))),  # groups of 5 and 2 replicates; the smaller is not cut
)
CUT_DIGESTS = {
    "ou": "57f42d3ce58d8b260e25d27a0e3a2d1fcf16894deca3e281c71fa0d29f165dc3",
    "langevin": "2c3606b60c4b57d99ea4003dfd28bebff9bc65678ab90c8c2735f66843f35880",
    "gbm": "b048afbc0f80c5e4ac8599d72589269ef794d14d34cbf5a6e3e10e93f22aa631",
    "nonlinear_sigma": "ef04401bd61359d9a179376d2ac7ed5286af1fb21d5f81b803324a83ccdff71e",
}


def cut_calls_digest(model_name: str) -> str:
    model = builtin_model(model_name, {})
    path = simulate_observations("p", model, 2, 7, seed=3)
    h = hashlib.sha256()
    for l, n, seed in CUT_CALLS:
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
