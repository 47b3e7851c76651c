"""The public surface: what the package root exports, and the signatures of
the forecaster passes and the adapter factory."""

import importlib
import inspect

import numpy as np
import pytest

import driftcast
from driftcast import build_adapter, build_model, normalize, predict
from driftcast.forecaster import encode, head_forward_with_tape, predict_with_tape
from conftest import same_bytes

ROOT_NAMES = {
    "AdapterNet", "build_adapter",
    "DRIFT_KINDS", "DriftSpec", "SeriesFrame", "SplitSpec", "chrono_split",
    "gen_concept_drift", "gen_mean_shift", "load_csv", "write_csv",
    "EngineConfig", "MetricsTrace", "pretrain_adapter", "run_adaptz",
    "run_fogd", "run_method", "run_ogd", "run_ori", "write_trace_csv",
    "ForecastModel", "NormStats", "Sample", "build_model", "normalize",
    "offline_train", "predict",
    "FAMILIES", "REPORT_HEADER", "OCOProblem", "OCORun", "check_bound",
    "make_problem", "report_rows", "run_oco", "run_sweep",
    "__version__",
}

# mechanics that live in their own modules only
MODULE_NAMES = {
    "adapter": ["AdapterTape", "adapter_backward_tape",
                "adapter_forward_with_tape", "sgd_step"],
    "datastream": ["CONCEPT_A1", "CONCEPT_A2", "concept_coefficients"],
    "diffmath": ["AffineLayer", "affine_apply", "mse_with_grad"],
    "engine": ["StepRecord", "compute_hisgrad"],
    "forecaster": ["STD_EPS", "Tail", "Tape", "denormalize", "encode",
                   "grad_wrt_feature", "grad_wrt_feature_from_tail",
                   "grad_wrt_last_layer", "head_forward_from_tail",
                   "head_forward_with_tape", "param_grads",
                   "predict_with_tape", "tail_forward"],
    "regret": ["BoundReport", "path_variation", "project_ball"],
}


def test_root_exports_exactly_the_user_facing_names():
    assert len(driftcast.__all__) == len(ROOT_NAMES) == 37
    assert set(driftcast.__all__) == ROOT_NAMES


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_mechanics_live_in_their_modules_only(module):
    mod = importlib.import_module(f"driftcast.{module}")
    for name in MODULE_NAMES[module]:
        assert hasattr(mod, name), name
        assert not hasattr(driftcast, name), name


def test_passes_take_a_normalized_window_only():
    assert list(inspect.signature(encode).parameters) == ["model", "x_norm"]
    assert list(inspect.signature(predict_with_tape).parameters) == [
        "model", "x_norm", "stats"]
    model = build_model(L=6, k=2, d=4, seed=0)
    with pytest.raises(TypeError):
        predict_with_tape(model, np.ones((6, 2)))


def test_predict_is_normalize_encode_then_head():
    rng = np.random.default_rng(11)
    for C in (1, 3):
        model = build_model(L=8, k=3, d=5, n_blocks=3, seed=C)
        x = 5.0 + 2.0 * rng.standard_normal((8, C))
        xn, st = normalize(x)
        want = head_forward_with_tape(model, encode(model, xn), st)[0]
        assert same_bytes(predict(model, x), want)


def test_build_adapter_hidden_width_is_d():
    assert "h" not in inspect.signature(build_adapter).parameters
    a = build_adapter(5, seed=1)
    assert (a.d, a.h) == (5, 5)


def test_adapter_with_no_input_path_rejected():
    with pytest.raises(ValueError, match="at least one input path"):
        build_adapter(4, use_feat=False, use_grad=False)
