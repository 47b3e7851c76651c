"""Streaming multivariate forecasting with online latent-feature correction.

A channel-independent MLP forecaster is trained offline, then adapted on a
delayed-feedback stream. The main method injects an additive correction
into the tapped latent feature, produced by a two-path network that reads
the current feature and a batch of historical feature gradients. Baselines:
the frozen model, online gradient descent on the full parameter set, and a
direct persistent correction updated by delayed gradients. A separate lab
checks a dynamic-regret bound for projected OCO with biased noisy gradients.
"""

from .adapter import (AdapterNet, AdapterTape, adapter_backward_tape,
                      adapter_forward_with_tape, build_adapter, sgd_step)
from .datastream import (CONCEPT_A1, CONCEPT_A2, DRIFT_KINDS, DriftSpec,
                         SeriesFrame, SplitSpec, chrono_split,
                         concept_coefficients, gen_concept_drift,
                         gen_mean_shift, load_csv, write_csv)
from .diffmath import AffineLayer, affine_apply, mse_with_grad
from .engine import (EngineConfig, MetricsTrace, StepRecord, compute_hisgrad,
                     pretrain_adapter, run_adaptz, run_fogd, run_method,
                     run_ogd, run_ori, write_trace_csv)
from .forecaster import (STD_EPS, ForecastModel, NormStats, Sample, Tail,
                         Tape, build_model, denormalize, encode,
                         grad_wrt_feature, grad_wrt_feature_from_tail,
                         grad_wrt_last_layer, head_forward_from_tail,
                         head_forward_with_tape, normalize, offline_train,
                         param_grads, predict, predict_with_tape, tail_forward)
from .regret import (FAMILIES, REPORT_HEADER, BoundReport, OCOProblem, OCORun,
                     check_bound, make_problem, path_variation, project_ball,
                     report_rows, run_oco, run_sweep)

__all__ = [
    "AdapterNet", "AdapterTape", "adapter_backward_tape",
    "adapter_forward_with_tape", "build_adapter", "sgd_step",
    "CONCEPT_A1", "CONCEPT_A2", "DRIFT_KINDS", "DriftSpec", "SeriesFrame",
    "SplitSpec", "chrono_split", "concept_coefficients", "gen_concept_drift",
    "gen_mean_shift", "load_csv", "write_csv",
    "AffineLayer", "affine_apply", "mse_with_grad",
    "EngineConfig", "MetricsTrace", "StepRecord",
    "compute_hisgrad", "pretrain_adapter", "run_adaptz", "run_fogd",
    "run_method", "run_ogd", "run_ori", "write_trace_csv",
    "STD_EPS", "ForecastModel", "NormStats", "Sample", "Tail", "Tape",
    "build_model", "denormalize", "encode", "grad_wrt_feature",
    "grad_wrt_feature_from_tail", "grad_wrt_last_layer",
    "head_forward_from_tail", "head_forward_with_tape", "normalize",
    "offline_train", "param_grads", "predict", "predict_with_tape",
    "tail_forward",
    "FAMILIES", "BoundReport", "OCOProblem", "OCORun", "check_bound",
    "make_problem", "path_variation", "project_ball", "REPORT_HEADER",
    "report_rows",
    "run_oco", "run_sweep",
    "__version__",
]

__version__ = "0.1.0"
