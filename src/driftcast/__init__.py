"""Streaming multivariate forecasting with online latent-feature correction.

A channel-independent MLP forecaster is trained offline, then adapted on a
delayed-feedback stream. The main method injects an additive correction
into the tapped latent feature, produced by a two-path network that reads
the current feature and a batch of historical feature gradients. Baselines:
the frozen model, online gradient descent on the full parameter set, and a
direct persistent correction updated by delayed gradients. A separate lab
checks a dynamic-regret bound for projected OCO with biased noisy gradients.

The package root exports the user-facing names: what fits a forecaster,
pretrains an adapter, deploys it on a stream, generates and loads streams,
and runs the regret lab, with the types they take or return. The mechanics
under them (tapes, tails, the passes from and to the tap, the gradient
and step functions) are imported from their own modules, e.g.
driftcast.forecaster.encode or driftcast.adapter.adapter_forward_with_tape.
"""

from .adapter import AdapterNet, build_adapter
from .datastream import (DRIFT_KINDS, DriftSpec, SeriesFrame, SplitSpec,
                         chrono_split, gen_concept_drift, gen_mean_shift,
                         load_csv, write_csv)
from .engine import (EngineConfig, MetricsTrace, pretrain_adapter, run_adaptz,
                     run_fogd, run_method, run_ogd, run_ori, write_trace_csv)
from .forecaster import (ForecastModel, NormStats, Sample, build_model,
                         normalize, offline_train, predict)
from .regret import (FAMILIES, REPORT_HEADER, OCOProblem, OCORun, check_bound,
                     make_problem, report_rows, run_oco, run_sweep)

__all__ = [
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
]

__version__ = "0.1.0"
