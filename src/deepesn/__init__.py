"""Deep echo state networks for multivariate next-step prediction.

Stacked leaky-integrator reservoirs with fixed random weights, optional
intrinsic-plasticity pre-training of per-unit gains and biases, a ridge
readout over the concatenated layer states, frame-level accuracy
scoring, and a grid-search protocol with a command-line harness.
"""

__version__ = "0.1.0"

from .data import (
    PianoRollDataset,
    load_dataset,
    make_synthetic_dataset,
    save_dataset,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DeepEsnError,
    InitializationError,
    NumericalError,
)
from .experiment import TrialResult, run_model, sweep_ridges
from .ip import IpConfig, activation_statistics, pretrain_ip
from .linalg import operator_norm, spectral_radius
from .metrics import accuracy, frame_counts
from .readout import RidgeAccumulator, RidgeReadout, ridge_solve
from .reservoir import (
    DeepReservoir,
    ReservoirConfig,
    effective_matrix,
    init_deep_reservoir,
    run_sequence,
    step_deep,
)
from .selection import (
    BestConfig,
    GridSpec,
    SelectionResult,
    TrialReport,
    deep_trained_parameters,
    grid_search,
    gru_parameters,
    lstm_parameters,
    srn_parameters,
    units_for_budget,
)

__all__ = [
    "__version__",
    "BestConfig",
    "ConfigError",
    "DataFormatError",
    "DeepEsnError",
    "DeepReservoir",
    "GridSpec",
    "InitializationError",
    "IpConfig",
    "NumericalError",
    "PianoRollDataset",
    "ReservoirConfig",
    "RidgeAccumulator",
    "RidgeReadout",
    "SelectionResult",
    "TrialReport",
    "TrialResult",
    "accuracy",
    "activation_statistics",
    "deep_trained_parameters",
    "effective_matrix",
    "frame_counts",
    "grid_search",
    "gru_parameters",
    "init_deep_reservoir",
    "load_dataset",
    "lstm_parameters",
    "make_synthetic_dataset",
    "operator_norm",
    "pretrain_ip",
    "ridge_solve",
    "run_model",
    "run_sequence",
    "save_dataset",
    "spectral_radius",
    "srn_parameters",
    "step_deep",
    "sweep_ridges",
    "units_for_budget",
]
