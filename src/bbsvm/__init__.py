"""bbsvm: single-pass streaming linear SVM via minimum enclosing balls.

Training reduces soft-margin SVM learning to maintaining an approximate
minimum enclosing ball of the example stream in an augmented constant-norm
feature space, using a blurred ball cover for sublinear space; classification
aggregates the linear separators encoded by the retained ball centers.
"""

from .data import (
    DataFormatError,
    Dataset,
    SparseVector,
    TrainingExample,
    format_libsvm,
    generate_synthetic,
    load_libsvm,
    parse_libsvm,
    shuffled,
)
from .experiments import (
    CSV_HEADER,
    ExperimentReport,
    RunResult,
    epsilon_sweep,
    run_experiment,
    write_csv,
)
from .model import Model, ModelParams
from .model_file import ModelFormatError, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "DataFormatError",
    "Dataset",
    "ExperimentReport",
    "Model",
    "ModelFormatError",
    "ModelParams",
    "RunResult",
    "SparseVector",
    "TrainingExample",
    "epsilon_sweep",
    "format_libsvm",
    "generate_synthetic",
    "load_libsvm",
    "load_model",
    "parse_libsvm",
    "run_experiment",
    "save_model",
    "shuffled",
    "write_csv",
]
