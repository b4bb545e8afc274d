"""bbsvm: single-pass streaming linear SVM via minimum enclosing balls.

Training reduces soft-margin SVM learning to maintaining an approximate
minimum enclosing ball of the example stream in an augmented constant-norm
feature space, using a blurred ball cover for sublinear space; classification
aggregates the linear separators encoded by the retained ball centers.
"""

from .cover import BlurredBallCover, Lookahead
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
    perceptron_stream,
    run_experiment,
    write_csv,
)
from .meb import AugPoint, Ball, Center, CoreSet, approx_meb
from .model import Model, ModelParams, feature_map, map_test_point
from .model_file import ModelFormatError, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "AugPoint",
    "Ball",
    "BlurredBallCover",
    "CSV_HEADER",
    "Center",
    "CoreSet",
    "DataFormatError",
    "Dataset",
    "ExperimentReport",
    "Lookahead",
    "Model",
    "ModelFormatError",
    "ModelParams",
    "RunResult",
    "SparseVector",
    "TrainingExample",
    "approx_meb",
    "epsilon_sweep",
    "feature_map",
    "format_libsvm",
    "generate_synthetic",
    "load_libsvm",
    "load_model",
    "map_test_point",
    "parse_libsvm",
    "perceptron_stream",
    "run_experiment",
    "save_model",
    "shuffled",
    "write_csv",
]
