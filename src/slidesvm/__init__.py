"""Linear binary SVM with the slide loss.

The loss is zero for confident correct classifications, ramps linearly inside
the margin, and saturates at 1, which gives a closed-form proximal operator
and a working-set ADMM solver that touches only the samples near the margin.
"""

__version__ = "0.1.0"

from .loss import (
    SlideParams,
    prox_oracle,
    prox_slide_vector,
    slide_loss,
    slide_loss_sum,
)
from .data import (
    Dataset,
    FoldPlan,
    ParseError,
    ScalingMap,
    apply_scaling,
    fit_scaling,
    flip_labels,
    gaussian_clusters,
    kfold_plan,
    parse_libsvm,
    write_libsvm,
)
from .admm import (
    AdmmState,
    Residuals,
    TrainConfig,
    TrainDiagnostics,
    check_proximal_stationarity,
    train,
)
from .model import (
    Model,
    SupportSet,
    accuracy,
    extract_support_vectors,
    load_model,
    save_model,
)
from .tuning import (
    CvResult,
    Grid,
    default_grid,
    grid_search,
)

__all__ = [
    "__version__",
    "SlideParams",
    "prox_oracle",
    "prox_slide_vector",
    "slide_loss",
    "slide_loss_sum",
    "Dataset",
    "FoldPlan",
    "ParseError",
    "ScalingMap",
    "apply_scaling",
    "fit_scaling",
    "flip_labels",
    "gaussian_clusters",
    "kfold_plan",
    "parse_libsvm",
    "write_libsvm",
    "AdmmState",
    "Residuals",
    "TrainConfig",
    "TrainDiagnostics",
    "check_proximal_stationarity",
    "train",
    "Model",
    "SupportSet",
    "accuracy",
    "extract_support_vectors",
    "load_model",
    "save_model",
    "Grid",
    "CvResult",
    "default_grid",
    "grid_search",
]
