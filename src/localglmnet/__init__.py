"""LocalGLMnet: interpretable network regression for tabular data.

A feed-forward tower produces feature-dependent regression attentions
beta(x); the skip connection turns them into the link-scale predictor
beta0 + <beta(x), x>, so every prediction decomposes additively into
per-feature contributions. On top of the fitted attentions the package
offers an empirical variable-selection test against a random control
feature, variable importance, and interaction detection from input
Jacobians.
"""

from .data import (
    Dataset,
    Schema,
    StandardizeParams,
    add_control,
    apply_standardize,
    load_csv,
    load_schema,
    one_hot,
    read_config,
    standardize,
    synth_generate,
    synth_schema,
    true_mu,
    write_csv,
)
from .errors import ConfigError, DataError, NumericError
from .families import (
    Gaussian,
    Poisson,
    fit_glm,
    fit_null,
    get_family,
    mse_loss,
    poisson_deviance,
)
from .interpret import (
    ImportanceReport,
    InteractionProfile,
    SelectionReport,
    coverage_and_verdict,
    interaction_profiles,
    interval,
    selection_report,
    selection_stats,
    smooth_curve,
    variable_importance,
)
from .linalg import rng_stream
from .model import (
    ModelSpec,
    Params,
    attention,
    batch_input_jacobian,
    forward,
    init_params,
    load_model,
    loss_and_param_grads,
    save_model,
)
from .train import (
    TrainConfig,
    TrainHistory,
    evaluate_loss,
    fit,
    nadam_step,
    split_indices,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "NumericError",
    "rng_stream",
    "Gaussian", "Poisson", "get_family",
    "mse_loss", "poisson_deviance", "fit_null", "fit_glm",
    "ModelSpec", "Params", "init_params", "forward", "attention",
    "loss_and_param_grads", "batch_input_jacobian", "save_model", "load_model",
    "TrainConfig", "TrainHistory", "split_indices", "nadam_step",
    "evaluate_loss", "fit",
    "selection_stats", "interval", "coverage_and_verdict", "selection_report",
    "SelectionReport", "ImportanceReport", "variable_importance",
    "smooth_curve", "InteractionProfile", "interaction_profiles",
    "Schema", "Dataset", "StandardizeParams", "load_schema", "load_csv", "read_config",
    "write_csv", "one_hot", "standardize", "apply_standardize",
    "add_control", "true_mu", "synth_schema", "synth_generate",
]
