"""Mixture density networks, their hierarchical composition, and a
synthetic indoor-positioning testbed around them."""

from .mdn import (
    Activations,
    GradWorkspace,
    MdnConfig,
    MdnModel,
    MixtureParams,
    activations_to_params,
    density,
    forward,
    gradients,
    head_gradients,
    log_density,
    mixture_at,
    nll,
    sample,
    train,
)
from .numcore import Rng, gaussian_sample, log_sum_exp
from .pipeline import (
    HmdnEstimate,
    HmdnPipeline,
    predict,
    predict_baseline,
    score_candidates,
)

__all__ = [
    "Activations",
    "GradWorkspace",
    "HmdnEstimate",
    "HmdnPipeline",
    "MdnConfig",
    "MdnModel",
    "MixtureParams",
    "Rng",
    "activations_to_params",
    "density",
    "forward",
    "gaussian_sample",
    "gradients",
    "head_gradients",
    "log_density",
    "log_sum_exp",
    "mixture_at",
    "nll",
    "predict",
    "predict_baseline",
    "sample",
    "score_candidates",
    "train",
]

__version__ = "0.1.0"
