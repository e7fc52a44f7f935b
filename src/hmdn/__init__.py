"""Mixture density networks, their hierarchical composition, and a
synthetic indoor-positioning testbed around them."""

from .mdn import (
    MdnConfig,
    MdnModel,
    MixtureParams,
    density,
    gradients,
    log_density,
    mixture_at,
    nll,
    sample,
    train,
)
from .numcore import Rng
from .pipeline import HmdnEstimate, HmdnPipeline, predict

__all__ = [
    "HmdnEstimate",
    "HmdnPipeline",
    "MdnConfig",
    "MdnModel",
    "MixtureParams",
    "Rng",
    "density",
    "gradients",
    "log_density",
    "mixture_at",
    "nll",
    "predict",
    "sample",
    "train",
]

__version__ = "0.1.0"
