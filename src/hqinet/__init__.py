"""Low-dose CT reconstruction: a small differentiable tensor engine, an
scSE encoder-decoder network, a synthetic parallel-beam CT data
pipeline, and a deterministic training CLI."""

from .tensor import Tensor, no_grad
from .network import HQINet, ModelConfig, build_model, parameter_count
from .losses import LossWeights, SsimParams, l1_loss, ssim, ssim_loss
from .metrics import metrics_report, mutual_information, nmse, psnr
from .runconfig import RunConfig
from .trainer import evaluate, reconstruct, train

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "no_grad",
    "HQINet",
    "ModelConfig",
    "build_model",
    "parameter_count",
    "LossWeights",
    "SsimParams",
    "l1_loss",
    "ssim",
    "ssim_loss",
    "metrics_report",
    "mutual_information",
    "nmse",
    "psnr",
    "RunConfig",
    "train",
    "evaluate",
    "reconstruct",
    "__version__",
]
