"""Training harness: autodiff engine, losses, gradient checks, the two
training stages, and deployment quantization."""

from .bake import (
    LossWeights,
    TrainConfig,
    TrainingDiverged,
    bake,
    evaluate_nonrigid,
    finetune,
    format_log_line,
    write_train_log,
)
from .engine import Tensor, concat, constant
from .gradcheck import GradReport, grad_check
from .losses import (
    gaussian_window,
    l1_value,
    loss_dssim,
    loss_l1,
    loss_nonrigid,
    loss_normal,
    loss_semantic,
    mask_disagreement,
    ssim,
)
from .ops import gaussian_semantic, semantic_label, splat_render
from .optim import Adam
from .preflight import SUITES, preflight_ok, run_preflight
from .quantize import QuantReport, quantize_bundle

__all__ = [
    "Tensor", "concat", "constant", "Adam",
    "GradReport", "grad_check", "run_preflight", "preflight_ok", "SUITES",
    "loss_l1", "loss_dssim", "loss_normal", "loss_nonrigid", "loss_semantic",
    "ssim", "gaussian_window", "l1_value", "mask_disagreement",
    "semantic_label", "gaussian_semantic", "splat_render",
    "LossWeights", "TrainConfig", "TrainingDiverged", "bake", "finetune",
    "evaluate_nonrigid",
    "format_log_line", "write_train_log",
    "QuantReport", "quantize_bundle",
]
